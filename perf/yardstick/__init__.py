"""The benchmark's own code: workloads, load generator, oracle, spans."""
