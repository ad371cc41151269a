"""Shared gating for the compression suite.

The CI ``knob-ab`` job runs these tests with
``REPRO_COMPRESSION=off``, which forces *storage* plain — tests that
exist to observe encoded storage (zero-decode counters, explain
annotations, physical interconnect bytes) are vacuous there and skip;
everything codec- and pass-level still runs.
"""

import os

import pytest


def _storage_forced_plain() -> bool:
    return os.environ.get("REPRO_COMPRESSION", "").strip().lower() in (
        "off", "0", "false", "no"
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "needs_encoded_storage: skipped when REPRO_COMPRESSION=off "
        "forces plain base-column storage",
    )


def pytest_collection_modifyitems(config, items):
    if not _storage_forced_plain():
        return
    skip = pytest.mark.skip(
        reason="REPRO_COMPRESSION=off forces plain storage"
    )
    for item in items:
        if item.get_closest_marker("needs_encoded_storage"):
            item.add_marker(skip)
