"""The one region finder the fuse and morsel passes share
(:func:`repro.monetdb.dataflow.collapse_regions`), run with a toy region.

A toy member is ``toy.step(<pipeline>, …)``; a region admits steps of
the pipeline its first member named.  Everything else — the sealing
rule, the components, the escaping definitions and the inputs — is the
finder's, so that is what these tests pin.
"""

from repro.monetdb.dataflow import collapse_regions
from repro.monetdb.mal import ColumnRef, MALInstruction, MALProgram, Var


class ToyRegion:
    def __init__(self):
        self.defs: set[str] = set()
        self.pipeline = None

    def admit(self, index, instruction) -> bool:
        if instruction.module != "toy":
            return False
        pipeline = instruction.args[0]
        if self.pipeline not in (None, pipeline):
            return False
        self.pipeline = pipeline
        self.defs.update(var.name for var in instruction.results)
        return True


def step(result, pipeline, *reads):
    return MALInstruction((Var(result),), "toy", "step",
                          (pipeline,) + tuple(Var(name) for name in reads))


def other(result, function, *reads):
    return MALInstruction((Var(result),), "other", function,
                          tuple(Var(name) for name in reads))


def bind(result):
    return MALInstruction((Var(result),), "sql", "bind",
                          (ColumnRef("t", result),))


def program(*instructions, returns=()):
    return MALProgram("q", list(instructions),
                      [(name, Var(name)) for name in returns])


def run(plan, min_region=2):
    """Collapse ``plan``; returns the new plan and every ``build`` call
    as ``(pipeline, member results, input names, escaping names)``."""
    calls = []

    def build(region, members, inputs, escaping):
        calls.append((
            region.pipeline,
            [member.results[0].name for member in members],
            [var.name for var in inputs],
            [(member.results[0].name, var.name) for member, var in escaping],
        ))
        return MALInstruction(tuple(var for _, var in escaping), "toy",
                              "run", tuple(inputs))

    return collapse_regions(plan, ToyRegion, build, min_region), calls


def ops(plan):
    return [f"{i.op}:{','.join(v.name for v in i.results)}"
            for i in plan.instructions]


def test_a_non_member_reading_a_region_value_seals_it_and_the_value_escapes():
    plan = program(
        step("a", "p", "x"), step("b", "p", "a"),
        other("c", "use", "b"),
        step("d", "p", "x"), step("e", "p", "d"),
        returns=("c", "e"),
    )
    out, calls = run(plan)
    # without the seal the four steps would be one component (a and d
    # both read x)
    assert calls == [
        ("p", ["a", "b"], ["x"], [("b", "b")]),
        ("p", ["d", "e"], ["x"], [("e", "e")]),
    ]
    assert ops(out) == ["toy.run:b", "other.use:c", "toy.run:e"]


def test_an_instruction_that_starts_a_new_pipeline_seals_the_open_region():
    plan = program(
        step("a", "p", "x"), step("b", "p", "a"),
        step("c", "q", "y"), step("d", "q", "c"),
        returns=("b", "d"),
    )
    out, calls = run(plan)
    assert calls == [
        ("p", ["a", "b"], ["x"], [("b", "b")]),
        ("q", ["c", "d"], ["y"], [("d", "d")]),
    ]
    assert ops(out) == ["toy.run:b", "toy.run:d"]


def test_an_instruction_that_neither_joins_reads_nor_starts_does_not_cut():
    plan = program(
        step("a", "p", "x"),
        bind("k"),
        other("j", "join", "x", "y"),
        step("b", "p", "a", "k", "j"),
        returns=("b",),
    )
    out, calls = run(plan)
    assert calls == [("p", ["a", "b"], ["x", "k", "j"], [("b", "b")])]
    # the collapsed region lands at its last member's position
    assert ops(out) == ["sql.bind:k", "other.join:j", "toy.run:b"]


def test_components_smaller_than_min_region_stay_in_place():
    plan = program(
        step("a", "p", "x"), step("b", "p", "a"), step("c", "p", "y"),
        returns=("b", "c"),
    )
    out, calls = run(plan)
    assert calls == [("p", ["a", "b"], ["x"], [("b", "b")])]
    assert ops(out) == ["toy.run:b", "toy.step:c"]
    out, calls = run(plan, min_region=3)
    assert calls == [] and out is plan


def test_components_with_nothing_escaping_stay_in_place_unbuilt():
    plan = program(
        step("a", "p", "x"), step("b", "p", "a"),
        step("c", "p", "y"), step("d", "p", "c"),
        returns=("d",),
    )
    out, calls = run(plan)
    assert calls == [("p", ["c", "d"], ["y"], [("d", "d")])]
    assert ops(out) == ["toy.step:a", "toy.step:b", "toy.run:d"]


def test_a_declined_component_stays_in_place():
    plan = program(step("a", "p", "x"), step("b", "p", "a"),
                   returns=("b",))
    assert collapse_regions(plan, ToyRegion, lambda *_: None, 2) is plan


def test_inputs_come_in_first_use_order():
    plan = program(
        step("a", "p", "z", "y"),
        step("b", "p", "a", "x", "z"),
        step("c", "p", "b", "w", "y"),
        other("d", "use", "a"),
        returns=("c",),
    )
    _out, calls = run(plan)
    assert calls == [
        ("p", ["a", "b", "c"], ["z", "y", "x", "w"],
         [("a", "a"), ("c", "c")]),
    ]
