"""MAL plan representation and builder."""

from repro.monetdb import ColumnRef, MALBuilder, MALInstruction, Var


def test_builder_fresh_vars_and_results():
    builder = MALBuilder("q")
    a = builder.bind("t", "x")
    b = builder.emit("algebra", "select", (a, None, 1, 2, True, True, False))
    l, r = builder.emit("algebra", "join", (a, b), n_results=2)
    assert isinstance(a, Var) and a != b
    assert l != r
    program = builder.returns([("out", l)])
    assert len(program) == 3
    assert program.result_columns == [("out", l)]


def test_instruction_format():
    ins = MALInstruction(
        (Var("X_1"),), "algebra", "select",
        (Var("X_0"), None, 10, 20, True, False, False),
    )
    text = ins.format()
    assert text == (
        "X_1 := algebra.select(X_0, nil, 10, 20, true, false, false);"
    )
    assert ins.op == "algebra.select"


def test_format_column_ref_and_strings():
    ins = MALInstruction(
        (Var("X_1"),), "sql", "bind", (ColumnRef("lineitem", "l_qty"),)
    )
    assert '"lineitem"."l_qty"' in ins.format()
    ins2 = MALInstruction((Var("X_2"),), "algebra", "thetaselect",
                          (Var("X_1"), None, 5, "<="))
    assert "'<='" in ins2.format() or '"<="' in ins2.format()


def test_var_args_extraction():
    ins = MALInstruction(
        (Var("X_2"),), "algebra", "projection", (Var("X_0"), Var("X_1"), 5)
    )
    assert [v.name for v in ins.var_args()] == ["X_0", "X_1"]


def test_program_format_contains_signature():
    builder = MALBuilder("myquery")
    a = builder.bind("t", "x")
    program = builder.returns([("x", a)])
    text = program.format()
    assert text.startswith("function user.myquery();")
    assert text.rstrip().endswith("end user.myquery;")
    assert "sql.resultSet(x=X_1);" in text
