import math

import pytest

from difflat import systems
from difflat.analysis import AnalyzeOptions, FlatCandidate
from difflat.expr import Var, var
from difflat.model import SystemModel
from difflat.sysfile import (
    SystemFile, SystemFileError, loads_system, print_system,
)

MINIMAL = """
[dims]
n = 2
m = 2

[dynamics]
x1+ = u1
x2+ = u2

[output]
y1 = x1
y2 = x2

[equilibrium]
"""


def test_bundled_files_parse(corpus):
    dims = {name: (sf.model.n, sf.model.m) for name, sf in corpus.items()}
    assert dims == {"vtol": (6, 2), "academic": (5, 2), "robot": (3, 2)}


def test_a_parameter_named_pi_is_rejected_at_its_line():
    # the dynamics would read pi = 3 while [equilibrium] and the printed
    # file read the constant 3.14159...
    text = "[params]\nc = 2\npi = 3\n" + MINIMAL.replace("x1+ = u1", "x1+ = pi*u1")
    with pytest.raises(SystemFileError) as ei:
        loads_system(text)
    assert ei.value.line == 3 and "pi names the constant" in str(ei.value)


def test_vtol_file_details(vtol):
    m = vtol.model
    assert m.params["T_s"] == pytest.approx(0.1)
    assert m.params["g_grav"] == pytest.approx(9.81)
    assert m.point[var("x", 5)] == pytest.approx(math.pi / 2)
    assert m.point[var("u", 1)] == pytest.approx(9.81)
    assert m.g is not None
    assert vtol.options.input_boxes[1] == (pytest.approx(9.31), pytest.approx(10.31))


def test_minimal_file():
    sf = loads_system(MINIMAL)
    assert sf.model.n == 2 and sf.model.m == 2
    assert sf.model.point[var("x", 1)] == 0.0


def test_print_parse_round_trip(corpus):
    for name, sf in corpus.items():
        text = print_system(sf)
        sf2 = loads_system(text)
        assert sf2.model.f == sf.model.f
        assert sf2.model.state_vars == sf.model.state_vars
        assert sf2.model.g == sf.model.g
        assert sf2.candidate.phi == sf.candidate.phi
        assert sf2.model.point == sf.model.point
        assert sf2.options.input_boxes == sf.options.input_boxes
        # print is a fixpoint
        assert print_system(sf2) == text


def test_wrong_equation_count():
    bad = MINIMAL.replace("x2+ = u2\n", "")
    with pytest.raises(SystemFileError) as ei:
        loads_system(bad)
    assert "dynamics" in str(ei.value)


def test_section_order_enforced():
    bad = MINIMAL.replace("[dims]", "[output]\ny1 = x1\ny2 = x2\n[dims]")
    with pytest.raises(SystemFileError) as ei:
        loads_system(bad)
    assert "order" in str(ei.value) or "duplicate" in str(ei.value)


def test_duplicate_section_rejected():
    bad = MINIMAL + "\n[equilibrium]\n"
    with pytest.raises(SystemFileError):
        loads_system(bad)


def test_undeclared_parameter_in_dynamics():
    bad = MINIMAL.replace("x1+ = u1", "x1+ = k*u1")
    with pytest.raises(SystemFileError) as ei:
        loads_system(bad)
    assert "undeclared" in str(ei.value)


def test_component_out_of_range_reports_line():
    bad = MINIMAL.replace("y2 = x2", "y2 = x3")
    with pytest.raises(SystemFileError) as ei:
        loads_system(bad)
    assert "out of range" in str(ei.value)
    line = MINIMAL.splitlines().index("y2 = x2") + 1
    assert ei.value.line == line
    assert str(ei.value).startswith(f"line {line}, col ")
    assert str(ei.value).count("line ") == 1


@pytest.mark.parametrize("row, broken", [
    ("x1+ = u1", "x1+ = u1 +"),     # a dynamics right-hand side
    ("x2+ = u2", "x2*+ = u2"),      # a dynamics left-hand side
    ("y1 = x1", "y1 = x1 * (x2"),   # an output row
])
def test_parse_errors_name_their_line_once(row, broken):
    """A parse error inside a row reads 'line L, col C: ...', with L once,
    and sets `.line`."""
    bad = MINIMAL.replace(row, broken)
    line = bad.splitlines().index(broken) + 1
    with pytest.raises(SystemFileError) as ei:
        loads_system(bad)
    assert ei.value.line == line
    assert str(ei.value).startswith(f"line {line}, col ")
    assert str(ei.value).count("line ") == 1


def test_bad_numeric_expression_names_its_line_once():
    bad = "[params]\nk = 1 /\n" + MINIMAL
    with pytest.raises(SystemFileError) as ei:
        loads_system(bad)
    assert ei.value.line == 2
    assert str(ei.value).startswith("bad numeric expression: line 2, col ")
    assert str(ei.value).count("line ") == 1


def test_extension_rows_must_cover_g1_to_gm():
    bad = MINIMAL.replace("[output]", "[extension]\ng1 = x1\ng2 = x1\n[output]")
    sf = loads_system(bad)  # duplicate expressions are legal, g2 = x1 is just a bad choice
    assert sf.model.g == (var("x", 1), var("x", 1))


def test_extended_system_input_inference():
    text = """
[dims]
n = 3
m = 2

[dynamics]
zetabar1[-1]+ = x1
x1+ = x1 + ubar2*cos(ubar1 - x1)
x2+ = ubar1

[output]
y1 = x1
y2 = x2

[equilibrium]
"""
    sf = loads_system(text)
    assert sf.model.state_vars == (Var("zetabar", 1, -1), var("x", 1), var("x", 2))
    assert sf.model.input_vars == (Var("ubar", 1, 0), Var("ubar", 2, 0))


def test_round_trip_keeps_transformed_inputs_of_plain_states():
    # a static forward extension: states x1..x3, inputs ubar1, ubar2
    x = tuple(var("x", i) for i in (1, 2, 3))
    ubar = (Var("ubar", 1, 0), Var("ubar", 2, 0))
    model = SystemModel(f=(x[1], ubar[0], ubar[1]), state_vars=x,
                        input_vars=ubar, point={ubar[0]: 0.5}, name="chain")
    sf = SystemFile(model=model, candidate=FlatCandidate(phi=(x[0], x[2])),
                    options=AnalyzeOptions())
    back = loads_system(print_system(sf))
    assert back.model.state_vars == x
    assert back.model.input_vars == ubar
    assert back.model.f == model.f
    assert back.model.point[ubar[0]] == 0.5


def test_input_inference_error_reports_the_first_dynamics_line():
    bad = MINIMAL.replace("x2+ = u2", "x2+ = x1")
    with pytest.raises(SystemFileError) as ei:
        loads_system(bad)
    assert "cannot infer 2 input variables" in str(ei.value)
    assert ei.value.line == MINIMAL.splitlines().index("x1+ = u1") + 1


@pytest.mark.parametrize("row, broken, at, message", [
    ("x1+ = u1", "x1+ = u1 + u1/0", "x1+ = u1 + u1/0", "division by exact zero"),
    ("x1+ = u1", "x1+ = 1/x1 + u1", "x1+ = 1/x1 + u1",
     "at the equilibrium: pole: zero base in 1/x1"),
    ("[dims]", "[params]\na = 1/0\n[dims]", "a = 1/0",
     "bad numeric expression: division by exact zero"),
    ("n = 2", "n = two", "[dims]", "[dims] must declare integer n and m"),
    ("m = 2", "m = 2\nk = 9", "k = 9", "[dims] declares only n and m, got k"),
    # parameters the parser reads as a variable or a function, or cannot
    # read at all, so that no expression could ever reference them
    ("[dims]", "[params]\nx1 = 3\n[dims]", "x1 = 3",
     "x1 names a variable, not a parameter"),
    ("[dims]", "[params]\nu1 = 3\n[dims]", "u1 = 3",
     "u1 names a variable, not a parameter"),
    ("[dims]", "[params]\nsin = 3\n[dims]", "sin = 3",
     "sin names a function, not a parameter"),
    ("[dims]", "[params]\n2a = 3\n[dims]", "2a = 3",
     "parameter name '2a' is not an identifier"),
    ("[dims]", "[params]\na b = 3\n[dims]", "a b = 3",
     "parameter name 'a b' is not an identifier"),
    ("y2 = x2", "y3 = x2", "[output]", "[output] must define y1..y2"),
    ("[output]", "[extension]\ng1 = x1\ng3 = x2\n[output]", "[extension]",
     "[extension] must define g1..g2"),
    ("[output]", "[inverse]\nx1 = x1\nx2 = x2\nu1 = u1\nu2 = u2\n[output]",
     "[inverse]", "[inverse] needs the [extension] map g"),
])
def test_row_and_section_errors_name_their_line(row, broken, at, message):
    """An exact division by zero, a pole of f at the equilibrium, a
    parameter name the parser cannot read and a malformed section raise a
    SystemFileError with the line of the row, or of the section's header."""
    bad = MINIMAL.replace(row, broken)
    line = bad.splitlines().index(at) + 1
    with pytest.raises(SystemFileError) as ei:
        loads_system(bad)
    assert ei.value.line == line
    assert str(ei.value).startswith(f"line {line}: {message}")


INVERSE = "[inverse]\nx1 = x1\nx2 = x2\nx3 = x3\nu1 = u1\n{row}\n[output]"
PARAMETERIZATION = ("[parameterization]\nx1 = y1\nx2 = y2\nx3 = y1\nu1 = y2\n{row}\n"
                    "[equilibrium]")


@pytest.mark.parametrize("row, edited, repeat, message", [
    ("[dims]", "[params]\na = 1\na = 2\n[dims]", "a = 2", "[params] defines a"),
    ("n = 3", "n = 3\nn = 3", "n = 3", "[dims] defines n"),
    ("x3+ = x3 + u2", "x1+ = x3 + u2", "x1+ = x3 + u2", "[dynamics] defines x1+"),
    ("g2 = x1", "g1 = x1", "g1 = x1", "[extension] defines g1"),
    ("[output]", INVERSE.format(row="u1 = u2"), "u1 = u2", "[inverse] defines u1"),
    ("[output]", INVERSE.format(row="u1[0] = u2"), "u1[0] = u2",
     "[inverse] defines u1"),
    ("y2 = x1*sin(u2) - x2*cos(u2)", "y1 = x1*sin(u2) - x2*cos(u2)",
     "y1 = x1*sin(u2) - x2*cos(u2)", "[output] defines y1"),
    ("[equilibrium]", PARAMETERIZATION.format(row="x3 = y2"), "x3 = y2",
     "[parameterization] defines x3"),
    ("# all coordinates at the origin", "x1 = 1\nx1 = 2", "x1 = 2",
     "[equilibrium] defines x1"),
    ("# all coordinates at the origin", "x1 = 1\nx1[0] = 2", "x1[0] = 2",
     "[equilibrium] defines x1"),
    ("u2 = -1 .. 1", "u2 = -1 .. 1\nu2 = -2 .. 2", "u2 = -2 .. 2",
     "[simulation] defines u2"),
], ids=["params", "dims", "dynamics", "extension", "inverse", "inverse-alias",
        "output", "parameterization", "equilibrium", "equilibrium-alias",
        "simulation"])
def test_a_row_repeating_a_name_of_its_section_is_an_error_at_its_line(
        row, edited, repeat, message):
    """The last row of a repeated name neither wins silently nor is
    misreported at its section's header; a coordinate repeats under another
    spelling too (x1[0] is x1)."""
    bad = systems.source("robot").replace(row, edited)
    line = max(i for i, text in enumerate(bad.splitlines()) if text == repeat) + 1
    with pytest.raises(SystemFileError) as ei:
        loads_system(bad)
    assert ei.value.line == line
    assert str(ei.value) == f"line {line}: {message} twice"
