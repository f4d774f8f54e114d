"""System file grammar: the happy path, and errors that point at their line."""

import pytest

from casinv.expr import parse
from casinv.fixtures import fixture_names, load_fixture
from casinv.sysfile import SystemFileError, load_system, parse_system

GOOD = """\
# rigid body on so(3)
system demo
vars x1 x2 x3
params c

domain x1 > 0

J[1][2] = c*x3
J[1][3] = -c*x2
J[2][3] = c*x1

H = 1/2*x1^2

expect jacobi ok
expect rank 2
expect dependent 3
expect gamma 3 1 = -x1/x3 @ derived
expect casimir 1 = x1^2 + x2^2 + x3^2 @ reference
expect cost 1/2
"""


def test_parse_happy_path():
    sys_ = parse_system(GOOD, source="demo.psys")
    assert sys_.name == "demo"
    assert sys_.symbols.variables == ("x1", "x2", "x3")
    assert sys_.symbols.parameters == ("c",)
    assert sys_.matrix.rows[0][1] == parse("c*x3", sys_.symbols)
    assert sys_.matrix.rows[1][0] == parse("-c*x3", sys_.symbols)
    assert sys_.hamiltonian == parse("1/2*x1^2", sys_.symbols)
    assert sys_.matrix.domain.declared == {"x1": "+"}


def test_parse_expectations():
    e = parse_system(GOOD).expect
    assert e.jacobi_ok is True
    assert e.rank == 2
    assert e.dependent == (3,)
    gamma, tag = e.gammas[(3, 1)]
    assert tag == "derived"
    assert gamma == parse("-x1/x3", parse_system(GOOD).symbols)
    casimir, tag = e.casimirs[1]
    assert tag == "reference"
    assert str(e.cost) == "1/2"


def _expect_error(text: str, fragment: str, line: int):
    with pytest.raises(SystemFileError) as exc:
        parse_system(text, source="t.psys")
    assert fragment in str(exc.value)
    assert f"t.psys:{line}:" in str(exc.value)


def test_missing_system_line():
    _expect_error("vars x y\nJ[1][2] = 1\n", "missing 'system'", 1)


def test_missing_vars_line():
    _expect_error("system t\nJ[1][2] = 1\n", "missing 'vars'", 1)


def test_duplicate_entry_reports_line():
    text = "system t\nvars x y\nJ[1][2] = x\nJ[1][2] = y\n"
    _expect_error(text, "duplicate entry J[1][2]", 4)


def test_lower_triangle_entry_rejected():
    text = "system t\nvars x y\nJ[2][1] = x\n"
    _expect_error(text, "below the diagonal", 3)


def test_diagonal_entry_rejected():
    text = "system t\nvars x y\nJ[1][1] = x\n"
    _expect_error(text, "diagonal", 3)


def test_out_of_range_entry():
    text = "system t\nvars x y\nJ[1][5] = x\n"
    _expect_error(text, "out of range", 3)


def test_unknown_symbol_in_entry_points_at_line():
    text = "system t\nvars x y\n\nJ[1][2] = x*q\n"
    _expect_error(text, "q", 4)


def test_unrecognized_directive():
    _expect_error("system t\nvars x y\nfrobnicate 3\n", "unrecognized directive", 3)


def test_bad_domain_line():
    _expect_error("system t\nvars x y\ndomain x >= 0\n", "domain", 3)


def test_domain_for_unknown_variable():
    _expect_error("system t\nvars x y\ndomain z > 0\n", "unknown variable", 1)


def test_duplicate_hamiltonian():
    text = "system t\nvars x y\nJ[1][2] = 1\nH = x\nH = y\n"
    _expect_error(text, "duplicate 'H ='", 5)


def test_duplicate_params_after_an_empty_one():
    text = "system t\nvars x y\nparams\nparams a\nJ[1][2] = x\n"
    _expect_error(text, "duplicate 'params'", 4)


def test_bad_expectation_tag():
    text = "system t\nvars x y\nJ[1][2] = 1\nexpect casimir 1 = x @ guessed\n"
    _expect_error(text, "unknown expectation tag", 4)


def test_unknown_expectation_kind():
    text = "system t\nvars x y\nJ[1][2] = 1\nexpect flavor sweet\n"
    _expect_error(text, "unknown expectation", 4)


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\nsystem t  # trailing comment\nvars x y\nJ[1][2] = x  # entry\n"
    sys_ = parse_system(text)
    assert sys_.name == "t"
    assert sys_.hamiltonian is None


def test_params_optional():
    sys_ = parse_system("system t\nvars x y\nJ[1][2] = x\n")
    assert sys_.symbols.parameters == ()


def test_load_system_from_path(tmp_path):
    p = tmp_path / "demo.psys"
    p.write_text(GOOD)
    sys_ = load_system(p)
    assert sys_.name == "demo"
    assert sys_.source.endswith("demo.psys")


def test_load_system_error_names_the_file(tmp_path):
    p = tmp_path / "broken.psys"
    p.write_text("system t\nvars x\nJ[1][2] = x\n")
    with pytest.raises(SystemFileError) as exc:
        load_system(p)
    assert "broken.psys" in str(exc.value)


def test_all_bundled_fixtures_parse():
    for name in fixture_names():
        sys_ = load_fixture(name)
        assert sys_.name == name
        assert sys_.matrix.n == len(sys_.symbols.variables)
