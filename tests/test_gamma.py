"""Degeneracy coefficients: solved from the pivot block, certified everywhere."""

import signal
from pathlib import Path

import pytest

from casinv import linalg
from casinv.cli import main
from casinv.expr import EXPR_ONE, zero_verdict
from casinv.fixtures import fixture_names, load_fixture
from casinv.gamma import GammaCertificationError, solve_gamma
from casinv.matrix import PivotDecomposition
from casinv.sysfile import load_system, parse_system

SYSTEMS = sorted((Path(__file__).parent / "systems").glob("*.psys"))


def test_fixture_gammas_match_expectations():
    for name in fixture_names():
        sys_ = load_fixture(name)
        if not sys_.expect.gammas:
            continue
        decomp = sys_.matrix.decompose()
        gammas = solve_gamma(sys_.matrix, decomp)
        for (dep, piv), (expected, _tag) in sys_.expect.gammas.items():
            got = gammas.coefficient(dep - 1, piv - 1)
            assert got == expected, f"{name}: gamma[{dep}][{piv}]"


def test_gamma_relation_holds_on_every_column():
    sys_ = load_fixture("light-top")
    mat = sys_.matrix
    decomp = mat.decompose()
    gammas = solve_gamma(mat, decomp)
    for i in gammas.dependent_rows:
        for j in range(mat.n):
            residual = mat.rows[i][j]
            for k in gammas.pivot_rows:
                residual = residual - gammas.coefficient(i, k) * mat.rows[k][j]
            assert residual.is_zero(), (i + 1, j + 1)


def test_fixture_certification_needs_no_sampling():
    for name in fixture_names():
        sys_ = load_fixture(name)
        decomp = sys_.matrix.decompose()
        gammas = solve_gamma(sys_.matrix, decomp)
        assert gammas.sampled_columns == (), name


def test_forms_are_unit_kernel_vectors_of_j():
    systems = [load_fixture(name) for name in fixture_names()]
    systems += [load_system(path) for path in SYSTEMS]
    assert len(systems) == 13
    for sys_ in systems:
        mat = sys_.matrix
        gammas = solve_gamma(mat, mat.decompose())
        assert len(gammas.forms) == len(gammas.dependent_rows), sys_.name
        for i, w in zip(gammas.dependent_rows, gammas.forms):
            assert w[i] == EXPR_ONE, (sys_.name, i + 1)
            others = [k for k in range(mat.n) if k != i and not w[k].is_zero()]
            assert set(others) <= set(gammas.pivot_rows), (sys_.name, i + 1)
            assert all(c.is_zero() for c in mat.apply(w)), (sys_.name, i + 1)


def test_full_rank_system_has_no_gammas():
    sys_ = load_fixture("symplectic2")
    decomp = sys_.matrix.decompose()
    gammas = solve_gamma(sys_.matrix, decomp)
    assert gammas.forms == ()
    assert list(gammas.items_1based()) == []


def test_items_1based_orders_by_pivot():
    sys_ = load_fixture("lv3-j1")
    decomp = sys_.matrix.decompose()
    gammas = solve_gamma(sys_.matrix, decomp)
    (dep,) = gammas.dependent_rows
    items = list(gammas.items_1based())
    assert [key for key, _ in items] == [(dep + 1, k + 1) for k in gammas.pivot_rows]
    assert [c for _, c in items] == [gammas.coefficient(dep, k) for k in gammas.pivot_rows]


def test_forged_decomposition_fails_certification():
    # claim the top-left 2x2 block of a rank-4 matrix spans everything;
    # the solve goes through, the column recheck must call the bluff
    sys_ = load_fixture("light-top")
    mat = sys_.matrix
    block = ((mat.rows[0][0], mat.rows[0][1]), (mat.rows[1][0], mat.rows[1][1]))
    forged = PivotDecomposition(
        rank=2,
        pivot_rows=(0, 1),
        dependent_rows=(2, 3, 4, 5),
        pivot_block=block,
        pivot_det=mat.rows[0][1] * mat.rows[1][0],
    )
    with pytest.raises(GammaCertificationError) as exc:
        solve_gamma(mat, forged)
    assert exc.value.dep_row in (3, 4, 5, 6)
    assert 1 <= exc.value.col <= mat.n


def test_certified_gammas_vanish_against_bracket():
    # the defining relation, evaluated symbolically through zero_verdict,
    # should be decisively zero rather than merely plausible
    sys_ = load_fixture("lv3-j2")
    mat = sys_.matrix
    decomp = mat.decompose()
    gammas = solve_gamma(mat, decomp)
    for i in gammas.dependent_rows:
        for j in range(mat.n):
            residual = mat.rows[i][j]
            for k in gammas.pivot_rows:
                residual = residual - gammas.coefficient(i, k) * mat.rows[k][j]
            verdict = zero_verdict(residual, mat.symbols, mat.domain)
            assert verdict.is_zero


# -- so(5)*: an 8x8 pivot block that elimination over Expr never finished ------------

# so(5)* in its basis L_ab (a < b), ordered (1,2), (1,3), ..., (4,5): rank 8, and
# the Casimirs tr X^2 and tr X^4.  It stays out of systems/, whose files every
# report test renders.
SO5 = """\
system so5
vars x1 x2 x3 x4 x5 x6 x7 x8 x9 x10
J[1][2] = -x5
J[1][3] = -x6
J[1][4] = -x7
J[1][5] = x2
J[1][6] = x3
J[1][7] = x4
J[2][3] = -x8
J[2][4] = -x9
J[2][5] = -x1
J[2][8] = x3
J[2][9] = x4
J[3][4] = -x10
J[3][6] = -x1
J[3][8] = -x2
J[3][10] = x4
J[4][7] = -x1
J[4][9] = -x2
J[4][10] = -x3
J[5][6] = -x8
J[5][7] = -x9
J[5][8] = x6
J[5][9] = x7
J[6][7] = -x10
J[6][8] = -x5
J[6][10] = x7
J[7][9] = -x5
J[7][10] = -x6
J[8][9] = -x10
J[8][10] = x9
J[9][10] = -x8
"""


class _Deadline(BaseException):
    """Raised by SIGALRM; a BaseException, so no handler inside casinv swallows it."""


@pytest.fixture
def deadline():
    """Fail the test instead of hanging the run if it takes more than 30 s."""

    def expire(signum, frame):
        raise _Deadline("still running after 30 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_so5_pivot_determinant_is_the_pfaffian_squared_and_gamma_certifies(deadline):
    mat = parse_system(SO5).matrix
    decomp = mat.decompose()
    assert decomp.rank == 8
    assert decomp.pivot_rows_1based == (1, 2, 3, 4, 5, 6, 9, 10)
    pf = linalg._pfaffian(decomp.pivot_block, tuple(range(8)), {})
    assert pf.den.is_one() and pf.num.monomial_count() == 18
    assert decomp.pivot_det == pf * pf
    assert decomp.pivot_det.num.monomial_count() == 168
    gammas = solve_gamma(mat, decomp)
    assert gammas.dependent_rows == (6, 7)
    assert gammas.sampled_columns == ()


def test_so5_all_integrates_only_the_quadratic_casimir(deadline, tmp_path, capsys):
    path = tmp_path / "so5.psys"
    path.write_text(SO5)
    assert main(["all", str(path)]) == 3
    assert "only 1 could be integrated" in capsys.readouterr().err


@pytest.mark.xfail(
    strict=True,
    reason="the quartic Casimir needs multipliers of degree 3, which integrate does not try "
    "(ROADMAP item 3)",
)
def test_so5_all_finds_both_casimirs(deadline, tmp_path, capsys):
    path = tmp_path / "so5.psys"
    path.write_text(SO5)
    assert main(["all", str(path)]) == 0
    assert "casimirs: 2 of 2 expected" in capsys.readouterr().out
