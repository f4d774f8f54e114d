"""Degeneracy coefficients: solved from the pivot block, certified everywhere."""

from pathlib import Path

import pytest

from casinv.expr import EXPR_ONE, zero_verdict
from casinv.fixtures import fixture_names, load_fixture
from casinv.gamma import GammaCertificationError, solve_gamma
from casinv.matrix import PivotDecomposition
from casinv.sysfile import load_system

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
    assert len(systems) == 10
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
        rank_samples=(2,),
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
