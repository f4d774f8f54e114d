"""Structure matrices: skew checks, Jacobi identity, rank, pivot selection."""

import itertools
import random

import numpy as np
import pytest

from casinv.expr import EXPR_ZERO, Domain, VariableSet, parse, sample_values
from casinv.fixtures import fixture_names, load_fixture
from casinv.matrix import RankInstabilityError, StructureMatrix

VS3 = VariableSet(("x1", "x2", "x3"), ())


def upper3(**entries) -> StructureMatrix:
    parsed = {key: parse(text, VS3) for key, text in entries.items()}
    table = {}
    for key, e in parsed.items():
        i, j = int(key[1]), int(key[2])
        table[(i, j)] = e
    return StructureMatrix.from_upper(VS3, table)


def test_from_upper_builds_skew():
    mat = upper3(e12="x3", e13="-x2", e23="x1")
    assert mat.entry(0, 1) == parse("x3", VS3)
    assert mat.entry(1, 0) == parse("-x3", VS3)
    assert mat.entry(2, 2).is_zero()
    assert mat.check_skew() == []


def test_skew_violation_detected_and_reported_1based():
    rows = [
        [EXPR_ZERO, parse("x1", VS3), EXPR_ZERO],
        [parse("x1", VS3), EXPR_ZERO, EXPR_ZERO],
        [EXPR_ZERO, EXPR_ZERO, EXPR_ZERO],
    ]
    mat = StructureMatrix(VS3, tuple(tuple(r) for r in rows), Domain(), "broken")
    violations = mat.check_skew()
    assert len(violations) == 1
    v = violations[0]
    assert (v.row, v.col) == (1, 2)
    assert v.residual == parse("2*x1", VS3)


def test_jacobi_holds_for_rotation_bracket():
    mat = upper3(e12="x3", e13="-x2", e23="x1")
    report = mat.jacobi_report()
    assert report.ok
    assert report.triples_checked == 1
    assert report.failures == ()


def test_jacobi_failure_names_the_triple():
    # constant row plus a coordinate entry cannot close up
    mat = upper3(e12="x1", e13="1", e23="1")
    report = mat.jacobi_report()
    assert not report.ok
    assert report.failures[0].triple == (1, 2, 3)


def test_jacobi_all_fixtures():
    for name in fixture_names():
        sys_ = load_fixture(name)
        report = sys_.matrix.jacobi_report()
        assert report.ok == sys_.expect.jacobi_ok, name


def test_rank_of_rotation_bracket():
    mat = upper3(e12="x3", e13="-x2", e23="x1")
    decomp = mat.decompose()
    assert decomp.rank == 2
    assert decomp.rank_samples == (2,) * 7


def test_rank_zero_matrix():
    rows = tuple(tuple(EXPR_ZERO for _ in range(3)) for _ in range(3))
    mat = StructureMatrix(VS3, rows, Domain(), "null")
    decomp = mat.decompose()
    assert decomp.rank == 0
    assert decomp.pivot_rows == ()
    assert decomp.dependent_rows == (0, 1, 2)


def test_decompose_matches_fixture_expectations():
    for name in fixture_names():
        sys_ = load_fixture(name)
        if sys_.expect.rank is None:
            continue
        decomp = sys_.matrix.decompose()
        assert decomp.rank == sys_.expect.rank, name
        if sys_.expect.dependent is not None:
            assert decomp.dependent_rows_1based == sys_.expect.dependent, name


def test_decompose_pivot_det_is_certified_nonzero():
    sys_ = load_fixture("lv3-j1")
    decomp = sys_.matrix.decompose()
    assert not decomp.pivot_det.is_zero()
    assert decomp.pivot_rows_1based == (1, 2)


def test_decompose_prefers_sparse_pivot_block():
    sys_ = load_fixture("light-top")
    decomp = sys_.matrix.decompose()
    assert decomp.rank == 4
    assert decomp.pivot_rows_1based == (1, 2, 4, 5)
    assert decomp.dependent_rows_1based == (3, 6)


def test_greedy_fallback_agrees_with_enumeration():
    sys_ = load_fixture("light-top")
    full = sys_.matrix.decompose()
    greedy = sys_.matrix.decompose(candidate_budget=1)
    assert greedy.rank == full.rank
    assert set(greedy.dependent_rows) == set(full.dependent_rows)


def test_odd_numeric_rank_is_refused():
    # a non-skew matrix with generic rank 1 cannot come from a valid
    # structure matrix; the rank profiler refuses rather than rounding
    vs = VariableSet(("x1", "x2"), ())
    rows = (
        (EXPR_ZERO, parse("x1", vs)),
        (EXPR_ZERO, EXPR_ZERO),
    )
    mat = StructureMatrix(vs, rows, Domain(), "lopsided")
    with pytest.raises(RankInstabilityError, match="odd"):
        mat.decompose()


def _matrix_samples(mat, k, seed):
    entries = [e for row in mat.rows for e in row]
    draws = sample_values(entries, mat.symbols, mat.domain, random.Random(seed), 50 * k)
    return [(pt, np.array(v).reshape(mat.n, mat.n)) for pt, v in itertools.islice(draws, k)]


def test_sample_points_respect_domain():
    sys_ = load_fixture("lv3-j1")
    samples = _matrix_samples(sys_.matrix, 5, seed=3)
    assert len(samples) == 5
    for pt, _ in samples:
        for name, value in pt.values.items():
            assert value > 0, name


def test_numeric_evaluation_is_skew():
    sys_ = load_fixture("light-top")
    ((_, a),) = _matrix_samples(sys_.matrix, 1, seed=9)
    assert abs(a + a.T).max() < 1e-12
    assert abs(a).max() > 0
