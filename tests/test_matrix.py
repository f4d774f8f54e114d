"""Structure matrices: skew checks, Jacobi identity, rank, pivot selection."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casinv.expr import (
    EXPR_ZERO,
    Domain,
    VariableSet,
    differentiate,
    parse,
    sample_values,
    zero_verdict,
)
from casinv.fixtures import fixture_names, load_fixture
from casinv import matrix
from casinv.matrix import JacobiFailure, JacobiReport, RankInstabilityError, StructureMatrix

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


def dense_jacobi_sum(mat, i, j, k):
    """Reference Jacobi sum for the triple (i, j, k), 0-based: every l, every entry."""
    names = mat.symbols.variables
    total = EXPR_ZERO
    for l in range(mat.n):
        d_jk = differentiate(mat.rows[j][k], names[l], mat.symbols)
        d_ki = differentiate(mat.rows[k][i], names[l], mat.symbols)
        d_ij = differentiate(mat.rows[i][j], names[l], mat.symbols)
        total = total + mat.rows[l][i] * d_jk + mat.rows[l][j] * d_ki + mat.rows[l][k] * d_ij
    return total


def dense_jacobi_report(mat, samples=20, tol=1e-9, seed=0):
    """Reference report: a zero verdict on the dense sum of every triple."""
    failures, sampled = [], []
    triples = list(itertools.combinations(range(mat.n), 3))
    for i, j, k in triples:
        rng = random.Random(f"jacobi:{seed}:{i}:{j}:{k}")
        s = dense_jacobi_sum(mat, i, j, k)
        v = zero_verdict(s, mat.symbols, mat.domain, samples=samples, tol=tol, rng=rng)
        if v.is_nonzero:
            failures.append(JacobiFailure((i + 1, j + 1, k + 1), v))
        elif v.status == "probably-zero":
            sampled.append((i + 1, j + 1, k + 1))
    return JacobiReport(not failures, len(triples), tuple(failures), tuple(sampled))


def report_facts(rep):
    """A JacobiReport as plain data; a witness Point compares by its values."""

    def verdict(v):
        return (v.status, v.samples, v.witness and v.witness.values, v.witness_value)

    failures = [(f.triple, verdict(f.verdict)) for f in rep.failures]
    return (rep.ok, rep.triples_checked, failures, rep.sampled_only)


@st.composite
def sparse_skew_matrices(draw):
    """Skew matrices with sparse polynomial entries in 3-6 variables."""
    n = draw(st.integers(3, 6))
    vs = VariableSet(tuple(f"x{t + 1}" for t in range(n)), ())
    factor = st.tuples(st.integers(1, n), st.integers(1, 2))
    monomial = st.tuples(st.sampled_from([-2, -1, 1, 3]), st.lists(factor, max_size=2))
    upper = {}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if draw(st.booleans()):
            continue
        terms = draw(st.lists(monomial, min_size=1, max_size=2))
        text = " + ".join(f"({c})" + "".join(f"*x{v}^{e}" for v, e in fs) for c, fs in terms)
        upper[(i, j)] = parse(text, vs)
    return StructureMatrix.from_upper(vs, upper)


@settings(max_examples=80, deadline=None)
@given(sparse_skew_matrices(), st.integers(0, 50))
def test_jacobi_report_matches_dense_reference(mat, seed):
    assert report_facts(mat.jacobi_report(seed=seed)) == report_facts(
        dense_jacobi_report(mat, seed=seed)
    )


VS4 = VariableSet(("x1", "x2", "x3", "x4"), ())


@pytest.mark.parametrize(
    "extra, status",
    [("0", "probably-zero"), ("x3*ln(x2)", "nonzero")],
)
def test_jacobi_ln_sum_is_sampled_with_triple_seeded_draws(extra, status):
    # the triple (2,3,4) sums to -dJ[3][4]/dx3 = ln(x2) - ln(x2*x3) + ln(x3) - d(extra)/dx3:
    # nonzero in canonical form, and zero in value unless extra adds to it
    j34 = parse(f"x4 + x3*(ln(x2*x3) - ln(x2) - ln(x3)) + {extra}", VS4)
    mat = StructureMatrix.from_upper(VS4, {(2, 3): parse("1", VS4), (3, 4): j34})
    report = mat.jacobi_report(seed=7)
    assert report_facts(report) == report_facts(dense_jacobi_report(mat, seed=7))
    if status == "probably-zero":
        assert report.ok and report.sampled_only == ((2, 3, 4),)
    else:
        (failure,) = report.failures
        assert failure.triple == (2, 3, 4)
        # the witness is the first draw of the triple's own seed string
        want = zero_verdict(
            dense_jacobi_sum(mat, 1, 2, 3), VS4, rng=random.Random("jacobi:7:1:2:3")
        )
        assert failure.verdict.witness.values == want.witness.values


def so3_sum(k):
    """Direct sum of k copies of so(3): {x_a, x_b} = x_c cyclically within each block."""
    vs = VariableSet(tuple(f"x{t + 1}" for t in range(3 * k)), ())
    upper = {}
    for b in range(0, 3 * k, 3):
        x1, x2, x3 = (parse(f"x{b + t}", vs) for t in (1, 2, 3))
        upper.update({(b + 1, b + 2): x3, (b + 1, b + 3): -x2, (b + 2, b + 3): x1})
    return StructureMatrix.from_upper(vs, upper)


def test_jacobi_differentiates_only_nonzero_upper_entries(monkeypatch):
    mat = so3_sum(6)
    calls = []

    def counting(e, name, symbols):
        calls.append(name)
        return differentiate(e, name, symbols)

    monkeypatch.setattr(matrix, "differentiate", counting)
    report = mat.jacobi_report()
    assert report.ok and report.triples_checked == 816
    upper_nonzero = sum(
        not mat.rows[a][b].is_zero() for a, b in itertools.combinations(range(mat.n), 2)
    )
    assert upper_nonzero == 18
    # the dense loop made 3 * 18 * 816 = 44,064 calls
    assert len(calls) <= mat.n * upper_nonzero


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


def test_greedy_fallback_agrees_with_enumeration(monkeypatch):
    sys_ = load_fixture("light-top")
    full = sys_.matrix.decompose()
    monkeypatch.setattr(matrix, "CANDIDATE_BUDGET", 1)
    greedy = sys_.matrix.decompose()
    assert greedy.rank == full.rank
    assert set(greedy.dependent_rows) == set(full.dependent_rows)


def test_numeric_rank_of_a_stack_matches_each_matrix():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 5, 5))
    stack = a - a.transpose(0, 2, 1)  # generic skew 5x5: rank 4
    stack[3] = 0.0
    stack[4, :2, :] = stack[4, :, :2] = 0.0  # a 3x3 skew block is left: rank 2
    each = [matrix.numeric_rank(m, 1e-9) for m in stack]
    assert list(matrix.numeric_rank(stack, 1e-9)) == each == [4, 4, 4, 0, 2, 4]
    assert np.array_equal(
        np.linalg.svd(stack, compute_uv=False),
        [np.linalg.svd(m, compute_uv=False) for m in stack],
    )


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
