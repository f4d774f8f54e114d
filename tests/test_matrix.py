"""Structure matrices: skew checks, Jacobi identity, rank, pivot selection."""

import itertools
import math
import operator
import random
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from casinv.expr import (
    EXPR_ONE,
    EXPR_ZERO,
    Domain,
    VariableSet,
    differentiate,
    parse,
    sample_points,
    sample_values,
    zero_verdict,
)
from casinv.fixtures import fixture_names, load_fixture
from casinv import expr, matrix, verify
from casinv.linalg import _rref_mod_p
from casinv.matrix import JacobiFailure, JacobiReport, StructureError, StructureMatrix
from casinv.poly import _PRIME
from casinv.sysfile import load_system

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
    assert mat.rows[0][1] == parse("x3", VS3)
    assert mat.rows[1][0] == parse("-x3", VS3)
    assert mat.rows[2][2].is_zero()
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


def sparse_polys(n):
    """Text of one or two monomials of degree at most 4 in x1..xn."""
    factor = st.tuples(st.integers(1, n), st.integers(1, 2))
    monomial = st.tuples(st.sampled_from([-2, -1, 1, 3]), st.lists(factor, max_size=2))
    return st.lists(monomial, min_size=1, max_size=2).map(
        lambda terms: " + ".join(f"({c})" + "".join(f"*x{v}^{e}" for v, e in fs) for c, fs in terms)
    )


@st.composite
def sparse_skew_matrices(draw):
    """Skew matrices with sparse polynomial entries in 3-6 variables."""
    n = draw(st.integers(3, 6))
    vs = VariableSet(tuple(f"x{t + 1}" for t in range(n)), ())
    upper = {}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if draw(st.booleans()):
            continue
        upper[(i, j)] = parse(draw(sparse_polys(n)), vs)
    return StructureMatrix.from_upper(vs, upper)


@settings(max_examples=80, deadline=None)
@given(sparse_skew_matrices(), st.integers(0, 50))
def test_jacobi_report_matches_dense_reference(mat, seed):
    assert mat.jacobi_report(seed=seed) == dense_jacobi_report(mat, seed=seed)


@st.composite
def block_sums(draw):
    """Direct sums of 2-3 sparse skew blocks of size 2-3, so most triples have no term."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
    n = sum(sizes)
    vs = VariableSet(tuple(f"x{t + 1}" for t in range(n)), ())
    upper, start = {}, 1
    for size in sizes:
        for i, j in itertools.combinations(range(start, start + size), 2):
            if draw(st.booleans()):
                upper[(i, j)] = parse(draw(sparse_polys(n)), vs)
        start += size
    return StructureMatrix.from_upper(vs, upper)


@settings(max_examples=40, deadline=None)
@given(block_sums(), st.integers(0, 50))
def test_jacobi_report_over_live_triples_matches_dense_reference(mat, seed):
    report = mat.jacobi_report(seed=seed)
    assert report == dense_jacobi_report(mat, seed=seed)
    assert report.triples_checked == math.comb(mat.n, 3)


def draw_vector(data, mat):
    """Vector of zeros, sparse polynomials and quotients with a linear denominator."""
    n = mat.n
    quotient = st.tuples(sparse_polys(n), st.integers(1, n), st.integers(1, 3)).map(
        lambda t: f"({t[0]})/(x{t[1]} + {t[2]})"
    )
    entry = st.one_of(st.just("0"), sparse_polys(n), quotient)
    texts = data.draw(st.lists(entry, min_size=n, max_size=n))
    return [parse(t, mat.symbols) for t in texts]


@settings(max_examples=60, deadline=None)
@given(sparse_skew_matrices(), st.data())
def test_apply_matches_dense_product(mat, data):
    vec = draw_vector(data, mat)
    dense = tuple(
        sum((mat.rows[i][j] * vec[j] for j in range(mat.n)), EXPR_ZERO) for i in range(mat.n)
    )
    assert mat.apply(vec) == dense


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_apply_matches_dense_product_where_j_has_denominators(data):
    # lv3-j1's J[1][2] = -x1*x2/(a*b) and J[1][3] = -x1*x3/a: the common denominator
    # takes in J's denominators as well as the vector's
    mat = load_fixture("lv3-j1").matrix
    vec = draw_vector(data, mat)
    extra = st.sampled_from(["a*b*x3/x1", "-b*x3/x2", "1/(a*b)", "x2/(a + x3)", "ln(x1)/b"])
    for j in data.draw(st.lists(st.integers(0, mat.n - 1), unique=True)):
        vec[j] = parse(data.draw(extra), mat.symbols)
    assert mat.apply(vec) == dense_apply(mat, vec)


def test_apply_certifies_lv3_j1_degeneracy_relation():
    mat = load_fixture("lv3-j1").matrix
    w = [parse(t, mat.symbols) for t in ("a*b*x3/x1", "-b*x3/x2", "1")]
    assert all(e.is_zero() for e in mat.apply(w))


@settings(max_examples=60, deadline=None)
@given(sparse_skew_matrices(), st.data())
def test_apply_negated_is_the_row_relation_residual(mat, data):
    # w = e_i - sum_k gamma_k e_k; for a skew J, -(J w)_j = J[i][j] - sum_k gamma_k J[k][j]
    i = data.draw(st.integers(0, mat.n - 1))
    w = draw_vector(data, mat)
    w[i] = EXPR_ONE
    gamma = {k: -w[k] for k in range(mat.n) if k != i}
    jw = mat.apply(w)
    for j in range(mat.n):
        residual = mat.rows[i][j]
        for k, g in gamma.items():
            residual = residual - g * mat.rows[k][j]
        assert -jw[j] == residual, j + 1


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
    assert report == dense_jacobi_report(mat, seed=7)
    if status == "probably-zero":
        assert report.ok and report.sampled_only == ((2, 3, 4),)
    else:
        (failure,) = report.failures
        assert failure.triple == (2, 3, 4)
        # the witness is the first draw of the triple's own seed string
        want = zero_verdict(
            dense_jacobi_sum(mat, 1, 2, 3), VS4, rng=random.Random("jacobi:7:1:2:3")
        )
        assert failure.verdict.witness == want.witness


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
    # every 2x2 block ties on sparsity; the lowest rows win
    assert decomp.pivot_rows_1based == (1, 2)


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


def test_singular_residue_blocks_never_reach_the_determinant(monkeypatch):
    # a nonzero residue minor is a nonzero determinant, so on these systems the
    # first candidate that passes the mod-p screen certifies, and it is the
    # only one whose determinant is expanded
    calls = []
    det_exact = matrix.det_exact
    monkeypatch.setattr(
        matrix, "det_exact", lambda rows, *memo: calls.append(rows) or det_exact(rows, *memo)
    )
    systems = [load_fixture(name) for name in fixture_names()]
    systems += [load_system(p) for p in sorted((Path(__file__).parent / "systems").glob("*.psys"))]
    for sys_ in systems:
        calls.clear()
        decomp = sys_.matrix.decompose()
        assert len(calls) == 1 and len(calls[0]) == decomp.rank, sys_.name


def test_greedy_fallback_agrees_with_enumeration(monkeypatch):
    sys_ = load_fixture("light-top")
    full = sys_.matrix.decompose()
    monkeypatch.setattr(matrix, "CANDIDATE_BUDGET", 1)
    greedy = sys_.matrix.decompose()
    assert greedy.rank == full.rank
    assert set(greedy.dependent_rows) == set(full.dependent_rows)


def ranked_by_block_sums(nnz, monos, r) -> list:
    """Reference: sort every size-r subset by its block's nonzero and monomial sums, then itself."""

    def key(subset):
        pick = operator.itemgetter(*subset)
        return (
            sum([sum(pick(nnz[p])) for p in subset]),
            sum([sum(pick(monos[p])) for p in subset]),
            subset,
        )

    return sorted(itertools.combinations(range(len(nnz)), r), key=key)


@st.composite
def count_patterns(draw):
    """Nonzero and monomial counts of a skew matrix's entries, or of any matrix's."""
    n = draw(st.integers(2, 9))
    nnz = [[0] * n for _ in range(n)]
    monos = [[0] * n for _ in range(n)]
    skew = draw(st.booleans())
    for i, j in itertools.product(range(n), repeat=2):
        if (skew and i >= j) or (not skew and i == j):
            continue
        nnz[i][j] = draw(st.integers(0, 1))
        monos[i][j] = nnz[i][j] * draw(st.integers(1, 12))
        if skew:
            nnz[j][i], monos[j][i] = nnz[i][j], monos[i][j]
    return nnz, monos, 2 * draw(st.integers(1, n // 2))


@settings(max_examples=150, deadline=None)
@given(count_patterns())
def test_complement_ranking_matches_the_block_sums(pattern):
    nnz, monos, r = pattern
    assert matrix._ranked_blocks(nnz, monos, r) == ranked_by_block_sums(nnz, monos, r)


def test_complement_ranking_on_so3_sums():
    mat = so3_sum(4)
    nnz = [[int(not e.is_zero()) for e in row] for row in mat.rows]
    monos = [[0 if e.is_zero() else e.monomial_count() for e in row] for row in mat.rows]
    assert matrix._ranked_blocks(nnz, monos, 8) == ranked_by_block_sums(nnz, monos, 8)


def unscreened_greedy_pivot(m, order) -> list:
    """Reference: grow the block by the first free pair, in order, whose block is invertible mod p."""
    chosen, pairs = [], []
    while True:
        for i, j in order:
            if i in chosen or j in chosen:
                continue
            trial = sorted(chosen + [i, j])
            if len(_rref_mod_p([[m[p][q] for q in trial] for p in trial], len(trial))) == len(trial):
                break
        else:
            return pairs
        chosen = trial
        pairs.append((i, j))


@st.composite
def skew_float_matrices(draw):
    """Skew integer matrices: sparse, or block-diagonal under a row permutation."""
    n = draw(st.integers(2, 9))
    m = np.zeros((n, n))
    if draw(st.booleans()):
        pairs = itertools.combinations(range(n), 2)
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3)))
        block = np.searchsorted(cuts, np.arange(n), side="right")
        live = [(i, j) for i, j in pairs if block[i] == block[j]]
    else:
        live = list(itertools.combinations(range(n), 2))
    for i, j in live:
        m[i, j] = draw(st.sampled_from([0, 0, 1, -1, 2, -3]))
        m[j, i] = -m[i, j]
    perm = draw(st.permutations(range(n)))
    return m[np.ix_(perm, perm)]


@settings(max_examples=150, deadline=None)
@given(skew_float_matrices(), st.randoms(use_true_random=False))
def test_screened_greedy_pivot_matches_the_unscreened_loop(m, rnd):
    # _grow screens each pair by one entry of the Schur complement of the block so far
    m = [[int(v) % _PRIME for v in row] for row in m]
    order = list(itertools.combinations(range(len(m)), 2))
    rnd.shuffle(order)
    pairs = matrix._grow([list(row) for row in m], order)
    assert pairs == unscreened_greedy_pivot(m, order)
    assert 2 * len(pairs) == len(_rref_mod_p([list(row) for row in m], len(m)))


def test_greedy_pivot_screens_out_most_svds(monkeypatch):
    # the rank and the block are decided mod p: nothing is evaluated or ranked in floats
    def no_floats(*args, **kwargs):
        raise AssertionError("a float evaluation or rank was made")

    for owner, name in ((verify, "numeric_rank"), (expr, "compile_exprs"), (expr, "evaluate")):
        monkeypatch.setattr(owner, name, no_floats)
    decomp = so3_sum(12).decompose(seed=3)
    assert decomp.rank == 24
    assert decomp.dependent_rows_1based == tuple(range(3, 37, 3))


def test_odd_numeric_rank_is_refused():
    # a non-skew matrix (here of rank 1) cannot come from a valid structure
    # matrix; its residues are not skew, and decompose refuses it
    vs = VariableSet(("x1", "x2"), ())
    rows = (
        (EXPR_ZERO, parse("x1", vs)),
        (EXPR_ZERO, EXPR_ZERO),
    )
    mat = StructureMatrix(vs, rows, Domain(), "lopsided")
    with pytest.raises(StructureError, match="skew"):
        mat.decompose()


def test_sample_points_respect_domain():
    mat = load_fixture("lv3-j1").matrix
    points = list(sample_points(mat.symbols, mat.domain, random.Random(3), 5, lambda pt: pt))
    assert len(points) == 5
    for pt in points:
        for name, value in pt.items():
            assert value > 0, name


def test_numeric_evaluation_is_skew():
    mat = load_fixture("light-top").matrix
    entries = [e for row in mat.rows for e in row]
    (v,) = sample_values(entries, mat.symbols, mat.domain, random.Random(9), 1)
    a = np.array(v).reshape(mat.n, mat.n)
    assert abs(a + a.T).max() < 1e-12
    assert abs(a).max() > 0


# -- the nonzero-pattern walk against the dense n^2 loops ----------------------------


def dense_check_skew(mat) -> list:
    """Reference: check_skew over every slot of the upper triangle."""
    out = []
    for i in range(mat.n):
        for j in range(i, mat.n):
            r = mat.rows[i][j] + mat.rows[j][i] if i != j else mat.rows[i][i]
            if not r.is_zero():
                out.append(matrix.SkewViolation(i + 1, j + 1, r))
    return out


def dense_live_triples(mat) -> tuple:
    """Reference: the upper entries' nonzero derivatives, and the triples that some
    derivative meets in a dense column of J."""
    n, names = mat.n, mat.symbols.variables
    grads = {}
    for a, b in itertools.combinations(range(n), 2):
        e = mat.rows[a][b]
        if e.is_zero():
            continue
        d = {}
        for l, name in enumerate(names):
            if not (g := differentiate(e, name, mat.symbols)).is_zero():
                d[l] = g
        grads[(a, b)] = d
        grads[(b, a)] = {l: -g for l, g in d.items()}
    cols = [{l: mat.rows[l][c] for l in range(n) if not mat.rows[l][c].is_zero()} for c in range(n)]
    live = {
        tuple(sorted((a, b, c)))
        for (a, b), d in grads.items()
        for c, col in enumerate(cols)
        if c not in (a, b) and not col.keys().isdisjoint(d)
    }
    return grads, cols, live


def dense_scan_jacobi_report(mat, samples=20, tol=1e-9, seed=0):
    """Reference: jacobi_report's sums over the live triples of the dense scan."""
    grads, cols, live = dense_live_triples(mat)
    failures, sampled = [], []
    for i, j, k in sorted(live):
        terms = []
        for pos, (c, pair) in enumerate(((i, (j, k)), (j, (k, i)), (k, (i, j)))):
            terms += [(l, pos, cols[c][l], g) for l, g in grads.get(pair, {}).items() if l in cols[c]]
        terms.sort(key=lambda t: t[:2])
        s = EXPR_ZERO
        for _, _, e, g in terms:
            s = s + e * g
        if s.is_zero():
            continue
        rng = random.Random(f"jacobi:{seed}:{i}:{j}:{k}")
        v = zero_verdict(s, mat.symbols, mat.domain, samples=samples, tol=tol, rng=rng)
        if v.is_nonzero:
            failures.append(JacobiFailure((i + 1, j + 1, k + 1), v))
        elif v.status == "probably-zero":
            sampled.append((i + 1, j + 1, k + 1))
    return JacobiReport(not failures, math.comb(mat.n, 3), tuple(failures), tuple(sampled))


def dense_decompose(mat, seed=0):
    """Reference: decompose with its residue and count tables taken over all n^2 slots."""
    n = mat.n

    def residues(point):
        s = [[0 if e.is_zero() else matrix.residue(e, point, rng) for e in row] for row in mat.rows]
        if any((s[i][j] + s[j][i]) % _PRIME for i in range(n) for j in range(i, n)):
            raise StructureError("the matrix is not skew-symmetric at a sample point")
        return s

    rng = random.Random(f"structure-sample:{seed}")
    s = next(sample_points(mat.symbols, mat.domain, rng, 1, residues, _PRIME), None)
    if s is None:
        raise StructureError("could not sample points where the matrix is regular")
    nnz = [[int(not e.is_zero()) for e in row] for row in mat.rows]
    monos = [[0 if e.is_zero() else e.monomial_count() for e in row] for row in mat.rows]
    row_nnz = [sum(row) for row in nnz]
    order = sorted(
        itertools.combinations(range(n), 2), key=lambda p: (row_nnz[p[0]] + row_nnz[p[1]], p)
    )
    pairs = matrix._grow([list(row) for row in s], order)
    for r in range(2 * len(pairs), 0, -2):
        if math.comb(n, r) <= matrix.CANDIDATE_BUDGET:
            candidates = matrix._ranked_blocks(nnz, monos, r)
        else:
            candidates = [tuple(sorted(itertools.chain(*pairs[: r // 2])))]
        for subset in candidates:
            if len(_rref_mod_p([[s[p][q] for q in subset] for p in subset], r)) < r:
                continue
            sym = tuple(tuple(mat.rows[p][q] for q in subset) for p in subset)
            det = matrix.det_exact(sym)
            v = zero_verdict(det, mat.symbols, mat.domain, rng=random.Random(f"pivot:{seed}"))
            if v.is_nonzero:
                dep = tuple(i for i in range(n) if i not in subset)
                return matrix.PivotDecomposition(r, subset, dep, sym, det)
            if not v.samples:
                raise StructureError("could not sample points where the matrix is regular")
    return matrix.PivotDecomposition(0, (), tuple(range(n)), (), EXPR_ONE)


def dense_apply(mat, vec) -> tuple:
    """Reference: J * vec row by row, each row scanned over the vector's nonzero slots."""
    live = [(j, v) for j, v in enumerate(vec) if not v.is_zero()]
    out = []
    for row in mat.rows:
        acc = EXPR_ZERO
        for j, v in live:
            if not row[j].is_zero():
                acc = acc + row[j] * v
        out.append(acc)
    return tuple(out)


def few_symbol_entries(names):
    """Text of one or two monomials in at most three of the names, sometimes times an ln."""
    factor = st.tuples(st.sampled_from(names), st.integers(1, 2))
    monomial = st.tuples(st.sampled_from([-2, -1, 1, 3]), st.lists(factor, max_size=2))
    ln = st.sampled_from(["", "", "", f"*ln({names[0]})", f"*ln({names[-1]} + 1)"])
    return st.tuples(st.lists(monomial, min_size=1, max_size=2), ln).map(
        lambda t: "(" + " + ".join(
            f"({c})" + "".join(f"*{v}^{e}" for v, e in fs) for c, fs in t[0]
        ) + ")" + t[1]
    )


@st.composite
def permuted_block_matrices(draw):
    """Skew matrices block-diagonal under a random permutation, plus a few random entries;
    each entry is polynomial in at most three variables.  Some are built from dense rows
    and carry a pair that is not skew or a nonzero diagonal entry."""
    n = draw(st.integers(3, 8))
    vs = VariableSet(tuple(f"x{t + 1}" for t in range(n)), ())
    perm = draw(st.permutations(range(n)))
    sizes, left = [], n
    while left:
        sizes.append(draw(st.integers(1, min(left, 4))))
        left -= sizes[-1]
    pairs, start = [], 0
    for size in sizes:
        pairs += itertools.combinations(perm[start : start + size], 2)
        start += size
    pairs += draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    upper = {}
    for i, j in pairs:
        if i == j or not draw(st.integers(0, 3)):
            continue
        names = draw(st.lists(st.sampled_from(vs.variables), min_size=1, max_size=3, unique=True))
        e = parse(draw(few_symbol_entries(names)), vs)
        upper[(min(i, j) + 1, max(i, j) + 1)] = e if i < j else -e
    mat = StructureMatrix.from_upper(vs, upper)
    flaw = draw(st.sampled_from([None, "pair", "diagonal"]))
    if flaw is None:
        return mat
    rows = [list(row) for row in mat.rows]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    e = parse(draw(few_symbol_entries(vs.variables[:3])), vs)
    if flaw == "pair" and i != j:
        rows[i][j] = rows[i][j] + e
    else:
        rows[i][i] = e
    return StructureMatrix(vs, rows, Domain(), "flawed")


def _outcome(fn, *args):
    try:
        return fn(*args)
    except StructureError as e:
        return str(e)


def _recorded(fn, *args) -> tuple:
    """fn's outcome, and the entries it took residues of, in order."""
    taken = []
    residue = matrix.residue

    def recording(e, point, rng=None, wrt=None):
        taken.append(e)
        return residue(e, point, rng, wrt)

    with mock.patch.object(matrix, "residue", recording):
        return _outcome(fn, *args), taken


@settings(max_examples=100, deadline=None)
@given(permuted_block_matrices(), st.integers(0, 50), st.data())
def test_pattern_walk_matches_the_dense_loops(mat, seed, data):
    assert mat.check_skew() == dense_check_skew(mat)
    assert mat.jacobi_report(seed=seed) == dense_scan_jacobi_report(mat, seed=seed)
    # the same residues in the same order: ln atoms take their draws where first met
    assert _recorded(mat.decompose, seed) == _recorded(dense_decompose, mat, seed)
    vec = draw_vector(data, mat)
    assert mat.apply(vec) == dense_apply(mat, vec)


def test_pattern_walk_skips_the_zero_slots(monkeypatch):
    mat = so3_sum(12)  # 72 nonzero entries of 1296
    calls = []
    is_zero = expr.Expr.is_zero
    monkeypatch.setattr(expr.Expr, "is_zero", lambda e: calls.append(e) or is_zero(e))
    assert mat.check_skew() == []
    assert mat.jacobi_report().ok
    assert mat.decompose().rank == 24
    # the dense loops made 666 + 1962 + 4488 = 7116 calls
    assert len(calls) < mat.n**2
