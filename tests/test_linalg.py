"""Exact linear algebra: skew determinants and solves, rational nullspaces."""

import itertools
import random
import signal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from casinv import linalg
from casinv.expr import EXPR_ONE, EXPR_ZERO, Expr, VariableSet, number, parse, symbol
from casinv.fixtures import fixture_names, load_fixture
from casinv.integrate import integrate_all
from casinv.linalg import (
    SingularMatrixError,
    det_exact,
    nullspace_fractions,
    solve_exact,
)
from casinv.sysfile import load_system
from elimination import rref

VS = VariableSet(("x", "y", "z"), ("a",))


def E(text: str):
    return parse(text, VS)


def _skew_from_upper(n, upper):
    m = [[EXPR_ZERO] * n for _ in range(n)]
    for (i, j), e in upper.items():
        m[i][j], m[j][i] = E(e), -E(e)
    return m


def _det_rref(rows):
    """det_exact by Gauss-Jordan over the whole matrix: the reference."""
    n = len(rows)
    pivots, det = rref([list(r) for r in rows], n, Expr.is_zero)
    if len(pivots) < n:
        return EXPR_ZERO
    return det if n else EXPR_ONE


def _rref_solve(a, b):
    """solve_exact by Gauss-Jordan over the whole matrix: the reference."""
    n = len(a)
    m = [list(a[i]) + [col[i] for col in b] for i in range(n)]
    pivots, _ = rref(m, n, Expr.is_zero)
    assert len(pivots) == n
    return [[m[i][n + j] for i in range(n)] for j in range(len(b))]


def _residual_is_zero(a, x, b):
    for i, row in enumerate(a):
        acc = EXPR_ZERO
        for e, v in zip(row, x):
            if not e.is_zero() and not v.is_zero():
                acc = acc + e * v
        if acc != b[i]:
            return False
    return True


def test_det_2x2():
    assert det_exact(_skew_from_upper(2, {(0, 1): "x + y"})) == E("(x + y)^2")


def test_det_needs_row_swap():
    # J[0][1] = 0: the expansion skips it, as elimination would swap rows
    m = _skew_from_upper(4, {(0, 2): "x", (0, 3): "y", (1, 2): "z", (1, 3): "1"})
    assert det_exact(m) == E("(y*z - x)^2") == _det_rref(m)


def test_det_singular_is_zero():
    # one even component whose Pfaffian x*y - x*y cancels
    m = _skew_from_upper(4, {(0, 1): "x", (2, 3): "y", (0, 2): "x", (1, 3): "y"})
    assert det_exact(m).is_zero()


def test_det_3x3_symbolic():
    # an odd skew matrix is singular whatever its entries
    m = _skew_from_upper(3, {(0, 1): "x", (0, 2): "y", (1, 2): "z"})
    assert det_exact(m).is_zero()
    assert _det_rref(m).is_zero()


def test_det_empty_matrix_is_one():
    assert det_exact([]) == EXPR_ONE


def test_det_rational_entries():
    m = _skew_from_upper(4, {(0, 1): "x/y", (2, 3): "y/(x + 1)", (0, 3): "1/z"})
    assert det_exact(m) == E("x^2/(x + 1)^2") == _det_rref(m)


def test_solve_simple():
    a = _skew_from_upper(2, {(0, 1): "2"})
    (sol,) = solve_exact(a, [[E("x"), E("y")]])
    assert sol == [E("-y/2"), E("x/2")]


def test_solve_symbolic_coefficients():
    # (x + 1) * u1 = y,  -(x + 1) * u0 = 0
    a = _skew_from_upper(2, {(0, 1): "x + 1"})
    (sol,) = solve_exact(a, [[E("y"), EXPR_ZERO]])
    assert sol == [EXPR_ZERO, E("y/(x + 1)")]


def test_solve_multiple_columns():
    a = _skew_from_upper(2, {(0, 1): "1"})
    b = [[E("2*x"), EXPR_ZERO], [EXPR_ZERO, E("2*y")]]
    s0, s1 = solve_exact(a, b)
    assert s0 == [EXPR_ZERO, E("2*x")]
    assert s1 == [E("-2*y"), EXPR_ZERO]


def test_solve_residual_is_zero():
    a = _skew_from_upper(4, {(0, 1): "x", (0, 2): "y", (1, 3): "1", (2, 3): "x*y", (0, 3): "a"})
    b = [E("1"), E("x*y"), E("a"), EXPR_ZERO]
    (sol,) = solve_exact(a, [b])
    assert _residual_is_zero(a, sol, b)


def test_solve_singular_raises():
    a = _skew_from_upper(3, {(0, 1): "x", (0, 2): "x", (1, 2): "x"})
    with pytest.raises(SingularMatrixError):
        solve_exact(a, [[E("1"), EXPR_ZERO, EXPR_ZERO]])


def test_solve_matches_det_via_cramer():
    a = _skew_from_upper(4, {(0, 1): "x", (0, 2): "y", (1, 3): "1", (2, 3): "x*y"})
    b = [E("1"), EXPR_ZERO, E("y"), E("x")]
    (sol,) = solve_exact(a, [b])
    d = det_exact(a)
    for k in range(4):
        # Cramer: x_k * det(A) is the determinant of A with column k replaced by b
        replaced = [[b[i] if j == k else a[i][j] for j in range(4)] for i in range(4)]
        assert sol[k] * d == _det_rref(replaced)


@pytest.mark.parametrize(
    "m",
    [
        # a nonzero diagonal entry
        [[E("x"), E("y")], [E("-y"), EXPR_ZERO]],
        # entries that do not cancel
        [[EXPR_ZERO, E("y")], [E("y"), EXPR_ZERO]],
        # a zero entry opposite a nonzero one
        [[EXPR_ZERO, EXPR_ZERO], [E("x"), EXPR_ZERO]],
    ],
)
def test_non_skew_input_raises(m):
    with pytest.raises(ValueError, match="not skew"):
        det_exact(m)
    with pytest.raises(ValueError, match="not skew"):
        solve_exact(m, [[E("1"), EXPR_ZERO]])


def test_nullspace_known_kernel():
    rows = [[Fraction(1), Fraction(2), Fraction(3)]]
    basis = nullspace_fractions(rows)
    assert len(basis) == 2
    for v in basis:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0
    # canonical RREF basis: identity pattern on the free columns
    assert basis[0][1] == 1 and basis[0][2] == 0
    assert basis[1][1] == 0 and basis[1][2] == 1


def test_nullspace_full_rank_is_empty():
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert nullspace_fractions(rows) == []


def test_nullspace_vectors_annihilate():
    rows = [
        [Fraction(1), Fraction(1), Fraction(0), Fraction(-1)],
        [Fraction(0), Fraction(2), Fraction(2), Fraction(0)],
    ]
    basis = nullspace_fractions(rows)
    assert len(basis) == 2
    for v in basis:
        for row in rows:
            assert sum(c * x for c, x in zip(row, v)) == 0


def test_nullspace_empty_input():
    assert nullspace_fractions([]) == []


def test_number_helper_matches_parse():
    assert number(Fraction(3, 4)) == E("3/4")


# -- properties over small integer matrices ------------------------------------------


def _leibniz(m) -> Fraction:
    n = len(m)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def _rank(m) -> int:
    """Size of the largest nonzero minor."""
    rows, cols = len(m), len(m[0])
    for k in range(min(rows, cols), 0, -1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                if _leibniz([[m[i][j] for j in ci] for i in ri]) != 0:
                    return k
    return 0


_entries = st.integers(-3, 3)


@st.composite
def _matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return [[Fraction(draw(_entries)) for _ in range(cols)] for _ in range(rows)]


@st.composite
def _skew_matrices(draw):
    n = draw(st.integers(1, 5))
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        m[i][j] = Fraction(draw(_entries))
        m[j][i] = -m[i][j]
    return m


def _exprs(m):
    return [[number(v) for v in row] for row in m]


@settings(max_examples=80, deadline=None)
@given(_skew_matrices())
def test_det_matches_leibniz(m):
    assert det_exact(_exprs(m)) == number(_leibniz(m))


@settings(max_examples=80, deadline=None)
@given(_skew_matrices(), st.data())
def test_solve_satisfies_system_or_raises_when_singular(m, data):
    n = len(m)
    ncols = data.draw(st.integers(1, 2))
    b = [[Fraction(data.draw(_entries)) for _ in range(n)] for _ in range(ncols)]
    if _leibniz(m) == 0:
        with pytest.raises(SingularMatrixError):
            solve_exact(_exprs(m), _exprs(b))
        return
    sol = solve_exact(_exprs(m), _exprs(b))
    assert len(sol) == ncols
    assert all(_residual_is_zero(_exprs(m), x, rhs) for x, rhs in zip(sol, _exprs(b)))


@settings(max_examples=80, deadline=None)
@given(_matrices())
def test_nullspace_annihilates_and_has_full_dimension(m):
    basis = nullspace_fractions(m)
    ncols = len(m[0])
    assert len(basis) == ncols - _rank(m)
    for v in basis:
        assert len(v) == ncols
        for row in m:
            assert sum(c * x for c, x in zip(row, v)) == 0
    if basis:
        assert _rank([list(v) for v in basis]) == len(basis)


# -- the mod-p nullspace against the Fraction reduction --------------------------------

P = linalg._PRIME


def _nullspace_rref(rows: list, ncols: int) -> list:
    """nullspace_fractions by Gauss-Jordan over Fractions: the exact reference."""
    m = [list(r) for r in rows]
    pivots, _ = rref(m, ncols, lambda v: v == 0)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -m[ri][fc]
        basis.append(tuple(v))
    return basis


def _residues(rows):
    return [[v.numerator * pow(v.denominator, -1, P) % P for v in row] for row in rows]


@st.composite
def _sampled_like(draw):
    """A tall rank-deficient B*C with denominators 16-128, repeated rows and zero columns."""
    ncols = draw(st.integers(2, 8))
    k = draw(st.integers(1, ncols - 1))
    nrows = draw(st.integers(k, 12))
    frac = st.builds(Fraction, st.integers(-9, 9), st.integers(16, 128))
    b = [[draw(frac) for _ in range(k)] for _ in range(nrows)]
    c = [[draw(frac) for _ in range(ncols)] for _ in range(k)]
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in c:
            row[j] = Fraction(0)
    m = [[sum(b[i][t] * c[t][j] for t in range(k)) for j in range(ncols)] for i in range(nrows)]
    m += [list(m[i]) for i in draw(st.lists(st.integers(0, nrows - 1), max_size=4))]
    return m


@settings(max_examples=150, deadline=None)
@given(_sampled_like())
def test_nullspace_matches_fraction_rref(m):
    want = _nullspace_rref(m, len(m[0]))
    # rational reconstruction recovers n/d only with |n|, d <= isqrt(p // 2)
    bound = linalg._HALF
    assume(all(abs(q.numerator) <= bound and q.denominator <= bound for v in want for q in v))
    assert nullspace_fractions(m) == want
    assert nullspace_fractions(_residues(m)) == want


@pytest.mark.parametrize(
    "rows, expected",
    [
        # 40000 is past the reconstruction bound isqrt(p // 2) = 32767: dropped, not returned wrong
        ([[1, P - 40000]], []),
        # only the vector with the entry past the bound is dropped
        ([[1, P - 40000, 2]], [(Fraction(-2), Fraction(0), Fraction(1))]),
        # singular mod p only: the lift (1, 0) is not in the kernel over Q, and nothing checks it
        ([[P, 1], [0, 1]], [(Fraction(1), Fraction(0))]),
    ],
)
def test_nullspace_lifts_the_kernel_mod_p_unchecked(rows, expected):
    assert nullspace_fractions(rows) == expected


def test_nullspace_of_a_fraction_without_a_residue_raises():
    with pytest.raises(ValueError):
        nullspace_fractions([[Fraction(1, P), Fraction(1)]])


def _no_lift(a):
    raise AssertionError("a vector was lifted")


def test_nullspace_full_rank_mod_p_lifts_nothing(monkeypatch):
    monkeypatch.setattr(linalg, "_reconstruct", _no_lift)
    rows = [[Fraction(2), Fraction(1, 3)], [Fraction(1), Fraction(1)], [Fraction(3), Fraction(4, 3)]]
    assert nullspace_fractions(rows) == [] == _nullspace_rref(rows, 2)


def test_pipeline_systems_lift_every_vector(monkeypatch):
    # a nullspace that dropped vectors would still pass the parity tests above
    reductions, dropped = [], []
    rref_mod_p, reconstruct = linalg._rref_mod_p, linalg._reconstruct

    def counted(m, width):
        reductions.append(width)
        return rref_mod_p(m, width)

    def lifted(a):
        q = reconstruct(a)
        dropped.extend([a] if q is None else [])
        return q

    monkeypatch.setattr(linalg, "_rref_mod_p", counted)
    monkeypatch.setattr(linalg, "_reconstruct", lifted)
    systems = [load_fixture(name) for name in fixture_names()]
    systems += [load_system(p) for p in sorted((Path(__file__).parent / "systems").glob("*.psys"))]
    for sys_ in systems:
        if sys_.expect.jacobi_ok is not False:
            integrate_all(sys_.matrix)
    assert len(reductions) >= 10
    assert dropped == []


# -- the Pfaffian route for skew matrices against elimination --------------------------


# two symbols and low degrees: Gauss-Jordan over Expr, the reference here, can
# take minutes on a dense 4x4 block whose entries involve more symbols
_POLYS = ["x", "y", "x*y", "x - y", "y + 1", "x^2 + 1", "2", "-1"]
_DENS = ["x", "y + 1"]


@st.composite
def _skew(draw, rational: bool):
    """A skew Expr matrix, with rational-function entries if `rational`.

    Its indices are shuffled and split into blocks of at most 4, and only
    entries inside a block can be nonzero: block diagonal up to a
    permutation, each block dense or sparse.
    """
    sizes = draw(st.lists(st.integers(1, 4), max_size=3))
    n = sum(sizes)
    order = draw(st.permutations(range(n)))
    ends = list(itertools.accumulate(sizes))
    block_of = {i: k for k, end in enumerate(ends) for i in order[end - sizes[k] : end]}
    sparsity = draw(st.sampled_from([0.0, 0.0, 0.4]))
    m = [[EXPR_ZERO] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if block_of[i] != block_of[j] or draw(st.floats(0, 1)) < sparsity:
            continue
        e = E(draw(st.sampled_from(_POLYS))) * draw(st.sampled_from([1, 2, -3]))
        if rational and draw(st.booleans()):
            e = e / E(draw(st.sampled_from(_DENS)))
        m[i][j], m[j][i] = e, -e
    return m


@settings(max_examples=50, deadline=None)
@given(st.booleans().flatmap(_skew))
def test_skew_det_matches_elimination_and_pfaffian_squared(m):
    det = det_exact(m)
    assert det == _det_rref(m)
    pf = linalg._pfaffian(m, tuple(range(len(m))), {})
    assert det == pf * pf


@settings(max_examples=50, deadline=None)
@given(st.booleans().flatmap(_skew))
def test_pfaffian_adjugate_times_the_matrix_is_minus_pf(m):
    n = len(m)
    idx, memo = tuple(range(n)), {}
    pf = linalg._pfaffian(m, idx, memo)
    adj = linalg._adjugate(m, idx, memo)
    for k in range(n):
        assert all((adj[k][l] + adj[l][k]).is_zero() for l in range(n))
        for l in range(n):
            acc = EXPR_ZERO
            for t in range(n):
                acc = acc + m[k][t] * adj[t][l]
            assert acc == (-pf if k == l else EXPR_ZERO)


@settings(max_examples=50, deadline=None)
@given(st.booleans().flatmap(_skew), st.data())
def test_skew_solve_matches_elimination(m, data):
    n = len(m)
    b = [[E(data.draw(st.sampled_from(_POLYS + ["0"]))) for _ in range(n)] for _ in range(2)]
    if _det_rref(m).is_zero():
        with pytest.raises(SingularMatrixError):
            solve_exact(m, b)
        return
    assert solve_exact(m, b) == _rref_solve(m, b)


def test_skew_components_split_block_diagonal_patterns():
    x, y = E("x"), E("y")
    m = [
        [EXPR_ZERO, EXPR_ZERO, x, EXPR_ZERO],
        [EXPR_ZERO, EXPR_ZERO, EXPR_ZERO, y],
        [-x, EXPR_ZERO, EXPR_ZERO, EXPR_ZERO],
        [EXPR_ZERO, -y, EXPR_ZERO, EXPR_ZERO],
    ]
    assert linalg._skew_components(m) == [[0, 2], [1, 3]]
    assert det_exact(m) == E("x^2*y^2")
    # a matrix that is not skew has no components for the Pfaffian route
    m[2][0] = x
    with pytest.raises(ValueError, match=r"entries \(0, 2\) and \(2, 0\)"):
        linalg._skew_components(m)


def _with_regular_chain(m, pad):
    """m beside a regular chain component of pad rows, J[i][i+1] = x (Pfaffian x^(pad/2))."""
    n = len(m)
    upper = {(n + i, n + i + 1): "x" for i in range(pad - 1)}
    out = _skew_from_upper(n + pad, upper)
    for i in range(n):
        out[i][:n] = m[i]
    return out


@pytest.mark.parametrize("pad", [0, 14])
@pytest.mark.parametrize(
    "m",
    [
        # an odd component [0, 1, 2] next to a regular one [3, 4]
        _skew_from_upper(5, {(0, 1): "x", (0, 2): "y", (1, 2): "x*y", (3, 4): "x"}),
        # one even component whose Pfaffian x*y - x*y cancels
        _skew_from_upper(4, {(0, 1): "x", (2, 3): "y", (0, 2): "x", (1, 3): "y"}),
    ],
)
def test_singular_skew_solve_raises(m, pad):
    # a regular 14-row component beside the singular one must not hide it
    m = _with_regular_chain(m, pad)
    b = [[E("1")] + [EXPR_ZERO] * (len(m) - 1)]
    assert det_exact(m).is_zero()
    with pytest.raises(SingularMatrixError):
        solve_exact(m, b)


class _Deadline(BaseException):
    """Raised by SIGALRM; a BaseException, so no handler inside casinv swallows it."""


def _expire(signum, frame):
    raise _Deadline("still running after 30 s")


def _lotka_volterra_block(n: int, seed: int) -> list:
    """The skew block a_ij*x_i*x_j with A = U S U^T, U random in [-2, 2], S symplectic."""
    rng = random.Random(seed)
    u = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    # (U S U^T)[i][j] with S = diag([[0, 1], [-1, 0]], ...)
    a = [
        [sum(ui[k] * uj[k + 1] - ui[k + 1] * uj[k] for k in range(0, n, 2)) for uj in u]
        for ui in u
    ]
    xs = [symbol(f"x{i}") for i in range(n)]
    return [[number(a[i][j]) * xs[i] * xs[j] for j in range(n)] for i in range(n)]


def test_dense_16_row_component_matches_elimination():
    # one component of 16 rows, 228 of its 240 off-diagonal entries nonzero
    m = _lotka_volterra_block(16, seed=1)
    assert linalg._skew_components(m) == [list(range(16))]
    b = [[symbol(f"x{i}") if i % 3 else number(i - 5) for i in range(16)], [EXPR_ONE] * 16]
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(30)
    try:
        det = det_exact(m)
        assert not det.is_zero()
        assert det == _det_rref(m)
        sol = solve_exact(m, b)
        assert all(_residual_is_zero(m, x, rhs) for x, rhs in zip(sol, b))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_solve_reuses_the_determinant_components(monkeypatch):
    # with det_exact's memo, solve_exact splits the matrix by the components
    # det_exact found and tests no slot for zero again
    m = _skew_from_upper(4, {(0, 2): "x", (1, 3): "y"})
    b = [[E("1"), E("x"), EXPR_ZERO, E("y")]]
    scans = []
    components = linalg._skew_components
    monkeypatch.setattr(linalg, "_skew_components", lambda a: scans.append(a) or components(a))
    memo = {}
    det_exact(m, memo)
    assert solve_exact(m, b, memo) == solve_exact(m, b)
    assert len(scans) == 2  # det_exact's, and the memo-less solve's


def test_dense_16_row_solve_reuses_the_determinant_pfaffians(monkeypatch):
    # solve_gamma solves A X = -B on the pivot block that decompose's det_exact expanded,
    # with its memo: the whole-block Pfaffian is expanded once for both
    m = _lotka_volterra_block(16, seed=1)
    b = [[symbol(f"x{i}") if i % 3 else number(i - 5) for i in range(16)], [EXPR_ONE] * 16]
    whole = tuple(range(16))
    expanded = []
    pfaffian = linalg._pfaffian

    def counting(a, idx, memo):
        if idx == whole and idx not in memo:
            expanded.append(idx)
        return pfaffian(a, idx, memo)

    monkeypatch.setattr(linalg, "_pfaffian", counting)
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(30)
    try:
        memo = {}
        det = det_exact(m, memo)
        sol = solve_exact(m, [[-e for e in col] for col in b], memo)
        assert len(expanded) == 1
        assert det == _det_rref(m)
        transposed = [list(col) for col in zip(*m)]
        assert sol == _rref_solve(transposed, b)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
