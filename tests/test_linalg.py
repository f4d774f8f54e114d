"""Exact elimination: determinants, linear solves, rational nullspaces."""

import itertools
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from casinv import linalg
from casinv.expr import EXPR_ONE, EXPR_ZERO, VariableSet, number, parse
from casinv.fixtures import fixture_names, load_fixture
from casinv.integrate import integrate_all
from casinv.linalg import (
    SingularMatrixError,
    det_exact,
    nullspace_fractions,
    solve_exact,
)
from casinv.sysfile import load_system

VS = VariableSet(("x", "y", "z"), ("a",))


def E(text: str):
    return parse(text, VS)


def test_det_2x2():
    m = [[E("x"), E("y")], [E("1"), E("x")]]
    assert det_exact(m) == E("x^2 - y")


def test_det_needs_row_swap():
    m = [[EXPR_ZERO, E("y")], [E("x"), EXPR_ZERO]]
    assert det_exact(m) == E("-x*y")


def test_det_singular_is_zero():
    m = [[E("x"), E("y")], [E("2*x"), E("2*y")]]
    assert det_exact(m).is_zero()


def test_det_3x3_symbolic():
    m = [
        [E("x"), E("y"), E("0")],
        [E("-y"), E("x"), E("z")],
        [E("0"), E("-z"), E("x")],
    ]
    assert det_exact(m) == E("x^3 + x*y^2 + x*z^2")


def test_det_empty_matrix_is_one():
    assert det_exact([]) == EXPR_ONE


def test_det_rational_entries():
    m = [[E("x/y"), E("1")], [E("1"), E("y/x")]]
    assert det_exact(m).is_zero()


def test_solve_simple():
    a = [[E("2"), E("0")], [E("0"), E("4")]]
    b = [[E("x"), E("y")]]
    (sol,) = solve_exact(a, b)
    assert sol[0] == E("x/2")
    assert sol[1] == E("y/4")


def test_solve_symbolic_coefficients():
    # x * u + v = y,  u - v = 0  =>  u = v = y/(x + 1)
    a = [[E("x"), E("1")], [E("1"), E("-1")]]
    b = [[E("y"), E("0")]]
    (sol,) = solve_exact(a, b)
    expected = E("y/(x + 1)")
    assert sol[0] == expected
    assert sol[1] == expected


def test_solve_multiple_columns():
    a = [[E("1"), E("1")], [E("1"), E("-1")]]
    b = [[E("2*x"), E("0")], [E("0"), E("2*y")]]
    s0, s1 = solve_exact(a, b)
    assert s0 == [E("x"), E("x")]
    assert s1 == [E("y"), E("-y")]


def test_solve_residual_is_zero():
    a = [[E("x"), E("y"), E("1")], [E("0"), E("x"), E("y")], [E("1"), E("0"), E("x")]]
    b = [[E("1"), E("x*y"), E("a")]]
    (sol,) = solve_exact(a, b)
    for i in range(3):
        acc = EXPR_ZERO
        for j in range(3):
            acc = acc + a[i][j] * sol[j]
        assert (acc - b[0][i]).is_zero()


def test_solve_singular_raises():
    a = [[E("x"), E("x")], [E("x"), E("x")]]
    with pytest.raises(SingularMatrixError):
        solve_exact(a, [[E("1"), E("0")]])


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


def test_solve_matches_det_via_cramer():
    a = [[E("x"), E("1")], [E("y"), E("x")]]
    b = [[E("1"), E("0")]]
    (sol,) = solve_exact(a, b)
    d = det_exact(a)
    assert (sol[0] * d - E("x")).is_zero()
    assert (sol[1] * d - E("-y")).is_zero()


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
def _matrices(draw, square=True):
    rows = draw(st.integers(1, 4))
    cols = rows if square else draw(st.integers(1, 4))
    return [[Fraction(draw(_entries)) for _ in range(cols)] for _ in range(rows)]


def _exprs(m):
    return [[number(v) for v in row] for row in m]


@settings(max_examples=80, deadline=None)
@given(_matrices())
def test_det_matches_leibniz(m):
    assert det_exact(_exprs(m)) == number(_leibniz(m))


@settings(max_examples=80, deadline=None)
@given(_matrices(), st.data())
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
    for x, rhs in zip(sol, b):
        for i in range(n):
            acc = EXPR_ZERO
            for j in range(n):
                acc = acc + number(m[i][j]) * x[j]
            assert acc == number(rhs[i])


@settings(max_examples=80, deadline=None)
@given(_matrices(square=False))
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
    pivots, _ = linalg._rref(m, ncols, lambda v: v == 0)
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


def _rref_solve(a, b):
    """solve_exact by Gauss-Jordan over the whole matrix: the reference."""
    n = len(a)
    m = [list(a[i]) + [col[i] for col in b] for i in range(n)]
    pivots, _ = linalg._rref(m, n, lambda e: e.is_zero())
    assert len(pivots) == n
    return [[m[i][n + j] for i in range(n)] for j in range(len(b))]


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
@given(st.booleans().flatmap(_skew), st.sampled_from([0, 2, 4, linalg._PFAFFIAN_MAX]))
def test_skew_det_matches_elimination_and_pfaffian_squared(m, switch):
    # a switch below a component's size sends that component to elimination
    with mock.patch.object(linalg, "_PFAFFIAN_MAX", switch):
        det = det_exact(m)
    assert det == linalg._det_rref(m)
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
@given(st.booleans().flatmap(_skew), st.sampled_from([0, 2, 4, linalg._PFAFFIAN_MAX]), st.data())
def test_skew_solve_matches_elimination(m, switch, data):
    n = len(m)
    b = [[E(data.draw(st.sampled_from(_POLYS + ["0"]))) for _ in range(n)] for _ in range(2)]
    with mock.patch.object(linalg, "_PFAFFIAN_MAX", switch):
        if linalg._det_rref(m).is_zero():
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
    assert linalg._skew_components(m) is None


def test_switch_sends_only_the_large_components_to_elimination():
    x, y = E("x"), E("y")
    z = EXPR_ZERO
    # components [0, 1, 2, 3] (4 rows) and [4, 5] (2 rows)
    m = [
        [z, x, z, y, z, z],
        [-x, z, y, z, z, z],
        [z, -y, z, x, z, z],
        [-y, z, -x, z, z, z],
        [z, z, z, z, z, x * y],
        [z, z, z, z, -x * y, z],
    ]
    b = [[E("1"), z, z, E("x"), E("y"), E("1")]]
    reference = _rref_solve(m, b)
    calls = []
    rref = linalg._rref

    def spy(a, width, is_zero):
        calls.append(width)
        return rref(a, width, is_zero)

    with mock.patch.object(linalg, "_PFAFFIAN_MAX", 2), mock.patch.object(linalg, "_rref", spy):
        assert det_exact(m) == linalg._det_rref(m)
        calls.clear()
        assert solve_exact(m, b) == reference
    assert calls == [4]


def _skew_from_upper(n, upper):
    m = [[EXPR_ZERO] * n for _ in range(n)]
    for (i, j), e in upper.items():
        m[i][j], m[j][i] = E(e), -E(e)
    return m


@pytest.mark.parametrize("switch", [0, linalg._PFAFFIAN_MAX])
@pytest.mark.parametrize(
    "m",
    [
        # an odd component [0, 1, 2] next to a regular one [3, 4]
        _skew_from_upper(5, {(0, 1): "x", (0, 2): "y", (1, 2): "x*y", (3, 4): "x"}),
        # one even component whose Pfaffian x*y - x*y cancels
        _skew_from_upper(4, {(0, 1): "x", (2, 3): "y", (0, 2): "x", (1, 3): "y"}),
    ],
)
def test_singular_skew_solve_raises(m, switch):
    b = [[E("1")] + [EXPR_ZERO] * (len(m) - 1)]
    with mock.patch.object(linalg, "_PFAFFIAN_MAX", switch):
        assert det_exact(m).is_zero()
        with pytest.raises(SingularMatrixError):
            solve_exact(m, b)
