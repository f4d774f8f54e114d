"""Invariant extraction: integrating factors, potentials, form combinations.

The bundled systems carry their reference invariants, so the checks here
are sharp: literal equality where the normalized output is pinned down,
gradient parallelism where only the level sets are.
"""

import dataclasses
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from casinv import integrate, linalg
from casinv.expr import (
    EXPR_ONE,
    EXPR_ZERO,
    Domain,
    VariableSet,
    _involves,
    differentiate,
    free_symbols,
    number,
    parse,
    random_point,
    random_rational,
    residue,
)
from casinv.fixtures import fixture_names, load_fixture
from casinv.integrate import (
    CasimirResult,
    IntegrationError,
    NonElementaryError,
    antiderivative,
    exactness_defects,
    find_eta,
    integrate_all,
    integrate_closed,
    normalize_invariant,
)
from casinv.matrix import StructureMatrix
from casinv.poly import _PRIME
from casinv.sysfile import load_system
from casinv.verify import gradient_rank
from gradients import gradients_parallel

VS = VariableSet(("x", "y", "z"), ("a",))


def E(text: str):
    return parse(text, VS)


# -- antiderivatives -------------------------------------------------------------


def test_antiderivative_polynomial():
    g = E("3*x^2 + 2*x*y + a")
    F = antiderivative(g, "x", VS)
    assert (differentiate(F, "x", VS) - g).is_zero()
    assert F == E("x^3 + x^2*y + a*x")


def test_antiderivative_reciprocal_gives_ln():
    F = antiderivative(E("1/x"), "x", VS)
    assert F == E("ln(x)")


def test_antiderivative_monomial_denominator():
    g = E("(x^2 + y)/(x^2*y)")
    F = antiderivative(g, "x", VS)
    assert (differentiate(F, "x", VS) - g).is_zero()


def test_antiderivative_linear_denominator():
    g = E("1/(x + y)")
    assert antiderivative(g, "x", VS) == E("ln(x + y)")


def test_antiderivative_linear_denominator_with_division():
    g = E("x^2/(x + 1)")
    F = antiderivative(g, "x", VS)
    assert (differentiate(F, "x", VS) - g).is_zero()
    assert F == E("1/2*x^2 - x + ln(x + 1)")


def test_antiderivative_parameter_coefficient_linear():
    g = E("y/(a*x + y)")
    F = antiderivative(g, "x", VS)
    assert (differentiate(F, "x", VS) - g).is_zero()


def test_antiderivative_quadratic_denominator_rejected():
    with pytest.raises(NonElementaryError):
        antiderivative(E("1/(x^2 + y)"), "x", VS)


def test_antiderivative_ln_of_variable_rejected():
    with pytest.raises(NonElementaryError):
        antiderivative(E("ln(x)"), "x", VS)


def test_antiderivative_ln_of_other_variable_is_constant():
    F = antiderivative(E("ln(y)"), "x", VS)
    assert F == E("x*ln(y)")


# -- closed forms and defects -----------------------------------------------------


def test_exact_form_has_zero_defects():
    # d(x*y + z^2) = y dx + x dy + 2z dz
    coeffs = (E("y"), E("x"), E("2*z"))
    assert all(d.is_zero() for d in exactness_defects(coeffs, VS).values())


def dense_defects(coeffs, symbols):
    """Reference: the defect of every pair a < b, zero or not."""
    names = symbols.variables
    return {
        (a, b): differentiate(coeffs[b], names[a], symbols)
        - differentiate(coeffs[a], names[b], symbols)
        for a, b in itertools.combinations(range(len(names)), 2)
    }


def test_active_variables_reach_into_ln_arguments():
    coeffs = (E("ln(z)*a"), E("0"), E("0"))
    names = VS.variables
    reference = [v for v in names if any(_involves(c, v) for c in coeffs)]
    assert integrate._active(coeffs, names) == (reference, [0, 2]) == (["z"], [0, 2])


def test_defect_keys_are_the_active_pairs():
    # z has a zero coefficient and no coefficient involves it
    coeffs = (E("y"), E("0"), E("0"))
    d = exactness_defects(coeffs, VS)
    assert sorted(d) == [(0, 1)]
    assert d[(0, 1)] == E("-1")


@st.composite
def forms(draw):
    """1-forms in 3-5 variables: zero, polynomial and quotient coefficients."""
    n = draw(st.integers(3, 5))
    vs = VariableSet(tuple(f"x{t + 1}" for t in range(n)), ())
    var = st.integers(1, n).map(lambda v: f"x{v}")
    monomial = st.tuples(st.sampled_from([-2, 1, 3]), st.lists(var, max_size=2))
    poly_text = st.lists(monomial, min_size=1, max_size=2).map(
        lambda terms: " + ".join(f"({c})" + "".join(f"*{v}" for v in fs) for c, fs in terms)
    )
    quotient = st.tuples(poly_text, var, st.integers(1, 3)).map(
        lambda t: f"({t[0]})/({t[1]} + {t[2]})"
    )
    texts = draw(st.lists(st.one_of(st.just("0"), poly_text, quotient), min_size=n, max_size=n))
    return tuple(parse(t, vs) for t in texts), vs


@settings(max_examples=60, deadline=None)
@given(forms())
def test_sparse_defects_match_dense_reference(form):
    coeffs, vs = form
    names = vs.variables
    involved = set().union(*(free_symbols(c) for c in coeffs))
    active = [a for a, v in enumerate(names) if v in involved or not coeffs[a].is_zero()]
    sparse = exactness_defects(coeffs, vs)
    dense = dense_defects(coeffs, vs)
    assert list(sparse) == list(itertools.combinations(active, 2))
    for ab, d in dense.items():
        assert sparse.get(ab, EXPR_ZERO) == d, ab


def test_integrate_closed_recovers_potential():
    # gradient of x*y + y*ln(x) + z^2
    coeffs = (E("y + y/x"), E("x + ln(x)"), E("2*z"))
    C = integrate_closed(coeffs, VS)
    for idx, v in enumerate(VS.variables):
        assert (differentiate(C, v, VS) - coeffs[idx]).is_zero()


def test_integrate_closed_rejects_open_form():
    with pytest.raises(NonElementaryError):
        integrate_closed((E("y"), E("-x"), EXPR_ZERO), VS)


# -- integrating factor search -----------------------------------------------------


def assert_potential(factor, coeffs, vs):
    """The factor's potential is exact: dC = eta * w, term by term."""
    for v, c in zip(vs.variables, coeffs):
        assert differentiate(factor.potential, v, vs) == factor.expr * c, v


def test_eta_not_needed_for_closed_form():
    coeffs = (E("y"), E("x"), E("0"))
    factor = find_eta(coeffs, VS)
    assert factor is not None
    assert factor.provenance == "not-needed"
    assert factor.expr == EXPR_ONE
    assert_potential(factor, coeffs, VS)


def test_eta_from_coefficient_factors():
    # x dx + z dy + ... no; use the classic: (x/z) dx + (y/z) dy + dz
    coeffs = (E("x/z"), E("y/z"), EXPR_ONE)
    factor = find_eta(coeffs, VS)
    assert factor is not None
    assert factor.provenance == "reciprocal-coefficient"
    assert factor.expr == E("z")
    scaled = [factor.expr * c for c in coeffs]
    assert all(d.is_zero() for d in exactness_defects(scaled, VS).values())
    assert_potential(factor, coeffs, VS)


def test_eta_none_when_form_is_not_integrable():
    # y dx - x dy + dz has w ^ dw != 0: no integrating factor exists
    factor = find_eta((E("y"), E("-x"), EXPR_ONE), VS)
    assert factor is None


def test_eta_from_variable_monomial_search():
    # c (dx1 + dx2 + dx3) with c = 1/(x1*x2*x3): no product of one or two
    # coefficient factors closes it, the monomial x1*x2*x3 does
    vs = VariableSet(("x1", "x2", "x3"))
    c = parse("1/(x1*x2*x3)", vs)
    factor = find_eta((c, c, c), vs)
    assert factor is not None
    assert factor.provenance == "monomial-search"
    assert factor.expr == parse("x1*x2*x3", vs)
    assert_potential(factor, (c, c, c), vs)


def test_eta_exponent_is_solved_not_enumerated():
    # (x dx + y dy + dz)/z^3 needs z^3, a power no fixed exponent range covers
    coeffs = (E("x/z^3"), E("y/z^3"), E("1/z^3"))
    factor = find_eta(coeffs, VS)
    assert factor is not None
    assert factor.expr == E("z^3")
    assert_potential(factor, coeffs, VS)


def test_eta_without_supported_potential_is_refused():
    # eta = 1/z closes the form, but its potential -1/(x^2 + y) needs an
    # antiderivative in x through a denominator mixing x-powers
    coeffs = (E("2*x*z/(x^2 + y)^2"), E("z/(x^2 + y)^2"), EXPR_ZERO)
    assert find_eta(coeffs, VS) is None


def test_eta_search_is_deterministic():
    coeffs = (E("x/z"), E("y/z"), EXPR_ONE)
    a = find_eta(coeffs, VS, seed=7)
    b = find_eta(coeffs, VS, seed=7)
    assert a == b
    assert_potential(a, coeffs, VS)


# -- normalization ------------------------------------------------------------------


def test_normalize_drops_parameter_denominator():
    e = E("(x + y)/a")
    assert normalize_invariant(e, VS) == E("x + y")


def test_normalize_scales_leading_coefficient():
    e = E("1/2*x^2 + 1/2*y^2")
    assert normalize_invariant(e, VS) == E("x^2 + y^2")


def test_normalize_keeps_variable_denominator():
    e = E("(x^2 + y)/z")
    assert normalize_invariant(e, VS) == e


# -- full pipeline on the bundled systems --------------------------------------------


def _invariants(name: str):
    sys_ = load_fixture(name)
    return sys_, integrate_all(sys_.matrix)


def test_lv3_j1_casimir_literal():
    sys_, result = _invariants("lv3-j1")
    assert result.target == 1
    (c,) = result.casimirs
    expected, _ = sys_.expect.casimirs[1]
    assert c.expr == expected
    assert c.provenance == "reciprocal-coefficient"
    assert c.eta == parse("1/x3", sys_.symbols)
    assert c.rows == (3,)


def test_lv3_j2_casimir_parallel_to_reference():
    sys_, result = _invariants("lv3-j2")
    (c,) = result.casimirs
    expected, _ = sys_.expect.casimirs[1]
    assert gradients_parallel(c.expr, expected, sys_.symbols, sys_.matrix.domain)
    assert c.provenance == "not-needed"
    assert c.eta == EXPR_ONE


def test_so3_casimir_is_the_sphere():
    sys_, result = _invariants("so3")
    (c,) = result.casimirs
    expected, _ = sys_.expect.casimirs[1]
    assert c.expr == expected
    assert c.eta == parse("x3", sys_.symbols)


def test_light_top_finds_both_invariants():
    sys_, result = _invariants("light-top")
    assert result.target == 2
    exprs = {c.expr for c in result.casimirs}
    for expected, _tag in sys_.expect.casimirs.values():
        assert expected in exprs


def test_light_top_combination_multipliers():
    sys_, result = _invariants("light-top")
    combo = next(c for c in result.casimirs if c.provenance == "form-combination")
    assert combo.rows == (3, 6)
    mults = dict(combo.multipliers)
    assert mults[3] == parse("F3", sys_.symbols)
    assert mults[6] == parse("M3", sys_.symbols)
    single = next(c for c in result.casimirs if c.provenance != "form-combination")
    assert single.eta == parse("F3", sys_.symbols)


def test_parameter_free_lotka_volterra_eta():
    # x1*x3 is a Casimir, so x1^k * x3^(k-1) closes the form for every k:
    # the search must still settle on the coefficient reciprocal 1/x3
    vs = VariableSet(("x1", "x2", "x3"))
    upper = {(1, 2): parse("-x1*x2", vs), (2, 3): parse("-x2*x3", vs)}
    result = integrate_all(StructureMatrix.from_upper(vs, upper))
    (c,) = result.casimirs
    assert c.provenance == "reciprocal-coefficient"
    assert c.eta == parse("1/x3", vs)


def test_full_rank_system_has_no_invariants():
    _, result = _invariants("symplectic2")
    assert result.target == 0
    assert result.casimirs == ()


def test_corrupt_system_raises_integration_error():
    sys_ = load_fixture("lv3-j1-corrupt")
    with pytest.raises(IntegrationError):
        integrate_all(sys_.matrix)


def test_null_matrix_every_coordinate_is_invariant():
    vs = VariableSet(("u", "v"), ())
    rows = ((EXPR_ZERO, EXPR_ZERO), (EXPR_ZERO, EXPR_ZERO))
    mat = StructureMatrix(vs, rows, Domain(), "null")
    result = integrate_all(mat)
    assert result.target == 2
    assert [c.expr for c in result.casimirs] == [parse("u", vs), parse("v", vs)]
    assert all(c.provenance == "not-needed" for c in result.casimirs)


def test_integrate_all_deterministic():
    sys_ = load_fixture("light-top")
    a = integrate_all(sys_.matrix, seed=5)
    b = integrate_all(sys_.matrix, seed=5)
    assert [str(c.expr) for c in a.casimirs] == [str(c.expr) for c in b.casimirs]
    assert a.notes == b.notes


# -- closedness rows mod p -----------------------------------------------------------


def _exact_value(e, point: dict, rng) -> Fraction:
    """Reference: e's exact value; a missing ln atom draws random_rational, term by term."""

    def value(p):
        total = Fraction(0)
        for m, c in p.terms.items():
            for a, k in m:
                if a not in point:
                    point[a] = random_rational(rng)
                c = c * point[a] ** k
            total += c
        return total

    return value(e.num) / value(e.den)


_leaves = st.one_of(
    st.sampled_from(["x", "y", "z", "a", "ln(x)", "ln(x + y)", "ln(a*z)"]).map(E),
    st.fractions(min_value=-5, max_value=5, max_denominator=4).map(number),
)
_exprs = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda t: t[0] + t[1]),
        st.tuples(kids, kids).map(lambda t: t[0] * t[1]),
        st.tuples(kids, kids.filter(lambda e: not e.is_zero())).map(lambda t: t[0] / t[1]),
        st.tuples(kids, st.integers(-2, 3)).filter(lambda t: not t[0].is_zero()).map(
            lambda t: t[0] ** t[1]
        ),
    ),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(_exprs, st.integers(0, 2**32), st.sampled_from([None, "+", "-"]))
def test_residue_is_the_exact_value_mod_p(e, seed, sign):
    dom = Domain({"y": sign} if sign else {})
    exact_rng, residue_rng = random.Random(seed), random.Random(seed)
    exact = random_point(VS, dom, exact_rng)
    point = random_point(VS, dom, residue_rng, exact=_PRIME)
    try:
        want = _exact_value(e, exact, exact_rng)
    except ZeroDivisionError:
        assume(False)
    got = residue(e, point, residue_rng)
    assert got == want.numerator * pow(want.denominator, -1, _PRIME) % _PRIME
    # the ln atoms took the same draws, so the rng streams stay in step
    assert residue_rng.getstate() == exact_rng.getstate()


def test_sampled_rows_build_no_fraction(monkeypatch):
    built = []
    new = Fraction.__new__
    sampled_rows = integrate._sampled_rows

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    def traced(*args):
        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", counting)
            rows = sampled_rows(*args)
        traced.rows += len(rows or ())
        return rows

    traced.rows = 0
    monkeypatch.setattr(integrate, "_sampled_rows", traced)
    for name in fixture_names():
        sys_ = load_fixture(name)
        if sys_.expect.jacobi_ok is not False:
            integrate_all(sys_.matrix)
    assert traced.rows > 100
    assert built == []


# -- independence ------------------------------------------------------------------


def _exact_greedy(rows) -> list:
    """Reference: indices of the rows that raise the exact rank of those kept before."""
    kept = []
    for i, row in enumerate(rows):
        trial = [list(rows[k]) for k in kept] + [list(row)]
        pivots, _ = linalg._rref(trial, len(row), lambda v: v == 0)
        if len(pivots) == len(trial):
            kept.append(i)
    return kept


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_small_rows = st.integers(1, 4).flatmap(
    lambda w: st.lists(st.lists(_small, min_size=w, max_size=w), max_size=6)
)


@settings(max_examples=200, deadline=None)
@given(_small_rows)
def test_mod_p_reduction_keeps_the_exact_greedy_rows(rows):
    # scaled to integers, the entries are at most 18 and every minor is at
    # most 4x4, so below p by Hadamard's bound: dependence mod p is exact here
    basis = []
    residues = [[residue(number(v), {}) for v in row] for row in rows]
    kept = [i for i, row in enumerate(residues) if integrate._joins(basis, row)]
    assert kept == _exact_greedy(rows)


def _light_top_candidates():
    sys_ = load_fixture("light-top")
    single, combo = integrate_all(sys_.matrix).casimirs
    assert single.rows == (6,) and combo.rows == (3, 6)
    return sys_, single, combo


def _no_vote(*args, **kwargs):
    raise AssertionError("the gradient vote was called")


def test_dependent_candidates_are_dropped_without_a_vote(monkeypatch):
    monkeypatch.setattr(integrate, "gradient_rank", _no_vote)
    sys_, single, combo = _light_top_candidates()
    mults = dict(combo.multipliers)
    summed = dataclasses.replace(
        combo,
        expr=combo.expr + single.expr,
        multipliers=((3, mults[3]), (6, mults[6] + single.eta)),
    )
    scaled = dataclasses.replace(
        combo, multipliers=tuple((r, m * number(-2)) for r, m in combo.multipliers)
    )
    candidates = [single, single, combo, summed, scaled]
    kept = integrate._independent(candidates, 3, (3, 6), sys_.symbols, sys_.matrix.domain, 0)
    assert kept == [single, combo]


@pytest.mark.parametrize("factor", ["ln(F3)", f"1/{_PRIME}"])
def test_multiplier_without_a_residue_is_decided_by_the_vote(monkeypatch, factor):
    votes = []

    def vote(exprs, *args, **kwargs):
        votes.append(len(exprs))
        return gradient_rank(exprs, *args, **kwargs)

    monkeypatch.setattr(integrate, "gradient_rank", vote)
    sys_, single, combo = _light_top_candidates()
    odd = dataclasses.replace(single, eta=single.eta * parse(factor, sys_.symbols))
    # the vote decides the odd candidate and every one after it
    candidates = [odd, single, combo]
    kept = integrate._independent(candidates, 2, (3, 6), sys_.symbols, sys_.matrix.domain, 0)
    assert kept == [odd, combo]
    assert votes == [1, 2, 2]


def _ln_free(c: CasimirResult) -> bool:
    mults = [c.eta] if c.eta is not None else [m for _, m in c.multipliers]
    return all(isinstance(a, str) for m in mults for p in (m.num, m.den) for a in p.atoms())


def test_golden_systems_never_vote(monkeypatch):
    votes = []
    monkeypatch.setattr(integrate, "gradient_rank", lambda *a, **k: votes.append(a) or 0)
    systems = [load_fixture(name) for name in fixture_names()]
    systems += [load_system(p) for p in sorted((Path(__file__).parent / "systems").glob("*.psys"))]
    proved = 0
    for sys_ in systems:
        if sys_.expect.jacobi_ok is False:
            continue
        votes.clear()
        result = integrate_all(sys_.matrix)
        if all(_ln_free(c) for c in result.casimirs):
            assert votes == [], sys_.name
            proved += len(result.casimirs)
        # and the sampled vote agrees that the kept invariants are independent
        exprs = [c.expr for c in result.casimirs]
        assert gradient_rank(exprs, sys_.symbols, sys_.matrix.domain) == len(exprs), sys_.name
    assert proved >= 20
