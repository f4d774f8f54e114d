"""Invariant extraction: integrating factors, potentials, form combinations.

The bundled systems carry their reference invariants, so the checks here
are sharp: literal equality where the normalized output is pinned down,
gradient parallelism where only the level sets are.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from casinv.expr import (
    EXPR_ONE,
    EXPR_ZERO,
    Domain,
    VariableSet,
    differentiate,
    free_symbols,
    parse,
)
from casinv.fixtures import load_fixture
from casinv.integrate import (
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
from casinv.verify import gradients_parallel

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
