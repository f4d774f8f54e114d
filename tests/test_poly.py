"""Polynomial substrate: ordering, arithmetic, exact division, gcd."""

import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from casinv import expr
from casinv.expr import Ln, VariableSet, parse
from casinv.fixtures import fixture_names, load_fixture
from casinv.integrate import integrate_all
from casinv.poly import (
    _PRIME,
    Poly,
    _gcd_prs,
    atom_key,
    certify_coprime,
    div_exact,
    gcd,
    int_primitive,
    mono_content,
    mono_mul,
    mono_order_key,
    quo,
)
from casinv.sysfile import load_system
from gradients import mono_degree

SYSTEMS = sorted((Path(__file__).parent / "systems").glob("*.psys"))


def P(**exps) -> tuple:
    return tuple(sorted((a, e) for a, e in exps.items() if e))


def mono_cmp(m1, m2):
    """Reference graded-lex comparison, written out atom by atom; returns -1, 0 or 1."""
    d1, d2 = mono_degree(m1), mono_degree(m2)
    if d1 != d2:
        return 1 if d1 > d2 else -1
    i = j = 0
    while i < len(m1) or j < len(m2):
        if i < len(m1) and j < len(m2):
            a1, e1 = m1[i]
            a2, e2 = m2[j]
            k1, k2 = atom_key(a1), atom_key(a2)
            if k1 == k2:
                if e1 != e2:
                    return 1 if e1 > e2 else -1
                i += 1
                j += 1
            elif k1 < k2:
                return 1  # m1 carries an earlier atom that m2 lacks
            else:
                return -1
        elif i < len(m1):
            return 1
        else:
            return -1
    return 0


X = Poly.atom("x")
Y = Poly.atom("y")
Z = Poly.atom("z")
ONE = Poly.one()


_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(lambda c: c != 0)


@st.composite
def polys(draw, max_terms=4, max_exp=3):
    items = draw(
        st.lists(
            st.tuples(st.integers(0, max_exp), st.integers(0, max_exp), _coeffs),
            max_size=max_terms,
        )
    )
    terms: dict = {}
    for ex, ey, c in items:
        m = P(x=ex, y=ey)
        terms[m] = terms.get(m, Fraction(0)) + c
    return Poly(terms)


# -- monomial order ---------------------------------------------------------


def test_order_is_graded_first():
    assert mono_cmp(P(y=2), P(x=1)) > 0
    assert mono_cmp(P(x=1), P()) > 0
    assert mono_cmp(P(x=1, y=1), P(x=2)) < 0  # same degree, x^2 has more of the smaller atom


def test_order_ties_broken_on_earliest_atom():
    # same degree: walk atoms ascending, larger exponent on the first
    # differing atom wins
    assert mono_cmp(P(x=2), P(x=1, y=1)) > 0
    assert mono_cmp(P(x=1, z=1), P(x=1, y=1)) < 0  # y-mono carries the earlier atom


def test_order_is_multiplicative():
    rng = random.Random(7)
    pool = [P(x=a, y=b, z=c) for a in range(3) for b in range(3) for c in range(3)]
    for _ in range(300):
        m1, m2, m3 = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        c = mono_cmp(m1, m2)
        assert mono_cmp(mono_mul(m1, m3), mono_mul(m2, m3)) == c


# string atoms and ln atoms, in atom_key order
_VS = VariableSet(("x", "y"))
ATOMS = sorted(["x", "y", Ln(parse("x", _VS)), Ln(parse("x + y", _VS))], key=atom_key)


@st.composite
def monos(draw, max_exp=3):
    exps = draw(st.lists(st.integers(0, max_exp), min_size=len(ATOMS), max_size=len(ATOMS)))
    return tuple((a, e) for a, e in zip(ATOMS, exps) if e)


@st.composite
def ln_polys(draw, max_terms=4, max_exp=2):
    terms: dict = {}
    for m, c in draw(st.lists(st.tuples(monos(max_exp), _coeffs), max_size=max_terms)):
        terms[m] = terms.get(m, 0) + c
    return Poly(terms)


@settings(max_examples=300, deadline=None)
@given(monos(), monos())
def test_order_key_matches_the_reference_comparison(m1, m2):
    # the leading monomial has the smallest key
    k1, k2 = mono_order_key(m1), mono_order_key(m2)
    assert mono_cmp(m1, m2) == (k1 < k2) - (k1 > k2)


def test_leading_term():
    f = X + Y * Y
    assert f.leading() == (P(y=2), Fraction(1))
    g = X + Y
    assert g.leading() == (P(x=1), Fraction(1))


# -- ring arithmetic --------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_mul_distributes_over_add(f, g, h):
    assert (f + g) * h == f * h + g * h


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_mul_commutes(f, g):
    assert f * g == g * f


def test_pow():
    f = X + Y
    assert f ** 0 == ONE
    assert f ** 1 == f
    assert f ** 3 == f * f * f
    with pytest.raises(ValueError):
        f ** -1


def test_zero_handling():
    assert (X - X).is_zero()
    assert (X * Poly.zero()).is_zero()
    assert Poly.const(Fraction(0)).is_zero()


# -- exact division ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_div_exact_recovers_factor(f, g):
    if g.is_zero():
        return
    q = div_exact(f * g, g)
    assert q == f


def test_div_exact_rejects_nonfactor():
    assert div_exact(X * X + Y, X) is None
    assert div_exact(X + ONE, X) is None


def test_div_exact_constant_cases():
    assert div_exact(X.scale(Fraction(3)), Poly.const(Fraction(3))) == X
    assert div_exact(Poly.zero(), X) == Poly.zero()


# -- gcd / content ----------------------------------------------------------


def test_gcd_simple():
    f = (X + Y) * (X - Y)
    g = (X + Y) * X
    assert gcd(f, g) == X + Y


def test_gcd_is_normalized():
    # result has integer coefficients, content 1, positive leading coefficient
    f = (X + Y).scale(Fraction(-3, 2)) * (X - Y)
    g = (X + Y).scale(Fraction(5, 7)) * X
    assert gcd(f, g) == X + Y


def test_gcd_coprime():
    assert gcd(X + ONE, Y + ONE) == ONE
    assert gcd(X, Y) == ONE


def test_gcd_with_zero():
    f = (X + Y).scale(Fraction(2))
    assert gcd(f, Poly.zero()) == X + Y
    assert gcd(Poly.zero(), Poly.zero()) == Poly.zero()


@settings(max_examples=40, deadline=None)
@given(polys(), polys(), polys())
def test_gcd_common_factor_extracted(f, g, h):
    # gcd(f*h, g*h) equals gcd(f, g)*h after normalization
    if h.is_zero() or (f.is_zero() and g.is_zero()):
        return
    left = gcd(f * h, g * h)
    right = int_primitive(gcd(f, g) * h)
    assert left == right


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_gcd_divides_both(f, g):
    d = gcd(f, g)
    if d.is_zero():
        assert f.is_zero() and g.is_zero()
        return
    assert div_exact(f, d) is not None
    assert div_exact(g, d) is not None


def test_gcd_three_variables():
    common = X * Y + Z
    f = common * (X + ONE)
    g = common * (Y * Z - X)
    assert gcd(f, g) == common


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_coprimality_certificate_refuses_a_shared_factor(f, g, h):
    assume(not f.is_zero() and not g.is_zero() and not h.is_const())
    assert not certify_coprime(int_primitive(f * h), int_primitive(g * h))


def test_coprimality_certificate_settles_coprime_inputs():
    assert certify_coprime(X * Y + Z, X * X - Y)
    assert certify_coprime(X + ONE, Y + ONE)  # no shared atom
    assert certify_coprime(Z + X, Z + Y)  # the images in z need x and y apart
    assert not certify_coprime((X + Y) * Z, (X + Y) * (Z + ONE))


def test_coprimality_certificate_needs_the_leading_coefficient():
    # h = p*y + 1 loses its y-degree mod the certificate's prime p, so the
    # images in y are constants; only the degree check stops a false "coprime"
    h = Y.scale(_PRIME) + ONE
    assert not certify_coprime(h * X, h * (X + ONE))
    assert gcd(h * X, h * (X + ONE)) == h


def test_six_variable_sum_of_quotients_reduces_quickly():
    # this sum once ran past 30 s: the PRS kept the integer content of every
    # remainder, and coprime pairs paid for the whole recursive content
    vs = VariableSet(tuple(f"x{i}" for i in range(1, 7)))
    e = parse(
        "(2*x2*x4 + 2*x5^2)*(3*x4^2*x5^2 - 2)/(x6 + 2)"
        " + (3*x3*x4 - x1)*(-x2^2*x3^2)/(x4 + 2)",
        vs,
    )
    assert e.den == parse("(x4 + 2)*(x6 + 2)", vs).num
    want = parse(
        "(2*x2*x4 + 2*x5^2)*(3*x4^2*x5^2 - 2)*(x4 + 2) + (3*x3*x4 - x1)*(-x2^2*x3^2)*(x6 + 2)",
        vs,
    )
    assert e.num == want.num


def test_int_primitive():
    f = X.scale(Fraction(2, 3)) + Y.scale(Fraction(4, 3))
    assert int_primitive(f) == X + Y.scale(Fraction(2))
    assert int_primitive(-X) == X


def test_mono_content():
    f = X * X * Y + X * Y * Z
    assert mono_content(f) == P(x=1, y=1)
    assert mono_content(X + ONE) == P()


def _int_primitive_reference(f: Poly) -> Poly:
    """Scale f by lcm(denominators) / gcd(numerators), then fix the sign, in Fractions."""
    if f.is_zero():
        return f
    den = math.lcm(*(Fraction(c).denominator for c in f.terms.values()))
    num = math.gcd(*(Fraction(c).numerator for c in f.terms.values()))
    out = f.scale(Fraction(den, num))
    return out.scale(-1) if out.leading()[1] < 0 else out


@settings(max_examples=200, deadline=None)
@given(ln_polys())
def test_int_primitive_matches_the_fraction_reference(f):
    assert int_primitive(f) == _int_primitive_reference(f)
    primitive = int_primitive(f)
    assert int_primitive(primitive) is primitive  # content 1, positive lead: no copy


@settings(max_examples=200, deadline=None)
@given(ln_polys(), monos(), monos(), _coeffs, _coeffs)
def test_single_term_gcd_matches_the_prs(f, m, k, c, d):
    # gcd(m*k, f*k): the single term shares k, and whatever of m divides f's content
    single = Poly({mono_mul(m, k): c})
    other = f * Poly({k: d})
    a, b = int_primitive(single), int_primitive(other)
    assume(not a.is_const() and not b.is_const())
    want = _gcd_prs(a, b)
    assert gcd(single, other) == want
    assert gcd(other, single) == want
    assert div_exact(want, Poly({k: 1})) is not None


@settings(max_examples=100, deadline=None)
@given(monos(), monos(), _coeffs, _coeffs)
def test_gcd_of_two_single_terms_matches_the_prs(m1, m2, c1, c2):
    a, b = int_primitive(Poly({m1: c1})), int_primitive(Poly({m2: c2}))
    assume(not a.is_const() and not b.is_const())
    assert gcd(a, b) == _gcd_prs(a, b)


# -- coefficient types --------------------------------------------------------


def assert_exact_coefficients(p: Poly):
    """No coefficient is a float, and every integral one is an int."""
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)


def test_quo_is_exact():
    assert quo(6, 3) == 2 and type(quo(6, 3)) is int
    assert quo(1, 3) == Fraction(1, 3)
    assert quo(Fraction(3, 2), Fraction(1, 2)) == 3 and type(quo(Fraction(3, 2), Fraction(1, 2))) is int
    assert quo(-7, 2) == Fraction(-7, 2)
    assert type(Poly.const(Fraction(4, 2)).const_value()) is int


@settings(max_examples=150, deadline=None)
@given(ln_polys(), ln_polys(), _coeffs)
def test_arithmetic_keeps_integral_coefficients_int(f, g, c):
    results = [f * g, f + g, f - g, f.scale(c), f.scale(2), gcd(f, g), int_primitive(f)]
    if not g.is_zero():
        results.append(div_exact(f * g, g))
        results.append(div_exact(f, g) or Poly.zero())
    for p in results:
        assert_exact_coefficients(p)


def test_every_poly_built_while_integrating_has_exact_coefficients(monkeypatch):
    built = []
    init = Poly.__init__

    def checked(self, terms):
        init(self, terms)
        built.append(self)

    expr._diff.cache_clear()  # so that every derivative is built again
    monkeypatch.setattr(Poly, "__init__", checked)
    systems = [load_fixture(name) for name in fixture_names()]
    systems += [load_system(path) for path in SYSTEMS]
    for sys_ in systems:
        if sys_.expect.jacobi_ok is not False:
            integrate_all(sys_.matrix)
    assert len(built) > 1000
    for p in built:
        assert_exact_coefficients(p)
