"""Expression layer: parsing, printing, calculus, sampling zero test.

The evaluation oracle here is Python itself: a surface string with ^ -> **
and ln -> log substituted is handed to eval() and compared against our own
evaluator, so agreement cannot come from shared code.  Derivatives are
checked against central finite differences.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from casinv.expr import (
    Domain,
    EvalDomainError,
    ParseError,
    UnknownSymbolError,
    VariableSet,
    compile_exprs,
    differentiate,
    evaluate,
    format_expr,
    free_symbols,
    number,
    parse,
    random_point,
    random_rational,
    sample_points,
    sum_products,
    symbol,
    zero_verdict,
    _reduce,
)
from casinv import poly
from casinv.expr import EXPR_ZERO
from casinv.poly import _PRIME, Poly

VS = VariableSet(("x1", "x2", "x3"), ("a", "b", "c"))

CORPUS = [
    "x1 + x2",
    "x1^2 - 2*x1*x2 + x2^2",
    "(x1 + x2)^3/(x1 + 2*x2)",
    "a*b*x1*x2/(c*x3) - x2^2",
    "ln(x1) + ln(x2) - 2*ln(x3)",
    "x1*ln(x1/x2) + x3",
    "-x1^2*(x2 - 1/2)",
    "c*x1*x2*(a*x3 + 1)",
    "(x2 + 3)/(x1*x3^2)",
    "1 - x1/(x1 + x2) - x2/(x1 + x2)",
    "x1^2*x2/(a*x3 + b) + ln(x2 + x3)",
    "2/3*x1 - x2/3 + 1/6",
]


def _pyeval(src: str, vals: dict) -> float:
    text = src.replace("^", "**").replace("ln(", "log(")
    return eval(text, {"__builtins__": {}, "log": math.log}, dict(vals))


def _points(k=5, seed=3):
    rng = random.Random(seed)
    return [
        {name: rng.uniform(1.0, 2.0) for name in VS.all_symbols()}
        for _ in range(k)
    ]


@pytest.mark.parametrize("src", CORPUS)
def test_evaluation_matches_python(src):
    e = parse(src, VS)
    for vals in _points():
        want = _pyeval(src, vals)
        got = evaluate(e, vals)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("src", CORPUS)
def test_python_source_matches(src):
    # the compiled evaluator runs the Python source that compile_exprs generates
    e = parse(src, VS)
    f = compile_exprs([e], VS)
    for vals in _points(seed=11):
        want = evaluate(e, vals)
        (got,) = f(*(vals[name] for name in VS.all_symbols()))
        assert got == pytest.approx(want, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("src", CORPUS)
def test_print_parse_round_trip(src):
    e = parse(src, VS)
    assert parse(format_expr(e), VS) == e


@pytest.mark.parametrize("src", CORPUS)
def test_normalize_is_idempotent(src):
    # reducing a canonical numerator and denominator again changes nothing
    e = parse(src, VS)
    assert _reduce(e.num, e.den) == e


@pytest.mark.parametrize("src", CORPUS)
@pytest.mark.parametrize("var", ["x1", "x2", "x3"])
def test_derivative_matches_finite_differences(src, var):
    e = parse(src, VS)
    d = differentiate(e, var, VS)
    h = 1e-5
    checked = 0
    for vals in _points(k=6, seed=29):
        lo, hi = dict(vals), dict(vals)
        lo[var] -= h
        hi[var] += h
        try:
            fd = (evaluate(e, hi) - evaluate(e, lo)) / (2 * h)
            got = evaluate(d, vals)
        except EvalDomainError:
            continue
        checked += 1
        assert got == pytest.approx(fd, rel=1e-7, abs=1e-7)
    assert checked >= 3


def test_derivative_of_ln_power():
    e = parse("ln(x1 + x2)^3", VS)
    d = differentiate(e, "x1", VS)
    vals = {n: 1.5 for n in VS.all_symbols()}
    want = 3 * math.log(3.0) ** 2 / 3.0
    assert evaluate(d, vals) == pytest.approx(want, rel=1e-12)


def test_derivative_rejects_parameters_and_strangers():
    e = parse("a*x1", VS)
    with pytest.raises(ValueError):
        differentiate(e, "a", VS)
    with pytest.raises(ValueError):
        differentiate(e, "q", VS)


# -- canonical form ---------------------------------------------------------


def test_rational_cancellation():
    e = parse("(x1^2 - x2^2)/(x1 - x2)", VS)
    assert format_expr(e) == "x1 + x2"


def test_shared_nonmonomial_factor_cancels():
    e = parse("c*x1*x2*(a*x3 + 1)/(c*x1*x3*(a*x3 + 1))", VS)
    assert format_expr(e) == "x2/x3"


def test_denominator_leading_coefficient_is_one():
    e = parse("x1/(2*x2 + 2*x3)", VS)
    assert e.den.leading()[1] == 1
    assert format_expr(e) == "1/2*x1/(x2 + x3)"
    assert parse(format_expr(e), VS) == e


def test_equality_is_structural_and_semantic():
    a = parse("(x1 + x2)^2", VS)
    b = parse("x1^2 + 2*x1*x2 + x2^2", VS)
    assert a == b
    assert hash(a) == hash(b)


def test_ln_atoms_compare_by_argument():
    a = parse("ln(x1*x2)", VS)
    b = parse("ln(x2*x1)", VS)
    c = parse("ln(x1) + ln(x2)", VS)
    assert a == b
    assert a != c


def test_constant_folding_in_ln():
    assert parse("ln(1)", VS).is_zero()
    assert parse("x1*ln(3/3)", VS).is_zero()
    with pytest.raises(ParseError):
        parse("ln(0)", VS)
    with pytest.raises(ParseError):
        parse("ln(-2)", VS)


# -- sums of products over one denominator ----------------------------------

_sum_leaves = st.one_of(
    st.sampled_from(
        [
            "x1", "x2 + a", "x1/x2", "(x1 + x3)/(x2 - x3)", "x2/(x1 + 1)", "1/(x1*x2)",
            "a/b", "x3/(a + c)", "(x1 - b)/(a*b)",  # parameter-only denominators
            "ln(x1)", "x1*ln(x2 + x3)", "b*ln(a)/(x1 + 1)", "ln(x1*x2) - ln(x1)",
        ]
    ).map(lambda text: parse(text, VS)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4).map(number),
)
_sum_exprs = st.one_of(
    _sum_leaves,
    st.tuples(_sum_leaves, _sum_leaves).map(lambda t: t[0] + t[1]),
    st.tuples(_sum_leaves, _sum_leaves.filter(lambda e: not e.is_zero())).map(lambda t: t[0] / t[1]),
)


def _reference_sum(pairs):
    total = EXPR_ZERO
    for a, b in pairs:
        total = total + a * b
    return total


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(_sum_exprs, _sum_exprs), max_size=4), st.data())
def test_sum_products_is_the_expr_sum(pairs, data):
    # cancel some products outright, negated or regrouped, so that zero sums are drawn too
    drawn = len(pairs)
    cancel = data.draw(st.lists(st.sampled_from(range(len(pairs))), unique=True) if pairs else st.just([]))
    for k in cancel:
        a, b = pairs[k]
        how = data.draw(st.sampled_from(["neg-left", "neg-right", "product", "halves"]))
        if how == "neg-left":
            pairs.append((-a, b))
        elif how == "neg-right":
            pairs.append((b, -a))
        elif how == "product":
            pairs.append((a * b, number(-1)))
        else:
            pairs += [(a * number(Fraction(-1, 2)), b), (number(Fraction(-1, 2)), b * a)]
    got = sum_products(pairs)
    want = _reference_sum(pairs)
    assert got == want
    assert got.is_zero() == want.is_zero()
    assert parse(format_expr(got), VS) == got  # canonical: the printed form reads back equal
    if sorted(cancel) == list(range(drawn)):
        assert got.is_zero()


def test_sum_products_of_a_cancelling_sum_runs_no_gcd(monkeypatch):
    # equal denominators need no lcm, and a zero numerator no reduction
    w = [parse(t, VS) for t in ("x1*x3/(x2 + a)", "x2/(x2 + a)", "1")]
    col = [parse(t, VS) for t in ("x2", "-x1*x3", "0")]
    calls = []
    gcd = poly.gcd
    monkeypatch.setattr(poly, "gcd", lambda f, g: calls.append((f, g)) or gcd(f, g))
    assert sum_products(zip(col, w)).is_zero()
    assert calls == []


def test_sum_products_of_a_polynomial_sum_divides_once(monkeypatch):
    # so(4)*'s combined coefficient: x4 w1 + x3 w2 = x6 over the shared (x3^2 - x4^2)
    den = "(x3^2 - x2^2)"
    w1 = parse(f"(x1*x3 - x2*a)/{den}", VS)
    w2 = parse(f"(-x1*x2 + x3*a)/{den}", VS)
    calls = []
    gcd = poly.gcd
    monkeypatch.setattr(poly, "gcd", lambda f, g: calls.append((f, g)) or gcd(f, g))
    assert sum_products([(parse("x2", VS), w1), (parse("x3", VS), w2)]) == parse("a", VS)
    assert calls == []


def test_sum_products_of_nothing_is_zero():
    assert sum_products([]) is EXPR_ZERO
    assert sum_products([(EXPR_ZERO, parse("x1", VS)), (parse("1/x2", VS), EXPR_ZERO)]).is_zero()


# -- zero verdicts ----------------------------------------------------------


def test_zero_verdict_exact_zero():
    v = zero_verdict(parse("x1^2 - x2^2 - (x1 - x2)*(x1 + x2)", VS), VS)
    assert v.status == "zero"
    assert v.samples == 0


def test_zero_verdict_nonzero_is_decisive_without_ln():
    # a canonical nonzero numerator is a proof for the rational fragment,
    # even if the coefficient is far below any floating-point tolerance
    tiny = number(Fraction(1, 10 ** 40)) * symbol("x1")
    v = zero_verdict(tiny, VS)
    assert v.status == "nonzero"


def test_zero_verdict_without_ln_draws_no_point():
    rng = random.Random(3)
    before = rng.getstate()
    v = zero_verdict(symbol("x1"), VS, rng=rng)
    assert v.status == "nonzero"
    assert v.samples == 0
    assert rng.getstate() == before


def test_zero_verdict_ln_identity_is_probably_zero():
    v = zero_verdict(parse("ln(x1*x2) - ln(x1) - ln(x2)", VS), VS)
    assert v.status == "probably-zero"
    assert v.samples == 20


def test_zero_verdict_ln_nonzero_has_witness():
    v = zero_verdict(parse("ln(x1) - ln(x2)", VS), VS)
    assert v.status == "nonzero"
    assert v.witness is not None
    assert abs(v.witness_value) > 0


def test_zero_verdict_deterministic():
    # equal seeds give equal verdicts, witness point included
    for text in ("ln(x1^2) - 2*ln(x1) + x2 - x2", "ln(x1) - ln(x2)"):
        e = parse(text, VS)
        a = zero_verdict(e, VS, rng=random.Random(5))
        b = zero_verdict(e, VS, rng=random.Random(5))
        assert a == b


def test_zero_verdict_does_not_depend_on_how_the_expr_was_built():
    # the same canonical Expr with its numerator's terms inserted in reverse
    e = parse("3^20*ln(x1*x2) - 3^20*ln(x1) - 3^20*ln(x2) + 1000", VS)
    flipped = _reduce(Poly(dict(reversed(list(e.num.terms.items())))), e.den)
    assert flipped == e
    assert list(flipped.num.terms) != list(e.num.terms)
    assert zero_verdict(flipped, VS) == zero_verdict(e, VS)


def test_zero_verdict_counts_usable_points():
    # zero wherever it is defined, and undefined at every draw with x1 <= 5
    e = parse("ln(x1 - 5) + ln(x2) - ln(x1*x2 - 5*x2)", VS)
    rng = random.Random(4)
    v = zero_verdict(e, VS, samples=20, rng=rng)
    assert v.status == "probably-zero"
    assert v.samples == 20
    replay = random.Random(4)
    usable = 0
    draws = 0
    while usable < 20:
        draws += 1
        usable += random_point(VS, None, replay)["x1"] > 5
    assert draws > 20  # some draws were skipped, and not counted as samples
    assert rng.getstate() == replay.getstate()


def _reference_verdict(e, rng, samples=20, tol=1e-9):
    """Reference: zero_verdict's (status, samples) for ln-bearing e, walking each numerator term."""
    terms = [_reduce(Poly({m: c}), Poly.one()) for m, c in e.num.terms.items()]

    def at(pt):
        values = [evaluate(t, pt) for t in terms]
        return sum(values), sum(map(abs, values))

    checked = 0
    for nv, ns in sample_points(VS, None, rng, samples, at):
        checked += 1
        if abs(nv) > tol * max(ns, 1.0):
            return "nonzero", checked
    return "probably-zero", checked


_ln_leaves = st.one_of(
    st.sampled_from(
        ["x1", "x2", "a", "ln(x1)", "ln(x2 + x3)", "ln(a*x3)", "ln(x1*x2) - ln(x1) - ln(x2)"]
    ).map(lambda text: parse(text, VS)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4).map(number),
)
_ln_exprs = st.recursive(
    _ln_leaves,
    lambda kids: st.one_of(
        st.tuples(kids, kids).map(lambda t: t[0] + t[1]),
        st.tuples(kids, kids).map(lambda t: t[0] * t[1]),
        st.tuples(kids, kids.filter(lambda e: not e.is_zero())).map(lambda t: t[0] / t[1]),
    ),
    max_leaves=6,
)


@settings(max_examples=100, deadline=None)
@given(_ln_exprs, st.integers(0, 2**32))
def test_compiled_zero_verdict_matches_the_tree_walk(e, seed):
    assume(any(not isinstance(a, str) for a in e.num.atoms()))
    rng, replay = random.Random(seed), random.Random(seed)
    v = zero_verdict(e, VS, rng=rng)
    assert (v.status, v.samples) == _reference_verdict(e, replay)
    assert rng.getstate() == replay.getstate()


# -- parser errors ----------------------------------------------------------


def test_unknown_symbol_is_named():
    with pytest.raises(UnknownSymbolError) as exc:
        parse("x1 + bogus", VS)
    assert "bogus" in str(exc.value)
    assert exc.value.position == 5


def test_unknown_function():
    with pytest.raises(ParseError, match="unknown function"):
        parse("sin(x1)", VS)


def test_exponent_must_be_integer():
    with pytest.raises(ParseError, match="integer"):
        parse("x1^x2", VS)
    with pytest.raises(ParseError, match="integer"):
        parse("x1^(1/2)", VS)
    assert format_expr(parse("x1^-2*x1^3", VS)) == "x1"


def test_unbalanced_and_trailing():
    with pytest.raises(ParseError):
        parse("(x1 + x2", VS)
    with pytest.raises(ParseError):
        parse("x1 x2", VS)
    with pytest.raises(ParseError):
        parse("", VS)


def test_symbolic_division_by_zero():
    with pytest.raises(ParseError, match="zero"):
        parse("x1/(x2 - x2)", VS)


def test_ln_requires_parentheses():
    with pytest.raises(ParseError):
        parse("ln x1", VS)


# -- structure ----------------------------------------------------------------


def test_free_symbols_sees_ln_arguments():
    e = parse("ln(a*x3 + b) + x1", VS)
    assert free_symbols(e) == {"a", "b", "x1", "x3"}


def test_variable_set_validation():
    with pytest.raises(ValueError):
        VariableSet(("x", "x"))
    with pytest.raises(ValueError):
        VariableSet(("ln",))
    with pytest.raises(ValueError):
        VariableSet(("2bad",))
    with pytest.raises(ValueError):
        VariableSet((), ("a",))


# -- sampling ----------------------------------------------------------------


def _exact_draw(rng) -> Fraction:
    """Reference: the rational n/d that random_rational draws, exactly."""
    d = rng.randint(16, 128)
    return Fraction(rng.randint(d, 10 * d), d)


def _exact_point(dom, rng) -> dict:
    """Reference: random_point's draws as Fractions, variables then parameters."""
    return {s: dom.sample_sign(s) * _exact_draw(rng) for s in VS.all_symbols()}


def test_random_rational_range():
    rng, exact = random.Random(0), random.Random(0)
    seen_nontrivial = 0
    for _ in range(200):
        q = _exact_draw(exact)
        assert 1 <= q <= 10
        assert q.denominator <= 128
        seen_nontrivial += q.denominator > 1
        assert random_rational(rng) == float(q)
    assert seen_nontrivial > 150  # almost never lands on an integer


def test_sample_points_stops_at_the_draw_cap():
    def undefined(pt):
        raise EvalDomainError("never defined")

    rng = random.Random(2)
    assert list(sample_points(VS, None, rng, 3, undefined)) == []
    replay = random.Random(2)
    for _ in range(50 * 3):
        random_point(VS, None, replay)
    assert rng.getstate() == replay.getstate()


def test_sample_points_skips_overflow_within_the_draw_cap():
    draws = 0

    def overflows(pt):
        nonlocal draws
        draws += 1
        raise OverflowError("float power out of range")

    assert list(sample_points(VS, None, random.Random(2), 3, overflows)) == []
    assert draws == 50 * 3


_sign = st.sampled_from([None, "+", "-"])


@given(st.integers(0, 2**64), _sign, _sign, _sign)
def test_float_draws_are_the_exact_draws_rounded(seed, s1, s2, s3):
    dom = Domain({v: s for v, s in zip(VS.variables, (s1, s2, s3)) if s})
    exact, floats = random.Random(seed), random.Random(seed)
    for _ in range(3):
        want = {k: float(v) for k, v in _exact_point(dom, exact).items()}
        got = random_point(VS, dom, floats)
        assert list(got) == list(want) == list(VS.all_symbols())
        assert all(type(v) is float and v == want[k] for k, v in got.items())
    # the same rng calls, so the draws that follow stay the same too
    assert floats.getstate() == exact.getstate()


@given(st.integers(0, 2**64), _sign, _sign, _sign)
def test_residue_draws_are_the_exact_draws_mod_p(seed, s1, s2, s3):
    dom = Domain({v: s for v, s in zip(VS.variables, (s1, s2, s3)) if s})
    exact, residues = random.Random(seed), random.Random(seed)
    for _ in range(3):
        want = _exact_point(dom, exact)
        got = random_point(VS, dom, residues, _PRIME)
        assert list(got) == list(want) == list(VS.all_symbols())
        for k, v in got.items():
            assert type(v) is int and abs(v) < _PRIME
            assert v * want[k].denominator % _PRIME == want[k].numerator % _PRIME
    assert residues.getstate() == exact.getstate()


def test_random_point_respects_domain_signs():
    rng = random.Random(1)
    dom = Domain({"x1": "+", "x2": "-"})
    pt = random_point(VS, dom, rng)
    assert pt["x1"] > 0
    assert pt["x2"] < 0
    assert pt["x3"] > 0  # undeclared samples positive
    assert pt["a"] > 0
