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

from casinv.expr import (
    AlgebraError,
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
    ln_of,
    number,
    parse,
    random_point,
    random_rational,
    substitute,
    symbol,
    zero_verdict,
)

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
    # rebuilding the canonical form from scratch (substitute re-normalizes)
    e = parse(src, VS)
    assert substitute(e, {}) == e


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
    assert v.accepts_zero


def test_zero_verdict_ln_nonzero_has_witness():
    v = zero_verdict(parse("ln(x1) - ln(x2)", VS), VS)
    assert v.status == "nonzero"
    assert v.witness is not None
    assert abs(v.witness_value) > 0


def test_zero_verdict_deterministic():
    e = parse("ln(x1^2) - 2*ln(x1) + x2 - x2", VS)
    a = zero_verdict(e, VS, seed=5)
    b = zero_verdict(e, VS, seed=5)
    assert a == b


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


# -- substitution and structure ----------------------------------------------


def test_substitute_polynomial():
    e = parse("x1^2 + x1*x2", VS)
    out = substitute(e, {"x1": parse("x2*x3", VS)})
    assert out == parse("x2^2*x3^2 + x2^2*x3", VS)


def test_substitute_reaches_into_ln():
    e = parse("ln(x1) + x3", VS)
    out = substitute(e, {"x1": parse("x2^2", VS)})
    assert out == parse("ln(x2^2) + x3", VS)


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


def test_random_rational_range():
    rng = random.Random(0)
    seen_nontrivial = 0
    for _ in range(200):
        q = random_rational(rng)
        assert 1 <= q <= 10
        assert q.denominator <= 128
        seen_nontrivial += q.denominator > 1
    assert seen_nontrivial > 150  # almost never lands on an integer


def test_random_point_respects_domain_signs():
    rng = random.Random(1)
    dom = Domain({"x1": "+", "x2": "-"})
    pt = random_point(VS, dom, rng)
    assert pt["x1"] > 0
    assert pt["x2"] < 0
    assert pt["x3"] > 0  # undeclared samples positive
    assert pt["a"] > 0
