"""Exact symbolic expressions: rational functions of symbols plus atomic ln.

An Expr is a quotient num/den of two sparse polynomials (see poly.py) over
the rationals.  The representation is canonical by construction:

* num and den share no polynomial factor (gcd removed),
* den's graded-lex leading coefficient is exactly 1,
* zero is represented as 0/1.

Consequently structural equality is mathematical equality for the rational
fragment.  ln(...) enters as an opaque atom whose argument is itself a
canonical Expr; two ln atoms are equal only when their arguments are
identical, so identities such as ln(x*y) = ln(x) + ln(y) are deliberately
NOT applied -- the sampling-based zero test exists to catch those.

The accepted surface grammar (parse/format round-trip):

    expr    :=  sum of products of powers
    ops     :=  +  -  *  /  ^      (^ takes a literal integer exponent)
    atoms   :=  identifiers  [A-Za-z][A-Za-z0-9_]*,  integer literals,
                ln(expr),  parenthesised subexpressions
"""

from __future__ import annotations

import functools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from . import poly
from .poly import _PRIME, Poly, mono_order_key, quo

__all__ = [
    "AlgebraError",
    "ParseError",
    "UnknownSymbolError",
    "EvalError",
    "EvalDomainError",
    "VariableSet",
    "Domain",
    "Expr",
    "Ln",
    "ZeroVerdict",
    "parse",
    "format_expr",
    "compile_exprs",
    "python_source",
    "differentiate",
    "evaluate",
    "residue",
    "zero_verdict",
    "free_symbols",
    "symbol",
    "number",
    "ln_of",
    "random_rational",
    "random_point",
    "sample_points",
    "sample_values",
    "sum_products",
]


class AlgebraError(Exception):
    """Structurally invalid symbolic operation (e.g. division by zero)."""


class ParseError(Exception):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownSymbolError(ParseError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown identifier '{name}'", position)
        self.name = name


class EvalError(Exception):
    """Evaluation failed (missing symbol value, bad arithmetic)."""


class EvalDomainError(EvalError):
    """Evaluation hit a singular point: ln of a non-positive value or a zero denominator."""


_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")
_RESERVED = {"ln"}


@dataclass(frozen=True)
class VariableSet:
    """Declared state variables and parameters; all symbols an Expr may use."""

    variables: tuple[str, ...]
    parameters: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.variables:
            raise ValueError("at least one state variable is required")
        seen = set()
        for name in self.variables + self.parameters:
            if not _IDENT_RE.match(name):
                raise ValueError(f"invalid identifier: {name!r}")
            if name in _RESERVED:
                raise ValueError(f"identifier {name!r} is reserved")
            if name in seen:
                raise ValueError(f"duplicate identifier: {name!r}")
            seen.add(name)

    @property
    def n(self) -> int:
        return len(self.variables)

    def all_symbols(self) -> tuple[str, ...]:
        return self.variables + self.parameters

    def is_variable(self, name: str) -> bool:
        return name in self.variables

    def knows(self, name: str) -> bool:
        return name in self.variables or name in self.parameters


class Domain:
    """Sign constraints per variable.

    Sampling treats every symbol as positive unless a variable is declared
    negative.  Only *declared* positive variables get a hard positivity guard
    during flow integration; undeclared variables may wander across zero
    (polynomial systems are perfectly happy there).
    """

    def __init__(self, declared: dict | None = None):
        self.declared = dict(declared or {})
        for name, s in self.declared.items():
            if s not in ("+", "-"):
                raise ValueError(f"bad sign {s!r} for {name!r}")

    def sample_sign(self, name: str) -> int:
        return -1 if self.declared.get(name) == "-" else 1

    def guarded_positive(self, name: str) -> bool:
        return self.declared.get(name) == "+"

    def __repr__(self):
        return f"Domain({self.declared!r})"


# ---------------------------------------------------------------------------
# core expression type


class Ln:
    """Atomic natural logarithm of a canonical Expr (used as a Poly atom)."""

    __slots__ = ("arg", "_hash")

    def __init__(self, arg: "Expr"):
        self.arg = arg
        self._hash = hash(("ln", arg))

    @property
    def sort_key(self):
        return self.arg.sort_key

    def __eq__(self, other):
        return isinstance(other, Ln) and self.arg == other.arg

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Ln({self.arg!r})"


class Expr:
    """Canonical quotient of two polynomials.  Immutable."""

    __slots__ = ("num", "den", "_skey", "_hash")

    def __init__(self, num: Poly, den: Poly):
        # private: callers go through _reduce()
        self.num = num
        self.den = den
        self._skey = None
        self._hash = None

    # -- canonicalization --------------------------------------------------

    @property
    def sort_key(self):
        if self._skey is None:
            self._skey = (self.num.sort_key(), self.den.sort_key())
        return self._skey

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))  # Poly hashes its terms' frozenset
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Expr) and self.num == other.num and self.den == other.den

    def __lt__(self, other):
        return self.sort_key < other.sort_key

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def const_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return Fraction(self.num.const_value())

    def as_integer(self):
        """The exact integer value, or None."""
        if not self.is_constant():
            return None
        v = self.const_value()
        return int(v) if v.denominator == 1 else None

    def monomial_count(self) -> int:
        return self.num.monomial_count() + self.den.monomial_count()

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = _as_expr(other)
        if other.num.is_zero():
            return self
        if self.num.is_zero():
            return other
        if self.den == other.den:
            return _reduce(self.num + other.num, self.den)
        return _reduce(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return self if self.num.is_zero() else Expr(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_as_expr(other))

    def __rsub__(self, other):
        return _as_expr(other) + (-self)

    def __mul__(self, other):
        other = _as_expr(other)
        if self.num.is_zero() or other.num.is_zero():
            return EXPR_ZERO
        n1, d1 = self.num, self.den
        n2, d2 = other.num, other.den
        if d1.is_one() and d2.is_one():
            return _reduce(n1 * n2, poly.Poly.one(), coprime=True)
        if not d2.is_const():
            g = poly.gcd(n1, d2)
            if not g.is_one():
                n1 = poly.div_exact(n1, g)
                d2 = poly.div_exact(d2, g)
        if not d1.is_const():
            g = poly.gcd(n2, d1)
            if not g.is_one():
                n2 = poly.div_exact(n2, g)
                d1 = poly.div_exact(d1, g)
        return _reduce(n1 * n2, d1 * d2, coprime=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_expr(other)
        if other.num.is_zero():
            raise AlgebraError("division by an expression that is identically zero")
        return self * _reduce(other.den, other.num, coprime=True)

    def __rtruediv__(self, other):
        return _as_expr(other) / self

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise TypeError("exponents must be integers")
        if e == 0:
            return EXPR_ONE
        if self.num.is_zero():
            if e < 0:
                raise AlgebraError("negative power of zero")
            return EXPR_ZERO
        if e < 0:
            return _reduce(self.den, self.num, coprime=True) ** (-e)
        return _reduce(self.num ** e, self.den ** e, coprime=True)

    def __str__(self):
        return format_expr(self)

    def __repr__(self):
        return f"<Expr {format_expr(self)}>"


def _reduce(num: Poly, den: Poly, coprime: bool = False) -> Expr:
    if den.is_zero():
        raise AlgebraError("division by zero (denominator is identically zero)")
    if num.is_zero():
        return EXPR_ZERO
    if den.is_const():
        c = den.const_value()
        return Expr(num if c == 1 else num.scale(quo(1, c)), poly.Poly.one())
    if not coprime:
        g = poly.gcd(num, den)
        if not g.is_one():
            num = poly.div_exact(num, g)
            den = poly.div_exact(den, g)
            if den.is_const():
                c = den.const_value()
                return Expr(num if c == 1 else num.scale(quo(1, c)), poly.Poly.one())
    _, lc = den.leading()
    if lc != 1:
        num = num.scale(quo(1, lc))
        den = den.scale(quo(1, lc))
    return Expr(num, den)


def sum_products(pairs) -> Expr:
    """The canonical sum of a * b over the (a, b) pairs of Exprs, reduced once.

    Each product's numerator a.num * b.num is scaled by D / (a.den * b.den),
    with D the lcm of the products' denominators, and the numerators are
    summed as one Poly.  The sum is zero exactly when that numerator is, so a
    zero sum runs no gcd.  A nonzero one that D divides (a polynomial sum) is
    one exact division; any other is reduced by _reduce once.  The lcm takes
    one gcd per further distinct denominator, none when all are equal.
    """
    dens: list = []  # the distinct denominators, in order of appearance
    terms = []  # (numerator, index of its denominator in dens) of each nonzero product
    for a, b in pairs:
        if a.num.terms and b.num.terms:
            d = a.den * b.den
            k = next((k for k, e in enumerate(dens) if d is e or d == e), len(dens))
            if k == len(dens):
                dens.append(d)
            terms.append((a.num * b.num, k))
    if not terms:
        return EXPR_ZERO
    lcm = dens[0]
    for d in dens[1:]:
        g = poly.gcd(lcm, d)
        lcm = lcm * (d if g.is_one() else poly.div_exact(d, g))
    scales = [Poly.one()] if len(dens) == 1 else [poly.div_exact(lcm, d) for d in dens]
    acc: dict = {}
    for num, k in terms:
        s = scales[k]
        for m, c in (num if s.is_one() else num * s).terms.items():
            v = acc.get(m, 0) + c
            if v:
                acc[m] = v
            else:
                del acc[m]
    if not acc:
        return EXPR_ZERO
    num = Poly(acc)
    if not lcm.is_const() and (q := poly.div_exact(num, lcm)) is not None:
        return _from_poly(q)  # a polynomial sum: one exact division, no gcd
    return _reduce(num, lcm)


def _from_poly(p: Poly) -> Expr:
    if p.is_zero():
        return EXPR_ZERO
    return Expr(p, poly.Poly.one())


def _as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return _from_poly(Poly.const(x))
    raise TypeError(f"cannot treat {type(x).__name__} as an expression")


EXPR_ZERO = Expr(Poly.zero(), Poly.one())
EXPR_ONE = Expr(Poly.one(), Poly.one())


def symbol(name: str) -> Expr:
    return _from_poly(Poly.atom(name))


def number(value) -> Expr:
    return _as_expr(Fraction(value))


def ln_of(arg: Expr) -> Expr:
    """ln(arg) as an Expr; folds ln(1) -> 0 and rejects non-positive constants."""
    arg = _as_expr(arg)
    if arg.is_constant():
        v = arg.const_value()
        if v <= 0:
            raise AlgebraError(f"ln of a non-positive constant: {v}")
        if v == 1:
            return EXPR_ZERO
    if arg.is_zero():
        raise AlgebraError("ln(0) is undefined")
    return _from_poly(Poly.atom(Ln(arg)))


# ---------------------------------------------------------------------------
# structural helpers


def free_symbols(e: Expr) -> set:
    out: set = set()
    _collect_symbols(e, out)
    return out


def _collect_symbols(e: Expr, out: set):
    for p in (e.num, e.den):
        for a in p.atoms():
            if isinstance(a, str):
                out.add(a)
            else:
                _collect_symbols(a.arg, out)


def _involves(e: Expr, name: str) -> bool:
    for p in (e.num, e.den):
        for a in p.atoms():
            if isinstance(a, str):
                if a == name:
                    return True
            elif _involves(a.arg, name):
                return True
    return False


# ---------------------------------------------------------------------------
# differentiation


def differentiate(e: Expr, name: str, symbols: VariableSet) -> Expr:
    """Partial derivative with respect to a declared state variable."""
    if not symbols.knows(name):
        raise ValueError(f"unknown identifier: {name!r}")
    if not symbols.is_variable(name):
        raise ValueError(f"cannot differentiate with respect to parameter {name!r}")
    return _diff(e, name)


@functools.lru_cache(maxsize=None)
def _diff(e: Expr, name: str) -> Expr:
    if not _involves(e, name):
        return EXPR_ZERO
    dn = _poly_diff(e.num, name)
    if e.den.is_one():
        return dn
    dd = _poly_diff(e.den, name)
    num_e = _from_poly(e.num)
    den_e = _from_poly(e.den)
    return (dn * den_e - num_e * dd) / (den_e * den_e)


def _poly_diff(p: Poly, name: str) -> Expr:
    plain: dict = {}
    chain = []  # (term, d ln(u) / d name) of each ln(u) factor that involves name
    for m, c in p.terms.items():
        for i, (a, e) in enumerate(m):
            if isinstance(a, str):
                if a != name:
                    continue
                nm = _mono_with_exp(m, i, e - 1)
                v = plain.get(nm, 0) + c * e
                if v:
                    plain[nm] = v
                else:
                    plain.pop(nm, None)
            else:
                if not _involves(a.arg, name):
                    continue
                nm = _mono_with_exp(m, i, e - 1)
                chain.append((_from_poly(Poly({nm: c * e})), _diff(a.arg, name) / a.arg))
    return _from_poly(Poly(plain)) + sum_products(chain)


def _mono_with_exp(m, i, new_e):
    if new_e == 0:
        return m[:i] + m[i + 1:]
    return m[:i] + ((m[i][0], new_e),) + m[i + 1:]


# ---------------------------------------------------------------------------
# evaluation


def evaluate(e: Expr, point) -> float:
    """Float value of e at a mapping of symbol values, by walking the tree.

    The pipeline evaluates through compile_exprs; this is the reference the
    tests check compiled code against.
    """

    def value(p: Poly) -> float:
        total = 0.0
        for m, c in p.terms.items():
            t = float(c)
            for a, k in m:
                if not isinstance(a, str):
                    arg = evaluate(a.arg, point)
                    if arg <= 0.0:
                        raise EvalDomainError("ln of a non-positive value")
                    t *= math.log(arg) ** k
                elif a in point:
                    t *= float(point[a]) ** k
                else:
                    raise EvalError(f"no value bound for symbol {a!r}")
            total += t
        return total

    den = value(e.den)
    if den == 0:
        raise EvalDomainError("division by zero while evaluating")
    return value(e.num) / den


def residue(e: Expr, point: dict, rng: random.Random | None = None, wrt=None):
    """e mod _PRIME at a point of residues; ValueError where e is undefined mod _PRIME.

    This is the one evaluator mod the prime.  An ln atom missing from the
    point raises KeyError or, given rng, takes a random residue that the
    point keeps, drawn term by term and numerator first.

    Given wrt, a sequence of variable names, it is forward-mode and returns
    (value, partials): the residues of e and of de/dv for each v in wrt.  The
    term loop carries the partials by the product rule, the quotient rule
    joins numerator and denominator, and an ln atom's partials come from the
    chain rule d ln(u) = du / u, with u and du evaluated the same way (its
    own ln atoms drawn as above).  No symbolic derivative is formed.
    """
    slots = None if wrt is None else {v: s for s, v in enumerate(wrt)}
    dlogs: dict = {}  # ln atom -> its nonzero partials, (slot, residue) pairs

    def atom(a):
        if rng is not None and a not in point:
            point[a] = random_rational(rng, _PRIME)
        return point[a]

    def dlog(a) -> list:
        if a not in dlogs:
            u, du = residue(a.arg, point, rng, wrt)
            inv = pow(u, -1, _PRIME)
            dlogs[a] = [(s, g * inv) for s, g in enumerate(du) if g]
        return dlogs[a]

    def value(p: Poly):
        total = 0
        grad = None if slots is None else [0] * len(slots)
        for m, c in p.terms.items():
            t = c if type(c) is int else c.numerator * pow(c.denominator, -1, _PRIME)
            if grad is None:
                for a, k in m:
                    t *= atom(a) if k == 1 else pow(atom(a), k, _PRIME)
                total += t
                continue
            powers = [atom(a) if k == 1 else pow(atom(a), k, _PRIME) for a, k in m]
            for i, (a, k) in enumerate(m):
                if isinstance(a, str):  # a symbol's partial is its unit slot
                    if (slot := slots.get(a)) is None:
                        continue
                    da = None
                elif not (da := dlog(a)):
                    continue
                rest = t if k == 1 else t * k * pow(point[a], k - 1, _PRIME)
                for j, q in enumerate(powers):
                    if j != i:
                        rest = rest * q % _PRIME
                if da is None:
                    grad[slot] += rest
                else:
                    for s, g in da:
                        grad[s] += rest * g
            for q in powers:
                t *= q
            total += t
        return total, grad

    nv, ng = value(e.num)
    if e.den.is_one():  # a canonical constant denominator is exactly 1
        v = nv % _PRIME
        return v if slots is None else (v, [g % _PRIME for g in ng])
    dv, dg = value(e.den)
    inv = pow(dv, -1, _PRIME)
    v = nv * inv % _PRIME
    if slots is None:
        return v
    return v, [(a - v * b) * inv % _PRIME for a, b in zip(ng, dg)]


# ---------------------------------------------------------------------------
# sampling and the zero verdict


def random_rational(rng: random.Random, prime: int | None = None):
    """Random n/d in [1, 10], 16 <= d <= 128: the float n/d, or n * d^-1 mod prime.

    Both kinds make the same rng calls, so either kind of point is the same draw.
    """
    d = rng.randint(16, 128)
    n = rng.randint(d, 10 * d)
    return n / d if prime is None else n * pow(d, -1, prime) % prime


def random_point(
    symbols: VariableSet,
    domain: Domain | None = None,
    rng: random.Random | None = None,
    prime: int | None = None,
) -> dict:
    """Floats, or residues mod prime: variables obey domain signs, parameters positive."""
    rng, domain = rng or random.Random(0), domain or Domain()
    values = {v: domain.sample_sign(v) * random_rational(rng, prime) for v in symbols.variables}
    values.update((name, random_rational(rng, prime)) for name in symbols.parameters)
    return values


def sample_points(
    symbols: VariableSet, domain: Domain | None, rng: random.Random, want: int, at, prime=None
):
    """Yield at(point) at the first `want` random points where `at` is defined.

    This is the one draw loop behind every sampled check.  Points come from
    random_point(..., prime) in draw order; a point where `at` raises
    ZeroDivisionError, ValueError, EvalDomainError or OverflowError (a zero
    denominator, ln of a non-positive value, a float power past the largest
    double) is skipped.
    At most 50 * want points are drawn, so fewer than `want` values mean too
    few points were usable.  No point is drawn after the last value is
    taken, and callers may stop early by leaving the loop.
    """
    left = want
    for _ in range(50 * want):
        point = random_point(symbols, domain, rng, prime)
        try:
            value = at(point)
        except (ZeroDivisionError, ValueError, EvalDomainError, OverflowError):
            continue
        yield value
        left -= 1
        if not left:
            return


def sample_values(exprs, symbols: VariableSet, domain: Domain | None, rng: random.Random, points: int):
    """Float values of exprs at up to `points` sample points where all are defined.

    The expressions are compiled once; random_point's float draws come in
    symbols.all_symbols() order, the order the compiled function takes.
    """
    f = compile_exprs(exprs, symbols)
    return sample_points(symbols, domain, rng, points, lambda pt: f(*pt.values()))


@dataclass(frozen=True)
class ZeroVerdict:
    """Outcome of the zero test.

    status is "zero" (canonical form is zero: proof), "nonzero" (the
    expression is ln-free, so its nonzero canonical form is the proof and
    samples is 0; or a sampled witness was found), or "probably-zero"
    (every sample vanished but ln atoms keep the symbolic check from being
    conclusive).
    """

    status: str
    samples: int
    witness: dict | None = None
    witness_value: float | None = None

    @property
    def is_zero(self) -> bool:
        return self.status == "zero"

    @property
    def is_nonzero(self) -> bool:
        return self.status == "nonzero"


def zero_verdict(
    e: Expr,
    symbols: VariableSet,
    domain: Domain | None = None,
    *,
    samples: int = 20,
    tol: float = 1e-9,
    rng: random.Random | None = None,
) -> ZeroVerdict:
    """Decide whether e is identically zero.

    The canonical form settles the rational fragment outright: a zero
    numerator is "zero", a nonzero ln-free one is "nonzero", and no point is
    drawn.  A numerator with ln atoms is sampled at `samples` random float
    points in the domain where it is defined, its terms compiled once by
    compile_exprs.  The value is the sum of the terms, taken in graded-lex
    order (the order _poly_str prints), so equal Exprs get equal floats
    however they were built; the scale is the sum of their magnitudes.  A
    value exceeding `tol` relative to the scale is a nonzero witness, and
    survival of all samples yields "probably-zero".
    """
    if e.num.is_zero():
        return ZeroVerdict("zero", 0)
    if all(isinstance(a, str) for a in e.num.atoms()):
        return ZeroVerdict("nonzero", 0)
    monos = sorted(e.num.terms.items(), key=lambda mc: mono_order_key(mc[0]))
    f = compile_exprs([_from_poly(Poly({m: c})) for m, c in monos], symbols)

    def at(pt):
        values = f(*pt.values())
        return pt, sum(values), sum(map(abs, values))

    checked = 0
    for pt, nv, ns in sample_points(symbols, domain, rng or random.Random(0), samples, at):
        checked += 1
        if abs(nv) > tol * max(ns, 1.0):
            return ZeroVerdict("nonzero", checked, pt, nv)
    return ZeroVerdict("probably-zero", checked)


# ---------------------------------------------------------------------------
# parsing


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([-+*/^()]))")


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str):
    toks = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if not m:
            stripped = text[i:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.group(1):
            toks.append(_Token("num", m.group(1), m.start(1)))
        elif m.group(2):
            toks.append(_Token("name", m.group(2), m.start(2)))
        else:
            toks.append(_Token("op", m.group(3), m.start(3)))
        i = m.end()
    toks.append(_Token("end", "", len(text)))
    return toks


_BIN_PREC = {"+": 10, "-": 10, "*": 20, "/": 20, "^": 30}
_UNARY_PREC = 25  # between * and ^, so -x^2 parses as -(x^2)


class _Parser:
    def __init__(self, text: str, symbols: VariableSet):
        self.toks = _tokenize(text)
        self.i = 0
        self.symbols = symbols

    def peek(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect_op(self, op: str):
        t = self.advance()
        if t.kind != "op" or t.text != op:
            raise ParseError(f"expected {op!r}", t.pos)

    def parse(self) -> Expr:
        e = self.parse_expr(0)
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"unexpected {t.text!r}", t.pos)
        return e

    def parse_expr(self, min_prec: int) -> Expr:
        left = self.parse_unary()
        while True:
            t = self.peek()
            if t.kind != "op" or t.text not in _BIN_PREC:
                return left
            prec = _BIN_PREC[t.text]
            if prec < min_prec:
                return left
            self.advance()
            if t.text == "^":
                right = self.parse_expr(prec)  # right-associative
                exp = right.as_integer()
                if exp is None:
                    raise ParseError("exponent must be a literal integer", t.pos)
                try:
                    left = left ** exp
                except AlgebraError as err:
                    raise ParseError(str(err), t.pos) from None
            else:
                right = self.parse_expr(prec + 1)
                try:
                    if t.text == "+":
                        left = left + right
                    elif t.text == "-":
                        left = left - right
                    elif t.text == "*":
                        left = left * right
                    else:
                        left = left / right
                except AlgebraError as err:
                    raise ParseError(str(err), t.pos) from None

    def parse_unary(self) -> Expr:
        t = self.peek()
        if t.kind == "op" and t.text in ("-", "+"):
            self.advance()
            operand = self.parse_expr(_UNARY_PREC)
            return -operand if t.text == "-" else operand
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        t = self.advance()
        if t.kind == "num":
            return number(int(t.text))
        if t.kind == "name":
            if t.text == "ln":
                self.expect_op("(")
                inner = self.parse_expr(0)
                self.expect_op(")")
                try:
                    return ln_of(inner)
                except AlgebraError as err:
                    raise ParseError(str(err), t.pos) from None
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                raise ParseError(f"unknown function {t.text!r}", t.pos)
            if not self.symbols.knows(t.text):
                raise UnknownSymbolError(t.text, t.pos)
            return symbol(t.text)
        if t.kind == "op" and t.text == "(":
            inner = self.parse_expr(0)
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected {t.text!r}" if t.text else "unexpected end of input", t.pos)


def parse(text: str, symbols: VariableSet) -> Expr:
    """Parse the surface grammar into a canonical Expr."""
    return _Parser(text, symbols).parse()


# ---------------------------------------------------------------------------
# printing


def _mono_str(m, c, py: dict | None = None):
    sign = "-" if c < 0 else "+"
    c = abs(c)
    parts = []
    if c != 1 or not m:
        if py is not None:
            parts.append(f"({c.numerator}/{c.denominator})" if c.denominator != 1 else str(c.numerator))
        else:
            parts.append(str(c))
    caret = "^" if py is None else "**"
    fn = "ln" if py is None else "log"
    for a, e in m:
        if isinstance(a, str):
            s = a if py is None else py.get(a, a)
        else:
            s = f"{fn}({_format(a.arg, py)})"
        if e > 1:
            s = f"{s}{caret}{e}"
        parts.append(s)
    return sign, "*".join(parts)


def _poly_str(p: Poly, py: dict | None = None) -> str:
    if p.is_zero():
        return "0"
    monos = sorted(p.terms.items(), key=lambda mc: mono_order_key(mc[0]))
    out = []
    for k, (m, c) in enumerate(monos):
        sign, body = _mono_str(m, c, py)
        if k == 0:
            out.append(body if sign == "+" else f"-{body}")
        else:
            out.append(f" {sign} {body}")
    return "".join(out)


def _format(e: Expr, py: dict | None = None) -> str:
    """Surface syntax when py is None, else Python source with symbols renamed by py."""
    ns = _poly_str(e.num, py)
    if e.den.is_one():
        return ns
    if len(e.num.terms) > 1:
        ns = f"({ns})"
    ds = _poly_str(e.den, py)
    den_terms = list(e.den.terms.items())
    simple = (
        len(den_terms) == 1
        and den_terms[0][1] == 1
        and len(den_terms[0][0]) == 1
        and den_terms[0][0][0][1] == 1
        and isinstance(den_terms[0][0][0][0], str)
    )
    if not simple:
        ds = f"({ds})"
    return f"{ns}/{ds}"


def format_expr(e: Expr) -> str:
    """Deterministic textual form; parse(format_expr(e)) == e."""
    return _format(e)


def _number_source(v) -> str:
    """A rational as a float literal, or as exact Python when no float holds it.

    Past the float range the exact literal is kept, so the arithmetic that
    uses it overflows when the code runs, inside a guarded evaluation,
    rather than while the code is built.
    """
    try:
        return repr(float(v))
    except OverflowError:
        return str(v.numerator) if v.denominator == 1 else f"({v.numerator}/{v.denominator})"


def python_source(e: Expr, py: dict) -> str:
    """Python source of e's float value, symbols renamed by py; ln is `log`."""
    return _number_source(e.const_value()) if e.is_constant() else _format(e, py)


def compile_exprs(exprs, symbols: VariableSet):
    """Fast float evaluator: a function of the symbols' values, returning a tuple.

    It takes the values in symbols.all_symbols() order.  Its parameters get
    generated names (_s0, _s1, ...) that no identifier can take, so symbols
    named like Python keywords or `log` compile too.
    """
    py = {name: f"_s{i}" for i, name in enumerate(symbols.all_symbols())}
    parts = [python_source(e, py) for e in exprs]
    tail = "," if len(parts) == 1 else ""
    src = f"def _f({', '.join(py.values())}):\n    return ({', '.join(parts)}{tail})"
    ns = {"log": math.log}
    exec(src, ns)
    return ns["_f"]
