"""Sparse multivariate polynomial arithmetic over exact rationals.

A polynomial is a mapping from monomials to nonzero rational coefficients.
A coefficient is an int when it is integral and a Fraction otherwise; the
two compare and hash alike, and ints keep the common case (integer
coefficients) off Fraction arithmetic.  Every coefficient division goes
through `quo`, so no quotient is ever a float.  A monomial is a sorted tuple
of (atom, exponent) pairs with positive integer exponents.  Atoms are either
plain strings (symbols) or opaque objects that expose a `sort_key` attribute
(logarithm atoms, defined in expr.py); this module never looks inside an atom
beyond identity, hashing and ordering.

Monomials are ordered graded-lexicographically: total degree first, then the
exponent vectors compared atom-by-atom in ascending atom order, where the
first differing exponent decides (bigger exponent wins).  This is a proper
monomial order (multiplicative, with 1 minimal), which exact division and the
GCD routines below rely on.  `mono_order_key` realises it as a tuple key,
(-degree, ((atom_key, -exponent), ...)), under which the leading monomial is
the smallest.

GCD settles a single-term input in closed form: every factor of a monomial
is a monomial up to a unit, and a monomial divides a polynomial exactly when
it divides the polynomial's monomial content, so the gcd is the monomial
with each exponent capped at the other input's.  Otherwise it first tries to
certify that the inputs are coprime, the common case: for
each atom both contain, it fixes the other atoms at seeded values modulo a
word-size prime and checks that the two univariate images keep their degree
and are coprime.  A common factor of positive degree in that atom would
survive into both images, so passing for every shared atom proves the gcd
is 1.  Otherwise it falls back to the classical primitive
polynomial-remainder sequence: recurse on the largest atom, split content
from primitive part, and run a pseudo-remainder Euclid on the primitive
parts, removing integer content at each step so coefficients stay small.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# monomial: tuple of (atom, exp), sorted by atom_key, exp >= 1
MONO_ONE: tuple = ()


def atom_key(atom):
    """Total order key for atoms: strings first (alphabetical), then ln atoms."""
    if isinstance(atom, str):
        return (0, atom)
    return (1, atom.sort_key)


def mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    while i < len(m1) and j < len(m2):
        a1, e1 = m1[i]
        a2, e2 = m2[j]
        k1, k2 = atom_key(a1), atom_key(a2)
        if k1 == k2:
            out.append((a1, e1 + e2))
            i += 1
            j += 1
        elif k1 < k2:
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def mono_div(m1, m2):
    """m1 / m2, or None when not divisible."""
    if not m2:
        return m1
    rem = dict(m1)
    for a, e in m2:
        have = rem.get(a, 0)
        if have < e:
            return None
        if have == e:
            del rem[a]
        else:
            rem[a] = have - e
    return tuple(sorted(rem.items(), key=lambda ae: atom_key(ae[0])))


def mono_order_key(m):
    """Key of the graded-lex order, reversed: the leading monomial has the smallest key."""
    degree, pairs = 0, []
    for a, e in m:
        degree += e
        pairs.append((atom_key(a), -e))
    return (-degree, tuple(pairs))


def mono_key(m):
    """Hashable, deterministically comparable key for a monomial."""
    return tuple((atom_key(a), e) for a, e in m)


def _coef(c):
    """An int or Fraction coefficient as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def quo(a, b):
    """The exact quotient a / b of int or Fraction values: an int when integral, never a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _coef(a / b)


class Poly:
    """Immutable sparse polynomial.  Do not mutate `terms` after creation."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {m: c if type(c) is int else _coef(c) for m, c in terms.items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _ONE

    @staticmethod
    def const(c) -> "Poly":
        return Poly({MONO_ONE: c if type(c) is int else Fraction(c)}) if c else _ZERO

    @staticmethod
    def atom(a, e: int = 1) -> "Poly":
        assert e >= 1
        return Poly({((a, e),): 1})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and MONO_ONE in self.terms)

    def is_one(self) -> bool:
        return self.terms.get(MONO_ONE) == 1 and len(self.terms) == 1

    def const_value(self):
        """The constant's value, an int or a Fraction."""
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return self.terms.get(MONO_ONE, 0)

    # -- inspection --------------------------------------------------------

    def atoms(self) -> set:
        out = set()
        for m in self.terms:
            for a, _ in m:
                out.add(a)
        return out

    def degree_in(self, a) -> int:
        best = 0
        for m in self.terms:
            for at, e in m:
                if at == a and e > best:
                    best = e
        return best

    def leading(self):
        """(monomial, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        m = min(self.terms, key=mono_order_key)
        return m, self.terms[m]

    def monomial_count(self) -> int:
        return len(self.terms)

    def sort_key(self):
        items = sorted(
            ((mono_key(m), (c.numerator, c.denominator)) for m, c in self.terms.items())
        )
        return tuple(items)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = out.get(m, 0) + c
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.terms or not other.terms:
            return _ZERO
        if other.is_one():
            return self
        if self.is_one():
            return other
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                v = out.get(m, 0) + c1 * c2
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return Poly(out)

    def scale(self, c) -> "Poly":
        if not c:
            return _ZERO
        if c == 1:
            return self
        return Poly({m: cc * c for m, cc in self.terms.items()})

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = _ONE
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"Poly({self.terms!r})"


_ZERO = Poly.__new__(Poly)
_ZERO.terms = {}
_ONE = Poly.__new__(Poly)
_ONE.terms = {MONO_ONE: 1}


# -- exact division ---------------------------------------------------------


def div_exact(f: Poly, g: Poly):
    """Quotient f/g when g divides f exactly, else None."""
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if f.is_zero():
        return _ZERO
    if g.is_one():
        return f
    if g.is_const():
        return f.scale(quo(1, g.const_value()))
    glm, glc = g.leading()
    q: dict = {}
    r = dict(f.terms)
    while r:
        rlm = min(r, key=mono_order_key)
        t = mono_div(rlm, glm)
        if t is None:
            return None
        c = quo(r[rlm], glc)
        q[t] = q.get(t, 0) + c
        for gm, gc in g.terms.items():
            m = mono_mul(t, gm)
            v = r.get(m, 0) - c * gc
            if v:
                r[m] = v
            else:
                r.pop(m, None)
    return Poly(q)


# -- univariate views (used by pseudo-division and the integrator) ----------


def split_by_atom(f: Poly, a) -> dict:
    """View f as a polynomial in atom `a`: exponent -> coefficient Poly."""
    out: dict = {}
    for m, c in f.terms.items():
        e = 0
        rest = []
        for at, ee in m:
            if at == a:
                e = ee
            else:
                rest.append((at, ee))
        d = out.setdefault(e, {})
        rest_t = tuple(rest)
        d[rest_t] = d.get(rest_t, 0) + c
    return {e: Poly(d) for e, d in out.items() if any(d.values())}


def join_by_atom(parts: dict, a) -> Poly:
    out: dict = {}
    for e, p in parts.items():
        mult = ((a, e),) if e else MONO_ONE
        for m, c in p.terms.items():
            mm = mono_mul(m, mult)
            v = out.get(mm, 0) + c
            if v:
                out[mm] = v
            else:
                out.pop(mm, None)
    return Poly(out)


def _prem(f: Poly, g: Poly, a) -> Poly:
    """Pseudo-remainder of f by g with respect to atom `a`."""
    G = split_by_atom(g, a)
    dg = max(G)
    lg = G[dg]
    R = split_by_atom(f, a)
    while R and max(R) >= dg:
        dr = max(R)
        lr = R[dr]
        shift = dr - dg
        newR: dict = {}
        for e, p in R.items():
            newR[e] = p * lg
        for e, p in G.items():
            tgt = e + shift
            prior = newR.get(tgt, _ZERO)
            newR[tgt] = prior - lr * p
        R = {e: p for e, p in newR.items() if not p.is_zero()}
    return join_by_atom(R, a)


# -- gcd ---------------------------------------------------------------------


def int_primitive(f: Poly) -> Poly:
    """Scale f to integer coefficients with content 1 and positive leading coeff."""
    if f.is_zero():
        return f
    den = math.lcm(*(c.denominator for c in f.terms.values()))
    if den != 1:
        f = f.scale(den)
    content = math.gcd(*f.terms.values())
    if f.leading()[1] < 0:
        content = -content
    if content == 1:
        return f
    return Poly({m: c // content for m, c in f.terms.items()})


def _content_pp(f: Poly, a):
    """Content (gcd of coefficients w.r.t. atom a) and primitive part."""
    parts = split_by_atom(f, a)
    cont = _ZERO
    for e in sorted(parts):
        cont = gcd(cont, parts[e])
        if cont.is_one():
            break
    if cont.is_one():
        return cont, f
    pp = {e: div_exact(p, cont) for e, p in parts.items()}
    return cont, join_by_atom(pp, a)


_PRIME = 2**31 - 1
# the k-th atom in atom_key order takes _POINTS[k % 64]; any values are sound
_POINTS = tuple(random.Random("poly.gcd").sample(range(1, _PRIME), 64))


def _image(f: Poly, a, value: dict) -> list:
    """Coefficients mod _PRIME, by degree, of f in `a` with every other atom set to value[atom]."""
    out = [0] * (f.degree_in(a) + 1)
    for m, c in f.terms.items():
        e, t = 0, c.numerator
        for at, ee in m:
            if at == a:
                e = ee
            else:
                t = t * pow(value[at], ee, _PRIME)
        out[e] = (out[e] + t) % _PRIME
    return out


def _coprime_mod_p(u: list, v: list) -> bool:
    """Whether two univariate polynomials mod _PRIME (coefficients by degree) are coprime."""
    while v:
        inv = pow(v[-1], -1, _PRIME)
        while len(u) >= len(v):
            q = u[-1] * inv % _PRIME
            shift = len(u) - len(v)
            for i, c in enumerate(v):
                u[shift + i] = (u[shift + i] - q * c) % _PRIME
            while u and not u[-1]:
                u.pop()
        u, v = v, u
    return len(u) == 1


def certify_coprime(f: Poly, g: Poly) -> bool:
    """True only if the nonzero integer polynomials f and g are coprime.

    For every atom both contain, the other atoms are fixed at seeded values
    mod _PRIME.  A common factor of positive degree in that atom keeps its
    degree in both images whenever both leading coefficients survive, so
    coprime images for every shared atom prove gcd(f, g) = 1.  False means
    only that this test could not tell.
    """
    fatoms, gatoms = f.atoms(), g.atoms()
    atoms = sorted(fatoms | gatoms, key=atom_key)
    value = {a: _POINTS[k % len(_POINTS)] for k, a in enumerate(atoms)}
    for a in atoms:
        if a in fatoms and a in gatoms:
            fa, ga = _image(f, a, value), _image(g, a, value)
            if not fa[-1] or not ga[-1] or not _coprime_mod_p(fa, ga):
                return False
    return True


def gcd(f: Poly, g: Poly) -> Poly:
    """GCD normalized to integer-primitive form with positive leading coefficient."""
    if f.is_zero():
        return int_primitive(g) if not g.is_zero() else _ZERO
    if g.is_zero():
        return int_primitive(f)
    f = int_primitive(f)
    g = int_primitive(g)
    if f.is_const() or g.is_const():
        return _ONE
    if f == g:
        return f
    if len(g.terms) == 1:
        f, g = g, f
    if len(f.terms) == 1:
        (m,) = f.terms
        cap = dict(mono_content(g))
        shared = tuple((a, min(e, cap[a])) for a, e in m if a in cap)
        return Poly({shared: 1}) if shared else _ONE
    if certify_coprime(f, g):
        return _ONE
    return _gcd_prs(f, g)


def _gcd_prs(f: Poly, g: Poly) -> Poly:
    """The primitive remainder sequence gcd of non-constant integer-primitive f and g."""
    universe = f.atoms() | g.atoms()
    a = max(universe, key=atom_key)
    cf, pf = _content_pp(f, a)
    cg, pg = _content_pp(g, a)
    c = gcd(cf, cg)
    A, B = pf, pg
    if A.degree_in(a) < B.degree_in(a):
        A, B = B, A
    while True:
        if B.is_zero():
            h = int_primitive(A)
            break
        if B.degree_in(a) == 0:
            h = _ONE
            break
        R = _prem(A, B, a)
        if R.is_zero():
            A, B = B, _ZERO
        else:
            A, B = B, int_primitive(_content_pp(R, a)[1])
    return int_primitive(c * h)


def mono_content(f: Poly):
    """Largest monomial dividing every term of f (the monomial part of its content)."""
    it = iter(f.terms)
    try:
        first = next(it)
    except StopIteration:
        return MONO_ONE
    common = dict(first)
    for m in it:
        if not common:
            break
        md = dict(m)
        for a in list(common):
            e = md.get(a, 0)
            if e == 0:
                del common[a]
            elif e < common[a]:
                common[a] = e
    return tuple(sorted(common.items(), key=lambda ae: atom_key(ae[0])))
