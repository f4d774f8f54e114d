"""Sparse multivariate polynomial arithmetic over exact rationals.

A polynomial is a mapping from monomials to nonzero Fraction coefficients.
A monomial is a sorted tuple of (atom, exponent) pairs with positive integer
exponents.  Atoms are either plain strings (symbols) or opaque objects that
expose a `sort_key` attribute (logarithm atoms, defined in expr.py); this
module never looks inside an atom beyond identity, hashing and ordering.

Monomials are ordered graded-lexicographically: total degree first, then the
exponent vectors compared atom-by-atom in ascending atom order, where the
first differing exponent decides (bigger exponent wins).  This is a proper
monomial order (multiplicative, with 1 minimal), which exact division and the
GCD routines below rely on.

GCD is the classical primitive polynomial-remainder-sequence algorithm:
recurse on the largest atom, split content from primitive part, and run a
pseudo-remainder Euclid on the primitive parts.  Slow in theory, entirely
adequate for the small expressions this package manipulates.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

F0 = Fraction(0)
F1 = Fraction(1)

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


def mono_degree(m):
    return sum(e for _, e in m)


def mono_cmp(m1, m2):
    """Graded-lex comparison; returns -1, 0 or 1."""
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


MONO_SORT_KEY = functools.cmp_to_key(mono_cmp)


def mono_key(m):
    """Hashable, deterministically comparable key for a monomial."""
    return tuple((atom_key(a), e) for a, e in m)


class Poly:
    """Immutable sparse polynomial.  Do not mutate `terms` after creation."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {m: c for m, c in terms.items() if c}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO

    @staticmethod
    def one() -> "Poly":
        return _ONE

    @staticmethod
    def const(c) -> "Poly":
        c = Fraction(c)
        return Poly({MONO_ONE: c}) if c else _ZERO

    @staticmethod
    def atom(a, e: int = 1) -> "Poly":
        assert e >= 1
        return Poly({((a, e),): F1})

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and MONO_ONE in self.terms)

    def is_one(self) -> bool:
        return self.terms.get(MONO_ONE) == F1 and len(self.terms) == 1

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("not a constant polynomial")
        return self.terms.get(MONO_ONE, F0)

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
        m = max(self.terms, key=MONO_SORT_KEY)
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
            v = out.get(m, F0) + c
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
                v = out.get(m, F0) + c1 * c2
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return _ZERO
        if c == F1:
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
_ONE.terms = {MONO_ONE: F1}


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
        return f.scale(F1 / g.const_value())
    glm, glc = g.leading()
    q: dict = {}
    r = dict(f.terms)
    while r:
        rlm = max(r, key=MONO_SORT_KEY)
        t = mono_div(rlm, glm)
        if t is None:
            return None
        c = r[rlm] / glc
        q[t] = q.get(t, F0) + c
        for gm, gc in g.terms.items():
            m = mono_mul(t, gm)
            v = r.get(m, F0) - c * gc
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
        d[rest_t] = d.get(rest_t, F0) + c
    return {e: Poly(d) for e, d in out.items() if any(d.values())}


def join_by_atom(parts: dict, a) -> Poly:
    out: dict = {}
    for e, p in parts.items():
        mult = ((a, e),) if e else MONO_ONE
        for m, c in p.terms.items():
            mm = mono_mul(m, mult)
            v = out.get(mm, F0) + c
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
    den_l = 1
    for c in f.terms.values():
        den_l = den_l * c.denominator // math.gcd(den_l, c.denominator)
    num_g = 0
    for c in f.terms.values():
        num_g = math.gcd(num_g, abs(c.numerator))
    scale = Fraction(den_l, num_g)
    out = f.scale(scale)
    _, lc = out.leading()
    if lc < 0:
        out = out.scale(-1)
    return out


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
            A, B = B, _content_pp(R, a)[1]
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
