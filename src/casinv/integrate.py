"""From degeneracy relations to invariants.

Each dependent row i of the structure matrix gives a differential form

    w_i = dx_i - sum_k gamma[i][k] dx_k      (k over pivot rows)

whose kernel contains the flow for every Hamiltonian, so any potential C
with dC proportional to w_i is an invariant.  The job here is to make some
multiple of w_i exact and integrate it:

1. w_i itself is closed: integrate directly.
2. A single integrating factor eta works: searched among products of up to
   two factors read off the coefficients (exponents -2..2), then among pure
   monomials in the variables.  Candidates are screened numerically before
   any symbolic work.
3. No single form can be fixed up (the obstruction w ^ dw != 0): closed
   combinations sum_i mu_i w_i are sought with each mu_i affine in the
   variables, by exact linear algebra on the closedness conditions.

Potentials are reconstructed variable by variable (integrate in x1, correct
the remainder, move on).  The antiderivative routine covers denominators
that are monomial in the integration variable or linear in it; anything
wilder raises rather than guessing.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from . import poly
from .expr import (
    EXPR_ONE,
    EXPR_ZERO,
    Domain,
    Expr,
    VariableSet,
    _from_poly,
    _involves,
    _reduce,
    differentiate,
    free_symbols,
    ln_of,
    number,
    sample_values,
    symbol,
    zero_verdict,
)
from .gamma import GammaMatrix, solve_gamma
from .linalg import nullspace_fractions
from .matrix import PivotDecomposition, StructureMatrix
from .poly import MONO_SORT_KEY, Poly
from .verify import gradient_rank

__all__ = [
    "NonElementaryError",
    "IntegrationError",
    "PfaffianForm",
    "IntegratingFactor",
    "CasimirResult",
    "IntegrationResult",
    "build_forms",
    "exactness_defects",
    "find_eta",
    "antiderivative",
    "integrate_closed",
    "normalize_invariant",
    "integrate_all",
]


class NonElementaryError(Exception):
    """The potential falls outside the supported closed-form class."""


class IntegrationError(Exception):
    pass


@dataclass(frozen=True)
class PfaffianForm:
    dep_row: int  # 0-based
    coeffs: tuple  # length n, Expr per variable; own slot carries 1


@dataclass(frozen=True)
class IntegratingFactor:
    expr: Expr
    provenance: str  # not-needed | reciprocal-coefficient | monomial-search


@dataclass(frozen=True)
class CasimirResult:
    expr: Expr  # normalized invariant
    rows: tuple  # contributing dependent rows, 1-based
    provenance: str  # factor provenance, or form-combination
    eta: Expr | None  # single-form integrating factor
    multipliers: tuple  # ((row, Expr), ...) for the combination route


@dataclass(frozen=True)
class IntegrationResult:
    casimirs: tuple
    target: int  # expected count: n - rank
    forms: tuple
    notes: tuple


def build_forms(mat: StructureMatrix, decomp: PivotDecomposition, gammas: GammaMatrix) -> tuple:
    n = mat.n
    out = []
    for i in decomp.dependent_rows:
        coeffs = [EXPR_ZERO] * n
        coeffs[i] = EXPR_ONE
        for k in decomp.pivot_rows:
            coeffs[k] = -gammas.coeffs[(i, k)]
        out.append(PfaffianForm(i, tuple(coeffs)))
    return tuple(out)


def exactness_defects(coeffs, symbols: VariableSet) -> dict:
    """d[a,b] = d(coeffs[b])/dx_a - d(coeffs[a])/dx_b for a < b; all zero iff closed."""
    names = symbols.variables
    n = len(names)
    out = {}
    for a in range(n):
        for b in range(a + 1, n):
            out[(a, b)] = differentiate(coeffs[b], names[a], symbols) - differentiate(
                coeffs[a], names[b], symbols
            )
    return out


def _defects_vanish(defects, symbols, domain, seed) -> bool:
    for (a, b), d in sorted(defects.items()):
        if d.is_zero():
            continue
        rng = random.Random(f"closed:{seed}:{a}:{b}")
        v = zero_verdict(d, symbols, domain, rng=rng)
        if v.is_nonzero:
            return False
    return True


# -- integrating factor search -------------------------------------------------


def _factor_pool(coeffs) -> list:
    """Candidate eta factors read off the coefficients, deterministic order."""
    pool = []
    seen = set()

    def add(e: Expr):
        if e.is_constant() or e in seen:
            return
        seen.add(e)
        pool.append(e)

    for c in coeffs:
        if c.is_zero() or c.is_constant():
            continue
        for p in (c.num, c.den):
            mc = poly.mono_content(p)
            for atom, _ in mc:
                if isinstance(atom, str):
                    add(symbol(atom))
            rest = poly.div_exact(p, Poly({mc: Fraction(1)}))
            if rest is not None and len(rest.terms) > 1:
                add(_from_poly(poly.int_primitive(rest)))
    return pool


def _prefilter_points(coeffs, defects, pool, symbols, domain, seed, count=2):
    """Numeric snapshots used to screen eta candidates cheaply."""
    names = symbols.variables
    n = len(names)
    grads = [differentiate(f, v, symbols) for f in pool for v in names]
    exprs = [*coeffs, *defects.values(), *pool, *grads]
    nc, nd, nf = len(coeffs), len(defects), len(pool)
    rng = random.Random(f"eta-prefilter:{seed}")
    snaps = []
    for pt, vals in sample_values(exprs, symbols, domain, rng, 50 * count):
        fv = vals[nc + nd : nc + nd + nf]
        if any(abs(v) < 1e-9 for v in fv):
            continue
        gv = vals[nc + nd + nf :]
        snaps.append(
            {
                "c": vals[:nc],
                "d": dict(zip(defects, vals[nc : nc + nd])),
                "f": fv,
                "g": [gv[i * n : (i + 1) * n] for i in range(nf)],
                "x": [float(pt[v]) for v in names],
                "n": n,
            }
        )
        if len(snaps) == count:
            break
    return snaps


def _numeric_screen(snaps, log_deriv) -> bool:
    """Check d[a,b] + c_b L_a - c_a L_b ~ 0 at every snapshot; L = eta'/eta."""
    for s in snaps:
        L = log_deriv(s)
        for (a, b), d in s["d"].items():
            r = d + s["c"][b] * L[a] - s["c"][a] * L[b]
            scale = 1.0 + abs(d) + abs(s["c"][b] * L[a]) + abs(s["c"][a] * L[b])
            if abs(r) > 1e-6 * scale:
                return False
    return True


def _certify_eta(eta, coeffs, symbols, domain, seed) -> bool:
    scaled = [eta * c for c in coeffs]
    return _defects_vanish(exactness_defects(scaled, symbols), symbols, domain, seed)


_EXPONENTS = (1, -1, 2, -2)


def find_eta(
    coeffs,
    symbols: VariableSet,
    domain: Domain | None = None,
    seed: int = 0,
    defects: dict | None = None,
    notes: list | None = None,
) -> IntegratingFactor | None:
    """Integrating factor for the 1-form with the given coefficients, or None.

    Returns eta = 1 with provenance "not-needed" when the form is already
    closed; otherwise searches factor products, then pure variable
    monomials.  Every candidate that survives the numeric screen is
    certified symbolically before being returned.
    """
    domain = domain or Domain()
    if defects is None:
        defects = exactness_defects(coeffs, symbols)
    if _defects_vanish(defects, symbols, domain, seed):
        return IntegratingFactor(EXPR_ONE, "not-needed")

    pool = _factor_pool(coeffs)
    snaps = _prefilter_points(coeffs, defects, pool, symbols, domain, seed)
    if not snaps:
        if notes is not None:
            notes.append("eta search skipped: no usable numeric sample points")
        return None

    # products of one or two pool factors
    combos = [((i,), (e,)) for i in range(len(pool)) for e in _EXPONENTS]
    combos += [
        ((i, j), (e1, e2))
        for i, j in itertools.combinations(range(len(pool)), 2)
        for e1 in _EXPONENTS
        for e2 in _EXPONENTS
    ]
    for idxs, exps in combos:

        def log_deriv(s, idxs=idxs, exps=exps):
            return [
                sum(e * s["g"][i][a] / s["f"][i] for i, e in zip(idxs, exps))
                for a in range(s["n"])
            ]

        if not _numeric_screen(snaps, log_deriv):
            continue
        eta = EXPR_ONE
        for i, e in zip(idxs, exps):
            eta = eta * pool[i] ** e
        if _certify_eta(eta, coeffs, symbols, domain, seed):
            return IntegratingFactor(eta, "reciprocal-coefficient")

    # pure monomials in the active variables
    names = symbols.variables
    active = [v for v in range(len(names)) if any(_involves(c, names[v]) for c in coeffs)]
    if 5 ** len(active) > 200_000:
        if notes is not None:
            notes.append("monomial eta sweep skipped: too many variables")
        return None
    grid = sorted(
        itertools.product(range(-2, 3), repeat=len(active)),
        key=lambda p: (sum(abs(q) for q in p), p),
    )
    for p in grid:
        if not any(p):
            continue

        def log_deriv(s, p=p):
            L = [0.0] * s["n"]
            for col, v in enumerate(active):
                L[v] = p[col] / s["x"][v]
            return L

        if not _numeric_screen(snaps, log_deriv):
            continue
        eta = EXPR_ONE
        for col, v in enumerate(active):
            if p[col]:
                eta = eta * symbol(names[v]) ** p[col]
        if _certify_eta(eta, coeffs, symbols, domain, seed):
            return IntegratingFactor(eta, "monomial-search")
    return None


# -- potential reconstruction ---------------------------------------------------


def antiderivative(g: Expr, v: str, symbols: VariableSet) -> Expr:
    """Antiderivative of g with respect to variable v (constant chosen zero).

    Handles denominators that are free of v, monomial in v, or linear in v.
    A ln atom whose argument involves v, or a denominator mixing v-powers
    with other v-dependence, is outside the class and raises.
    """
    if g.is_zero():
        return EXPR_ZERO
    for p in (g.num, g.den):
        for a in p.atoms():
            if not isinstance(a, str) and _involves(a.arg, v):
                raise NonElementaryError(
                    f"cannot integrate through ln(...) depending on {v}"
                )

    num, den = g.num, g.den
    dparts = poly.split_by_atom(den, v)

    if set(dparts) == {0}:  # denominator free of v
        acc = Poly.zero()
        for k, coef in poly.split_by_atom(num, v).items():
            acc = acc + coef * Poly.atom(v, k + 1).scale(Fraction(1, k + 1))
        return _reduce(acc, den)

    if len(dparts) == 1:  # denominator is v^k * E with E free of v
        (k,) = dparts
        e_part = dparts[k]
        total = EXPR_ZERO
        for j, coef in sorted(poly.split_by_atom(num, v).items()):
            piece = _reduce(coef, e_part)
            d = j - k
            if d == -1:
                total = total + piece * ln_of(symbol(v))
            else:
                total = total + piece * symbol(v) ** (d + 1) * number(Fraction(1, d + 1))
        return total

    if sorted(dparts) == [0, 1]:  # denominator linear in v: P*v + Q
        p_coef = _from_poly(dparts[1])
        lin = _from_poly(den)
        cur = _from_poly(num)
        total = EXPR_ZERO
        while True:
            deg = cur.num.degree_in(v)
            if deg == 0 or cur.is_zero():
                break
            top = _reduce(poly.split_by_atom(cur.num, v)[deg], cur.den)
            t = top / p_coef
            total = total + t * symbol(v) ** deg * number(Fraction(1, deg))
            cur = cur - t * symbol(v) ** (deg - 1) * lin
        if not cur.is_zero():
            total = total + (cur / p_coef) * ln_of(lin)
        return total

    raise NonElementaryError(
        f"denominator mixes {v}-powers with other {v}-dependence; "
        "no closed form in the supported class"
    )


def integrate_closed(coeffs, symbols: VariableSet) -> Expr:
    """Potential C with dC matching the closed 1-form, built variable by variable."""
    c_total = EXPR_ZERO
    for idx, v in enumerate(symbols.variables):
        g = coeffs[idx] - differentiate(c_total, v, symbols)
        c_total = c_total + antiderivative(g, v, symbols)
    for idx, v in enumerate(symbols.variables):
        residual = differentiate(c_total, v, symbols) - coeffs[idx]
        if not residual.is_zero():
            raise NonElementaryError(
                f"reconstruction residual in d/d{v} is not identically zero; "
                "the form is not closed over the supported class"
            )
    return c_total


def normalize_invariant(e: Expr, symbols: VariableSet) -> Expr:
    """Fix the scale: drop a variable-free denominator, lead with coefficient 1."""
    if e.is_zero():
        return e
    den_syms = free_symbols(_from_poly(e.den))
    if not den_syms.intersection(symbols.variables):
        e = _from_poly(e.num)
    lc = e.num.leading()[1]
    if lc != 1:
        e = _reduce(e.num.scale(1 / lc), e.den, coprime=True)
    return e


# -- closed combinations of several forms ----------------------------------------


def _combination_solutions(forms, defect_map, symbols: VariableSet):
    """Closed combinations sum_f mu_f w_f with each mu_f affine in the variables.

    Closedness is linear in the mu coefficients; matching every monomial of
    the cleared equations gives an exact rational system whose nullspace
    enumerates all solutions.
    """
    names = symbols.variables
    n = len(names)
    nf = len(forms)
    width = nf * (n + 1)

    def u_alpha(f):
        return f * (n + 1)

    def u_beta(f, v):
        return f * (n + 1) + 1 + v

    rows = []
    for a in range(n):
        for b in range(a + 1, n):
            coeff_exprs = [EXPR_ZERO] * width
            for fi, form in enumerate(forms):
                d = defect_map[fi][(a, b)]
                wa, wb = form.coeffs[a], form.coeffs[b]
                coeff_exprs[u_alpha(fi)] = d
                for v in range(n):
                    term = symbol(names[v]) * d
                    if v == a:
                        term = term + wb
                    if v == b:
                        term = term - wa
                    coeff_exprs[u_beta(fi, v)] = term
            dens = [k.den for k in coeff_exprs if not k.is_zero()]
            if not dens:
                continue
            common = reduce(poly.lcm, dens)
            cleared = []
            for k in coeff_exprs:
                if k.is_zero():
                    cleared.append(Poly.zero())
                else:
                    cleared.append(k.num * poly.div_exact(common, k.den))
            monos = sorted(
                set().union(*(set(p.terms) for p in cleared)), key=MONO_SORT_KEY
            )
            for m in monos:
                rows.append([p.terms.get(m, Fraction(0)) for p in cleared])

    solutions = []
    for vec in nullspace_fractions(rows):
        mults = []
        for fi in range(nf):
            mu = number(vec[u_alpha(fi)]) if vec[u_alpha(fi)] else EXPR_ZERO
            for v in range(n):
                cv = vec[u_beta(fi, v)]
                if cv:
                    mu = mu + number(cv) * symbol(names[v])
            mults.append(mu)
        combined = []
        for v in range(n):
            acc = EXPR_ZERO
            for fi in range(nf):
                if not mults[fi].is_zero() and not forms[fi].coeffs[v].is_zero():
                    acc = acc + mults[fi] * forms[fi].coeffs[v]
            combined.append(acc)
        if all(c.is_zero() for c in combined):
            continue
        solutions.append((combined, tuple(mults)))
    return solutions


# -- orchestration ---------------------------------------------------------------


def integrate_all(
    mat: StructureMatrix,
    decomp: PivotDecomposition | None = None,
    gammas: GammaMatrix | None = None,
    seed: int = 0,
    samples: int = 20,
    tol: float = 1e-9,
) -> IntegrationResult:
    """Find n - rank independent invariants for the structure matrix."""
    if decomp is None:
        decomp = mat.decompose(seed=seed, tol=tol)
    if gammas is None:
        gammas = solve_gamma(mat, decomp, samples=samples, tol=tol, seed=seed)
    symbols = mat.symbols
    target = mat.n - decomp.rank
    forms = build_forms(mat, decomp, gammas)

    notes: list = []
    candidates = []
    pending = []
    defect_map = {}
    for fi, form in enumerate(forms):
        defects = exactness_defects(form.coeffs, symbols)
        defect_map[fi] = defects
        factor = find_eta(
            form.coeffs, symbols, mat.domain, seed=seed, defects=defects, notes=notes
        )
        if factor is None:
            pending.append(fi)
            notes.append(
                f"row {form.dep_row + 1}: no single integrating factor, deferred to combinations"
            )
            continue
        if factor.expr == EXPR_ONE:
            scaled = list(form.coeffs)
        else:
            scaled = [factor.expr * c for c in form.coeffs]
        c_expr = integrate_closed(scaled, symbols)
        candidates.append(
            CasimirResult(
                expr=normalize_invariant(c_expr, symbols),
                rows=(form.dep_row + 1,),
                provenance=factor.provenance,
                eta=factor.expr,
                multipliers=(),
            )
        )

    if pending:
        solutions = _combination_solutions(forms, defect_map, symbols)
        notes.append(f"combination stage: {len(solutions)} closed combination(s)")
        for combined, mults in solutions:
            try:
                c_expr = integrate_closed(combined, symbols)
            except NonElementaryError as e:
                notes.append(f"combination skipped: {e}")
                continue
            row_mults = tuple(
                (forms[fi].dep_row + 1, mults[fi])
                for fi in range(len(forms))
                if not mults[fi].is_zero()
            )
            candidates.append(
                CasimirResult(
                    expr=normalize_invariant(c_expr, symbols),
                    rows=tuple(r for r, _ in row_mults),
                    provenance="form-combination",
                    eta=None,
                    multipliers=row_mults,
                )
            )

    kept = []
    kept_exprs = []
    for cand in candidates:
        if len(kept) == target:
            break
        if cand.expr.is_zero():
            continue
        trial = kept_exprs + [cand.expr]
        if gradient_rank(trial, symbols, mat.domain, seed=seed) == len(trial):
            kept.append(cand)
            kept_exprs.append(cand.expr)

    if len(kept) < target:
        raise IntegrationError(
            f"expected {target} independent invariant(s) for rank {decomp.rank}, "
            f"but only {len(kept)} could be integrated"
        )
    return IntegrationResult(tuple(kept), target, forms, tuple(notes))
