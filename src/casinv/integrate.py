"""From degeneracy relations to invariants.

Each dependent row i of the structure matrix gives a differential form

    w_i = dx_i - sum_k gamma[i][k] dx_k      (k over pivot rows)

whose coefficients are the kernel vector of J that solve_gamma stores in
GammaMatrix.forms.  Its kernel contains the flow for every Hamiltonian, so
any potential C with dC proportional to w_i is an invariant.  The job here
is to make some multiple of w_i exact and integrate it:

1. w_i itself is closed (every defect, formed over the active variables
   only, is canonically zero): integrate directly.
2. A single integrating factor eta works: eta is a product of integer
   powers of factors read off the coefficients and of the variables.
   Closedness of eta * w_i is linear in the exponents, so they are solved
   for, and the eta found is certified by its potential: integrate_closed
   must reconstruct C with dC = eta * w_i exactly.
3. No single form can be fixed up (the obstruction w ^ dw != 0): closed
   combinations sum_i mu_i w_i are sought with each mu_i affine in the
   variables, again by solving the closedness conditions for the unknowns.

Both searches impose their linear conditions at random points modulo the
prime p = 2^31 - 1 (_sampled_rows; expr.residue values each Expr, and each
ln atom takes a random residue) and lift the nullspace of those rows to the
rationals with nullspace_fractions, unchecked.  The potential is the
certificate: an eta counts only once integrate_closed reconstructs C with
dC = eta * w_i exactly, and a combination only once its potential is
reconstructed.  So an unlucky point or a failed lift can cost a candidate,
never admit a wrong one.

Of the invariants found, the first n - rank independent ones are kept.
dC = lam * sum_f m_f w_f, where lam is the nonzero, variable-free scale that
normalize_invariant applies and m_f is eta at the candidate's own row (0 at
the others) or the combination's mu_f.  Each w_f has 1 in its own dependent
slot and 0 in the others, so the invariants are independent exactly when
their multiplier rows are.  A single form's row is eta times a unit row, so
once eta is nonzero (zero_verdict: its canonical form, or a sampled witness
when it has ln atoms) the unit row stands in for it.  A combination's mu_f
are affine with rational coefficients inside Wang's bound, so they always
have residues.  The rows are evaluated modulo the prime at one seeded point
and reduced in turn: a row that stays nonzero has a nonzero minor there, so
it is independent as a function; an unlucky point can only drop a
candidate, never admit a dependent one.

Potentials are reconstructed variable by variable, over the active ones
only (integrate in x1, correct the remainder, move on).  The antiderivative
routine covers denominators that are monomial in the integration variable
or linear in it; anything wilder raises rather than guessing.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

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
    residue,
    sample_points,
    symbol,
    zero_verdict,
)
from .gamma import GammaMatrix, solve_gamma
from .linalg import _rref_mod_p, nullspace_fractions
from .matrix import PivotDecomposition, StructureMatrix
from .poly import _PRIME, Poly

__all__ = [
    "NonElementaryError",
    "IntegrationError",
    "IntegratingFactor",
    "CasimirResult",
    "IntegrationResult",
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
class IntegratingFactor:
    """eta with eta * w exact, certified by its potential: d(potential) = eta * w."""

    expr: Expr
    # not-needed: eta = 1; reciprocal-coefficient: a product of at most two
    # factors read off the coefficients; monomial-search: any other product
    provenance: str
    potential: Expr


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
    notes: tuple


def _active(coeffs, names) -> tuple:
    """The variables some coefficient involves, and the indices of the active ones.

    x_a is active when its coefficient is nonzero or some coefficient involves
    it; a defect with an inactive member is identically zero.
    """
    found = set().union(*map(free_symbols, coeffs))
    involved = [v for v in names if v in found]
    return involved, [a for a, v in enumerate(names) if v in found or not coeffs[a].is_zero()]


def exactness_defects(coeffs, symbols: VariableSet) -> dict:
    """d[a,b] = d(coeffs[b])/dx_a - d(coeffs[a])/dx_b for active a < b; all zero iff closed.

    Pairs with an inactive member are omitted: their defect is identically zero.
    """
    names = symbols.variables
    return {
        (a, b): differentiate(coeffs[b], names[a], symbols)
        - differentiate(coeffs[a], names[b], symbols)
        for a, b in itertools.combinations(_active(coeffs, names)[1], 2)
    }


# -- integrating factor search -------------------------------------------------


def _factor_pool(coeffs) -> list:
    """Candidate eta factors read off the coefficients, deterministic order.

    A multi-term factor is split by its content in each symbol, recursively,
    so (x + y)*(z + 1) enters as x + y and z + 1.  Factors whose symbols do
    not separate, such as (x + y + z)*(x - y + 2*z), stay whole.
    """
    pool = []
    seen = set()

    def add(e: Expr):
        if e.is_constant() or e in seen:
            return
        seen.add(e)
        pool.append(e)

    def add_poly(p: Poly):
        mc = poly.mono_content(p)
        for atom, _ in mc:
            if isinstance(atom, str):
                add(symbol(atom))
        rest = poly.div_exact(p, Poly({mc: 1}))
        if rest is None or len(rest.terms) < 2:
            return
        for a in sorted((a for a in rest.atoms() if isinstance(a, str)), key=poly.atom_key):
            cont, pp = poly._content_pp(rest, a)
            if not cont.is_const():
                add_poly(cont)
                add_poly(pp)
                return
        add(_from_poly(poly.int_primitive(rest)))

    for c in coeffs:
        if c.is_zero() or c.is_constant():
            continue
        add_poly(c.num)
        add_poly(c.den)
    return pool


def _sampled_rows(rows_at, unknowns, active, symbols, domain, rng):
    """Rows mod _PRIME of a linear system in `unknowns` columns, imposed at random points.

    rows_at(value) gives the rows at one point, where value(e) is the residue
    of the Expr e there (see residue).  The points are random_point's draws
    taken mod _PRIME, and each ln atom takes its own random residue, so it
    counts as an independent unknown.  A point where a denominator vanishes
    mod _PRIME is skipped.  One point gives at most active - 1 independent
    rows, so ceil(unknowns / (active - 1)) + 1 usable points are sampled.
    Returns the nonzero rows, or None when fewer points are usable.
    """
    need = -(-unknowns // max(active - 1, 1)) + 1

    def rows_at_point(point):
        return [r for r in rows_at(lambda e: residue(e, point, rng)) if any(r)]

    batches = list(sample_points(symbols, domain, rng, need, rows_at_point, _PRIME))
    if len(batches) < need:
        return None
    return [r for rows in batches for r in rows]


def find_eta(
    coeffs,
    symbols: VariableSet,
    domain: Domain | None = None,
    seed: int = 0,
    defects: dict | None = None,
) -> IntegratingFactor | None:
    """Integrating factor for the 1-form with the given coefficients, and its potential.

    Returns eta = 1 with provenance "not-needed" when every defect is
    canonically zero; a potential outside the supported class then raises
    NonElementaryError.  Otherwise eta = prod f_k^e_k over factors read off
    the coefficients and the variables they involve; eta * w is closed iff

        d[a,b] + sum_k e_k (c_b df_k/dx_a - c_a df_k/dx_b) / f_k = 0

    for every pair a < b, which is linear in the exponents.  It is imposed
    at random points mod p and solved there.  An integer solution is returned
    only if integrate_closed finds a potential C with dC = eta * w exactly,
    which certifies it; otherwise the result is None.
    """
    if defects is None:
        defects = exactness_defects(coeffs, symbols)
    if all(d.is_zero() for d in defects.values()):
        return IntegratingFactor(EXPR_ONE, "not-needed", integrate_closed(coeffs, symbols))

    names = symbols.variables
    involved, active = _active(coeffs, names)
    pool = _factor_pool(coeffs)
    # parameters and parameter-only factors have zero gradient; variables once
    factors = [
        f for f in dict.fromkeys(pool + [symbol(v) for v in involved]) if free_symbols(f) & set(names)
    ]
    grads = [
        [(a, g) for a in active if not (g := differentiate(f, names[a], symbols)).is_zero()]
        for f in factors
    ]

    def rows_at(value):
        c = {a: value(coeffs[a]) for a in active}
        logd = []
        for f, gs in zip(factors, grads):
            fv = value(f)
            logd.append({a: value(g) * pow(fv, -1, _PRIME) for a, g in gs})
        return [
            [(c[b] * lg.get(a, 0) - c[a] * lg.get(b, 0)) % _PRIME for lg in logd]
            + [value(defects[(a, b)])]
            for a, b in itertools.combinations(active, 2)
        ]

    rng = random.Random(f"eta:{seed}")
    rows = _sampled_rows(rows_at, len(factors) + 1, len(active), symbols, domain or Domain(), rng)
    # the basis vector of the free defect column is RREF's particular solution
    sol = next((v for v in nullspace_fractions(rows or []) if v[-1]), None)
    if sol is None or any(e.denominator != 1 for e in sol):
        return None
    used = [(f, int(e)) for f, e in zip(factors, sol) if e]
    eta = EXPR_ONE
    for f, e in used:
        eta = eta * f**e
    try:
        potential = integrate_closed([eta * c for c in coeffs], symbols)
    except NonElementaryError:
        return None
    from_pool = len(used) <= 2 and all(f in pool for f, _ in used)
    return IntegratingFactor(
        eta, "reciprocal-coefficient" if from_pool else "monomial-search", potential
    )


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
    """Potential C with dC matching the closed 1-form, built variable by variable.

    Only the active variables (see _active) are walked: an inactive one has
    coefficient 0 and no antiderivative introduces it, so C is free of it.
    """
    names = symbols.variables
    active = [(a, names[a]) for a in _active(coeffs, names)[1]]
    c_total = EXPR_ZERO
    for idx, v in active:
        g = coeffs[idx] - differentiate(c_total, v, symbols)
        c_total = c_total + antiderivative(g, v, symbols)
    for idx, v in active:
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
        e = _reduce(e.num.scale(poly.quo(1, lc)), e.den, coprime=True)
    return e


# -- closed combinations of several forms ----------------------------------------


def _combination_solutions(forms, defect_maps, symbols: VariableSet, domain, seed):
    """Closed combinations sum_f mu_f w_f with each mu_f affine in the variables.

    Closedness is linear in the mu coefficients; imposed at random points
    mod p it gives a system whose nullspace, lifted, enumerates the
    solutions.  integrate_all keeps one only if its potential is exact.
    """
    names = symbols.variables
    n = len(names)
    nf = len(forms)
    xs = [symbol(v) for v in names]

    def rows_at(value):
        x = [value(e) for e in xs]
        w = [[value(c) for c in form] for form in forms]
        d = [{ab: value(e) for ab, e in dm.items()} for dm in defect_maps]
        rows = []
        for a, b in itertools.combinations(range(n), 2):
            row = []
            for fi in range(nf):
                dab = d[fi].get((a, b), 0)  # an omitted pair's defect is zero
                # mu_f = alpha + sum_v beta_v x_v: the alpha column, then one per beta_v
                row.append(dab)
                for v in range(n):
                    cross = (w[fi][b] if v == a else 0) - (w[fi][a] if v == b else 0)
                    row.append((x[v] * dab + cross) % _PRIME)
            rows.append(row)
        return rows

    rng = random.Random(f"combination:{seed}")
    rows = _sampled_rows(rows_at, nf * (n + 1), n, symbols, domain, rng)
    if rows is None:
        return []

    solutions = []
    for vec in nullspace_fractions(rows):
        mults = []
        for fi in range(nf):
            base = fi * (n + 1)
            mu = number(vec[base]) if vec[base] else EXPR_ZERO
            for v in range(n):
                cv = vec[base + 1 + v]
                if cv:
                    mu = mu + number(cv) * xs[v]
            mults.append(mu)
        combined = []
        for v in range(n):
            acc = EXPR_ZERO
            for fi in range(nf):
                if not mults[fi].is_zero() and not forms[fi][v].is_zero():
                    acc = acc + mults[fi] * forms[fi][v]
            combined.append(acc)
        solutions.append((combined, tuple(mults)))
    return solutions


# -- independence ----------------------------------------------------------------


def _joins(basis: list, row: list) -> bool:
    """Whether row is independent of basis mod _PRIME; if so it joins basis, kept in RREF."""
    trial = basis + [row]
    if len(_rref_mod_p(trial, len(row))) < len(trial):
        return False
    basis[:] = trial
    return True


def _independent(candidates, target, rows, symbols: VariableSet, domain, seed) -> list:
    """The first candidates, up to target, independent of those kept before them.

    Proved from the multiplier rows mod _PRIME (see the module docstring).  A
    single form's eta that zero_verdict does not find nonzero is skipped.
    """
    rng = random.Random(f"independence:{seed}")
    point = {s: rng.randrange(1, _PRIME) for s in symbols.all_symbols()}
    basis, kept = [], []
    for cand in candidates:
        if len(kept) == target:
            break
        if cand.eta is not None:
            eta_rng = random.Random(f"independence-eta:{seed}")
            if not zero_verdict(cand.eta, symbols, domain, rng=eta_rng).is_nonzero:
                continue
            row = [int(r == cand.rows[0]) for r in rows]
        else:
            mults = dict(cand.multipliers)
            row = [residue(mults.get(r, EXPR_ZERO), point) for r in rows]
        if _joins(basis, row):
            kept.append(cand)
    return kept


# -- orchestration ---------------------------------------------------------------


def integrate_all(
    mat: StructureMatrix,
    decomp: PivotDecomposition | None = None,
    gammas: GammaMatrix | None = None,
    seed: int = 0,
) -> IntegrationResult:
    """Find n - rank independent invariants for the structure matrix.

    decomp and gammas default to decompose and solve_gamma at their default
    settings and this seed.
    """
    if decomp is None:
        decomp = mat.decompose(seed=seed)
    if gammas is None:
        gammas = solve_gamma(mat, decomp, seed=seed)
    symbols = mat.symbols
    target = mat.n - decomp.rank
    forms = gammas.forms
    rows = decomp.dependent_rows_1based

    notes: list = []
    candidates = []
    defect_maps = [exactness_defects(form, symbols) for form in forms]
    for row, form, defects in zip(rows, forms, defect_maps):
        factor = find_eta(form, symbols, mat.domain, seed=seed, defects=defects)
        if factor is None:
            notes.append(f"row {row}: no single integrating factor, deferred to combinations")
            continue
        candidates.append(
            CasimirResult(
                expr=normalize_invariant(factor.potential, symbols),
                rows=(row,),
                provenance=factor.provenance,
                eta=factor.expr,
                multipliers=(),
            )
        )

    if len(candidates) < len(forms):  # some row was deferred
        solutions = _combination_solutions(forms, defect_maps, symbols, mat.domain, seed)
        notes.append(f"combination stage: {len(solutions)} closed combination(s)")
        for combined, mults in solutions:
            try:
                c_expr = integrate_closed(combined, symbols)
            except NonElementaryError as e:
                notes.append(f"combination skipped: {e}")
                continue
            row_mults = tuple((r, m) for r, m in zip(rows, mults) if not m.is_zero())
            candidates.append(
                CasimirResult(
                    expr=normalize_invariant(c_expr, symbols),
                    rows=tuple(r for r, _ in row_mults),
                    provenance="form-combination",
                    eta=None,
                    multipliers=row_mults,
                )
            )

    kept = _independent(candidates, target, rows, symbols, mat.domain, seed)
    if len(kept) < target:
        raise IntegrationError(
            f"expected {target} independent invariant(s) for rank {decomp.rank}, "
            f"but only {len(kept)} could be integrated"
        )
    return IntegrationResult(tuple(kept), target, tuple(notes))
