"""From degeneracy relations to invariants.

Each dependent row i of the structure matrix gives a differential form

    w_i = dx_i - sum_k gamma[i][k] dx_k      (k over pivot rows)

whose coefficients are the kernel vector of J that solve_gamma stores in
GammaMatrix.forms.  Its kernel contains the flow for every Hamiltonian, so
any potential C with dC proportional to w_i is an invariant.  The job here
is to make some multiple of w_i exact and integrate it:

1. w_i itself is closed: every defect d[a,b] = dc_b/dx_a - dc_a/dx_b,
   over the active variables only, vanishes.  Integrate directly.
2. A single integrating factor eta works: eta is a product of integer
   powers of factors read off the coefficients and of the variables.
   Closedness of eta * w_i is linear in the exponents, so they are solved
   for, and the eta found is certified by its potential: integrate_closed
   must reconstruct C with dC = eta * w_i exactly.
3. No single form can be fixed up: if eta * w is closed then w ^ dw = 0
   (Frobenius), so a nonzero w ^ dw rules every eta out.  Closed
   combinations sum_i mu_i w_i are then sought with each mu_i affine in the
   variables, again by solving the closedness conditions for the unknowns.

Everything the searches decide is decided from residues modulo the prime
p = 2^31 - 1 at random points over the symbols the forms involve.
expr.residue, the one evaluator mod p, gives each coefficient's residue
together with its partials in the active variables (forward mode: product,
quotient and chain rules over the terms, each ln atom a random residue), so
the defects, w ^ dw and the factors' log-derivatives are residues too, and
no symbolic derivative or gcd enters a search.  find_eta decides steps 1 and
3 at its first usable point, before it reads any factor off the
coefficients: all defects 0 there means closed (integrate_closed's exact
residual check is the proof), and a nonzero component of w ^ dw means no
eta.  Otherwise both searches impose their linear conditions at enough
points (_sampled_rows) and lift the nullspace of those rows to the
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

A polynomial form (unit denominators, no ln of a variable) gets its
potential over Poly from the homotopy formula, certified by exact Poly
equality of its partials with the coefficients.  Any other potential is
reconstructed variable by variable, over the active ones only (integrate in
x1, correct the remainder, move on).  The antiderivative routine covers
denominators that are monomial in the integration variable or linear in it;
anything wilder raises rather than guessing.  A combination's coefficients
sum_f mu_f w_f are each one sum_products over a common denominator.
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
    _mono_with_exp,
    _reduce,
    differentiate,
    free_symbols,
    ln_of,
    number,
    residue,
    sample_points,
    sum_products,
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
    live = {a for a, c in enumerate(coeffs) if not c.is_zero()}
    found = set().union(*(free_symbols(coeffs[a]) for a in live))
    involved = [v for v in names if v in found]
    return involved, [a for a, v in enumerate(names) if v in found or a in live]


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


def _sample_space(exprs, symbols: VariableSet, variables) -> VariableSet:
    """The given variables and the parameters the exprs involve, ln arguments included."""
    found = set().union(*map(free_symbols, exprs))
    return VariableSet(tuple(variables), tuple(p for p in symbols.parameters if p in found))


def _jets(coeffs, wrt, point, rng) -> list:
    """(value, partials in wrt) mod _PRIME of each coefficient at point (see residue)."""
    return [residue(c, point, rng, wrt) for c in coeffs]


def _defects(jets) -> dict:
    """d[i, j] = dc_j/dx_i - dc_i/dx_j mod _PRIME for i < j, from the jets of c over wrt."""
    return {
        (i, j): (jets[j][1][i] - jets[i][1][j]) % _PRIME
        for i, j in itertools.combinations(range(len(jets)), 2)
    }


def _sampled_rows(rows_at, unknowns, active, space, domain, rng, batches=()):
    """Rows mod _PRIME of a linear system in `unknowns` columns, imposed at random points.

    rows_at(point) gives the rows at one point of residues over the symbols
    of space; batches holds the rows of points already taken, which count as
    points.  The points are random_point's draws taken mod _PRIME, and each
    ln atom takes its own random residue, so it counts as an independent
    unknown.  A point where some residue has a pole mod _PRIME is skipped.
    ceil(unknowns / (active - 1)) + 1 usable points are taken.  The eta
    rows, c_b L_a - c_a L_b as rows in L, have rank active - 1 at a point
    (their kernel is L = c), so for them the count matches what a point can
    give; the combination rows have more (rank 9 at one point on so(4)* and
    se(3)*, where active - 1 = 5), so the count is generous there.  Returns
    the nonzero rows, or None when fewer points are usable.
    """
    need = -(-unknowns // max(active - 1, 1)) + 1
    batches = list(batches)

    def rows_at_point(point):
        return [r for r in rows_at(point) if any(r)]

    batches += sample_points(space, domain, rng, need - len(batches), rows_at_point, _PRIME)
    if len(batches) < need:
        return None
    return [r for rows in batches for r in rows]


def find_eta(
    coeffs,
    symbols: VariableSet,
    domain: Domain | None = None,
    seed: int = 0,
) -> IntegratingFactor | None:
    """Integrating factor for the 1-form with the given coefficients, and its potential.

    Everything is decided from residues mod p at random points over the
    symbols the coefficients involve: each active coefficient c_a comes with
    its partials (residue's forward mode), so the defects
    d[a,b] = dc_b/dx_a - dc_a/dx_b are residues too, and no symbolic
    derivative is formed.  At the first usable point (None if there is none):

    * every defect is 0: the form is closed, and eta = 1 with provenance
      "not-needed" is returned.  integrate_closed's exact residual check is
      the proof; a potential outside the supported class, or a form that is
      not closed after all, raises NonElementaryError.
    * some (w ^ dw)[a,b,c] = c_a d[b,c] - c_b d[a,c] + c_c d[a,b] is nonzero:
      no integrating factor exists (Frobenius), so the result is None.

    Otherwise eta = prod f_k^e_k over factors read off the coefficients and
    the variables they involve; eta * w is closed iff

        d[a,b] + sum_k e_k (c_b df_k/dx_a - c_a df_k/dx_b) / f_k = 0

    for every pair a < b, which is linear in the exponents.  It is imposed
    at that point and at further random points, and solved there.  A factor
    that is a bare variable v has the log-derivative 1/v in v's slot, taken
    from the point with no residue call (a variable has no ln atom to draw).  An
    integer solution is returned only if integrate_closed finds a potential
    C with dC = eta * w exactly, which certifies it; otherwise the result is
    None.
    """
    names = symbols.variables
    involved, active = _active(coeffs, names)
    if not involved:  # constant coefficients: every defect is zero
        return IntegratingFactor(EXPR_ONE, "not-needed", integrate_closed(coeffs, symbols))
    wrt = [names[a] for a in active]
    live = [coeffs[a] for a in active]
    space = _sample_space(live, symbols, involved)
    rng = random.Random(f"eta:{seed}")
    first = next(
        sample_points(space, domain, rng, 1, lambda pt: (pt, _jets(live, wrt, pt, rng)), _PRIME),
        None,
    )
    if first is None:
        return None
    point, jets = first
    d = _defects(jets)
    if not any(d.values()):
        return IntegratingFactor(EXPR_ONE, "not-needed", integrate_closed(coeffs, symbols))
    c = [v for v, _ in jets]
    if any(
        (c[i] * d[j, k] - c[j] * d[i, k] + c[k] * d[i, j]) % _PRIME
        for i, j, k in itertools.combinations(range(len(c)), 3)
    ):
        return None

    pool = _factor_pool(coeffs)
    # parameters and parameter-only factors have zero gradient; variables once
    variables = set(names)
    factors = [
        f for f in dict.fromkeys(pool + [symbol(v) for v in involved])
        if free_symbols(f) & variables
    ]

    # a bare variable's log-derivative is 1/v in v's slot: no residue call, and no draw
    variable_slots = {symbol(v): s for s, v in enumerate(wrt)}
    slots = [variable_slots.get(f) for f in factors]

    def rows_at(point, jets=None):
        jets = jets or _jets(live, wrt, point, rng)
        c, d = [v for v, _ in jets], _defects(jets)
        logd = []
        for f, s in zip(factors, slots):
            if s is None:
                fv, fg = residue(f, point, rng, wrt)
                inv = pow(fv, -1, _PRIME)
                logd.append([g * inv % _PRIME for g in fg])
            else:
                lg = [0] * len(wrt)
                lg[s] = pow(point[wrt[s]], -1, _PRIME)
                logd.append(lg)
        return [
            [(c[b] * lg[a] - c[a] * lg[b]) % _PRIME for lg in logd] + [dab]
            for (a, b), dab in d.items()
        ]

    try:  # the first point counts, unless a factor has a pole there
        batches = [[r for r in rows_at(point, jets) if any(r)]]
    except ValueError:
        batches = []
    rows = _sampled_rows(rows_at, len(factors) + 1, len(active), space, domain, rng, batches)
    # the basis vector of the free defect column is RREF's particular solution
    sol = next((v for v in nullspace_fractions(rows or []) if v[-1]), None)
    if sol is None or any(e.denominator != 1 for e in sol):
        return None
    used = [(f, int(e)) for f, e in zip(factors, sol) if e]
    eta = EXPR_ONE
    for f, e in used:
        eta = eta * f**e
    try:
        potential = integrate_closed([c if c.is_zero() else eta * c for c in coeffs], symbols)
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

    if len(dparts) == 1:  # denominator is v^k * E with E free of v, k >= 0
        (k,) = dparts

        def power(d):  # an antiderivative of v^d
            return ln_of(symbol(v)) if d == -1 else symbol(v) ** (d + 1) * number(Fraction(1, d + 1))

        parts = sorted(poly.split_by_atom(num, v).items())
        return sum_products((_reduce(coef, dparts[k]), power(j - k)) for j, coef in parts)

    if sorted(dparts) == [0, 1]:  # denominator linear in v: P*v + Q
        p_coef = _from_poly(dparts[1])
        lin = _from_poly(den)
        cur = _from_poly(num)
        pairs = []  # divide by lin: a v-power term per step, then the remainder's ln(lin)
        while (deg := cur.num.degree_in(v)) > 0:
            top = _reduce(poly.split_by_atom(cur.num, v)[deg], cur.den)
            t = top / p_coef
            pairs.append((t, symbol(v) ** deg * number(Fraction(1, deg))))
            cur = cur - t * symbol(v) ** (deg - 1) * lin
        pairs.append((cur / p_coef, ln_of(lin)))
        return sum_products(pairs)

    raise NonElementaryError(
        f"denominator mixes {v}-powers with other {v}-dependence; "
        "no closed form in the supported class"
    )


def _polynomial_potential(coeffs, names) -> Expr | None:
    """C with dC = the polynomial form exactly, by the homotopy formula; None if there is none.

    A polynomial form has unit denominators and no ln atom of a variable (ln
    of parameters is a constant).  C = sum_a sum_m c x^m x_a / (deg_x m + 1),
    with deg_x the degree in the variables, is the potential of a closed such
    form with no variable-free term, the one the variable-by-variable route
    builds.  It is certified by dC/dx_a == c_a over Poly for every variable;
    any other form, or a form that fails the check, gives None.
    """
    variables = set(names)
    acc: dict = {}
    for v, c in zip(names, coeffs):
        if not c.den.is_one():
            return None
        for m, k in c.num.terms.items():
            deg = 0
            for a, e in m:
                if isinstance(a, str):
                    deg += e if a in variables else 0
                elif free_symbols(a.arg) & variables:
                    return None
            mv = poly.mono_mul(m, ((v, 1),))
            if q := acc.get(mv, 0) + poly.quo(k, deg + 1):
                acc[mv] = q
            else:
                del acc[mv]
    grad: dict = {}  # dC/dx_v's terms, all variables in one pass over C
    for m, k in acc.items():
        for i, (a, e) in enumerate(m):
            if a in variables:  # distinct monomials of C give distinct ones here
                grad.setdefault(a, {})[_mono_with_exp(m, i, e - 1)] = k * e
    if any(grad.get(v, {}) != c.num.terms for v, c in zip(names, coeffs)):
        return None
    return _from_poly(Poly(acc))


def integrate_closed(coeffs, symbols: VariableSet) -> Expr:
    """Potential C with dC matching the closed 1-form, over Poly or variable by variable.

    A polynomial form takes _polynomial_potential.  Any other form, or one
    that fails its check, goes to _potential_by_variables, whose
    NonElementaryError says why there is no potential.
    """
    potential = _polynomial_potential(coeffs, symbols.variables)
    return _potential_by_variables(coeffs, symbols) if potential is None else potential


def _potential_by_variables(coeffs, symbols: VariableSet) -> Expr:
    """The potential built variable by variable, each step an antiderivative.

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


def _combination_solutions(forms, symbols: VariableSet, domain, seed):
    """Closed combinations sum_f mu_f w_f with each mu_f affine in the variables.

    Closedness is linear in the mu coefficients; imposed at random points
    mod p it gives a system whose nullspace, lifted, enumerates the
    solutions.  Each form's coefficients and defects are residues, from the
    jets of its active coefficients (see find_eta).  The points draw every
    variable, since each mu_f involves them all, and the parameters the
    forms involve.  integrate_all keeps a solution only if its potential is
    exact.
    """
    names = symbols.variables
    n = len(names)
    nf = len(forms)
    actives = [_active(form, names)[1] for form in forms]

    def rows_at(point):
        x = [point[v] for v in names]
        w = [[0] * n for _ in forms]
        d = [{} for _ in forms]
        for fi, (form, act) in enumerate(zip(forms, actives)):
            jets = _jets([form[a] for a in act], [names[a] for a in act], point, rng)
            for a, (v, _) in zip(act, jets):
                w[fi][a] = v
            for (i, j), dij in _defects(jets).items():
                d[fi][act[i], act[j]] = dij
        rows = []
        for a, b in itertools.combinations(range(n), 2):
            row = []
            for fi in range(nf):
                dab = d[fi].get((a, b), 0)  # a pair with an inactive member has defect zero
                # mu_f = alpha + sum_v beta_v x_v: the alpha column, then one per beta_v
                row.append(dab)
                for v in range(n):
                    cross = (w[fi][b] if v == a else 0) - (w[fi][a] if v == b else 0)
                    row.append((x[v] * dab + cross) % _PRIME)
            rows.append(row)
        return rows

    rng = random.Random(f"combination:{seed}")
    space = _sample_space([c for form in forms for c in form], symbols, names)
    rows = _sampled_rows(rows_at, nf * (n + 1), n, space, domain, rng)
    if rows is None:
        return []

    # mu_f's monomials in its unknowns' column order: 1, then x_1 ... x_n
    monos = [poly.MONO_ONE] + [((v, 1),) for v in names]
    solutions = []
    for vec in nullspace_fractions(rows):
        mults = tuple(
            _from_poly(Poly(dict(zip(monos, vec[fi * (n + 1) : (fi + 1) * (n + 1)]))))
            for fi in range(nf)
        )
        combined = [sum_products(zip(mults, (form[v] for form in forms))) for v in range(n)]
        solutions.append((combined, mults))
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
    for row, form in zip(rows, forms):
        factor = find_eta(form, symbols, mat.domain, seed=seed)
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
        solutions = _combination_solutions(forms, symbols, mat.domain, seed)
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
