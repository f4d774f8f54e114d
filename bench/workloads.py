"""The benchmark's workloads: Poisson systems whose answer is known by construction.

Each workload is a list of `Case`s. A case names what the benchmark passes to
`casinv all` (a bundled system name, or the text of a `.psys` file that set-up
writes out), whether `--flow` is on, and the known answer that the verdict is
checked against. Known Casimirs are plain Python callables of a dict of
symbol values, so the oracle in `oracle.py` can evaluate them without casinv.

Everything here depends only on the workload seed: the same seed gives the
same systems, byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

FIXTURE_DATA = Path(__file__).resolve().parent.parent / "src" / "casinv" / "fixtures" / "data"


@dataclasses.dataclass(frozen=True)
class Known:
    """The answer known by construction.

    `accept` is False for a system that must be rejected at validation
    (exit 1); otherwise `casimirs` holds one callable per independent Casimir,
    so the count n - rank is `len(casimirs)`.
    """

    accept: bool
    casimirs: tuple = ()


@dataclasses.dataclass(frozen=True)
class Case:
    name: str
    variables: tuple
    parameters: tuple
    known: Known
    flow: bool = False
    text: str | None = None  # .psys text for generated systems
    fixture: str | None = None  # bundled system name otherwise
    # A system known to run into the benchmark's time limit. It is called once
    # per run, outside the timed rounds, to show that it stops there cleanly.
    probe: bool = False

    @property
    def n(self) -> int:
        return len(self.variables)


# -- expression strings ----------------------------------------------------------


def py_callable(src: str):
    """Callable of a symbol-value dict for a casinv/.psys expression string.

    The grammar of `format_expr` output and of `.psys` expressions maps onto
    Python once `^` becomes `**` and `ln` becomes a log supplied by the
    caller, so the same callable serves real and complex-step evaluation.
    """
    code = compile(src.replace("^", "**"), "<expr>", "eval")

    def f(vals, log):
        return eval(code, {"__builtins__": {}, "ln": log}, vals)

    return f


def _lin(coeffs: dict, names) -> str:
    """Text of sum_k coeffs[k] * names[k] with integer coefficients."""
    parts = []
    for k in sorted(coeffs):
        c = coeffs[k]
        if c == 0:
            continue
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        parts.append(("- " if c < 0 else "+ ") + mag + names[k])
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _psys(name, variables, entries: dict, positive=()) -> str:
    lines = [f"system {name}", "vars " + " ".join(variables)]
    lines += [f"domain {v} > 0" for v in positive]
    for (i, j), src in sorted(entries.items()):
        lines.append(f"J[{i + 1}][{j + 1}] = {src}")
    return "\n".join(lines) + "\n"


# -- fixtures ----------------------------------------------------------------------

_EXPECT_CASIMIR = re.compile(r"^expect casimir \d+ = (.*?)(?:@ \w+)?$")


def fixtures_workload(seed: int) -> list:
    """The six bundled systems with --flow; answers read from their expect lines.

    The systems are fixed; the seed only varies the per-call --seed.
    """
    out = []
    for path in sorted(FIXTURE_DATA.glob("*.psys")):
        text = path.read_text()
        variables, parameters, casimirs = (), (), []
        accept = True
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            head, _, rest = line.partition(" ")
            if head == "vars":
                variables = tuple(rest.split())
            elif head == "params":
                parameters = tuple(rest.split())
            elif line == "expect jacobi fail":
                accept = False
            m = _EXPECT_CASIMIR.match(line)
            if m:
                casimirs.append(py_callable(m.group(1).strip()))
        out.append(
            Case(
                name=path.stem,
                variables=variables,
                parameters=parameters,
                known=Known(accept, tuple(casimirs)),
                flow=True,
                fixture=path.stem,
            )
        )
    return out


# -- Lie-Poisson brackets from structure constants -----------------------------------


def lie_poisson_case(name, basis, bracket, casimirs) -> Case:
    """J[i][j] = sum_k c_ij^k x_k from `bracket(i, j) -> {k: c}` over `basis`."""
    n = len(basis)
    variables = tuple(f"x{i + 1}" for i in range(n))
    entries = {}
    for i, j in itertools.combinations(range(n), 2):
        c = bracket(i, j)
        if any(c.values()):
            entries[(i, j)] = _lin(c, variables)
    return Case(
        name=name,
        variables=variables,
        parameters=(),
        known=Known(True, tuple(casimirs)),
        text=_psys(name, variables, entries),
    )


def _so_basis(m: int) -> list:
    return list(itertools.combinations(range(m), 2))


def _so_bracket(m: int):
    """[L_ab, L_cd] = d_bc L_ad - d_ac L_bd - d_bd L_ac + d_ad L_bc, with L_ba = -L_ab."""
    basis = _so_basis(m)
    index = {p: k for k, p in enumerate(basis)}

    def add(out, a, b, c):
        if a == b:
            return
        if a > b:
            a, b, c = b, a, -c
        k = index[(a, b)]
        out[k] = out.get(k, 0) + c

    def bracket(i, j):
        (a, b), (c, d) = basis[i], basis[j]
        out: dict = {}
        if b == c:
            add(out, a, d, 1)
        if a == c:
            add(out, b, d, -1)
        if b == d:
            add(out, a, c, -1)
        if a == d:
            add(out, b, c, 1)
        return {k: v for k, v in out.items() if v}

    return bracket


def _antisym(m: int, vals, names):
    basis = _so_basis(m)
    x = [[0] * m for _ in range(m)]
    for k, (a, b) in enumerate(basis):
        x[a][b] = vals[names[k]]
        x[b][a] = -vals[names[k]]
    return x


def _matmul(p, q):
    m = len(p)
    return [[sum(p[i][k] * q[k][j] for k in range(m)) for j in range(m)] for i in range(m)]


def _trace_power(m: int, power: int, names):
    def c(vals, log):
        x = _antisym(m, vals, names)
        acc = x
        for _ in range(power - 1):
            acc = _matmul(acc, x)
        return sum(acc[i][i] for i in range(m))

    return c


def so_case(m: int) -> Case:
    """so(m)*: tr X^2, tr X^4, ... for odd m; for so(4) the Pfaffian replaces tr X^4."""
    basis = _so_basis(m)
    names = tuple(f"x{i + 1}" for i in range(len(basis)))
    casimirs = [_trace_power(m, 2, names)]
    if m == 4:
        idx = {p: names[k] for k, p in enumerate(basis)}

        def pfaffian(vals, log):
            v = {p: vals[s] for p, s in idx.items()}
            return v[(0, 1)] * v[(2, 3)] - v[(0, 2)] * v[(1, 3)] + v[(0, 3)] * v[(1, 2)]

        casimirs.append(pfaffian)
    else:
        casimirs += [_trace_power(m, 2 * p, names) for p in range(2, m // 2 + 1)]
    return lie_poisson_case(f"so{m}", basis, _so_bracket(m), casimirs)


def _eps(a: int, b: int, c: int) -> int:
    """Levi-Civita symbol on 0, 1, 2."""
    return (a - b) * (b - c) * (c - a) // 2


def so3_sum_case(k: int) -> Case:
    """Direct sum of k copies of so(3), {x_a, x_b} = eps_abc x_c: n = 3k, one norm per block."""

    def bracket(i, j):
        if i // 3 != j // 3:
            return {}
        b = 3 * (i // 3)
        return {b + c: _eps(i - b, j - b, c) for c in range(3) if _eps(i - b, j - b, c)}

    def norm(block):
        def c(vals, log):
            return sum(vals[f"x{3 * block + t + 1}"] ** 2 for t in range(3))

        return c

    return lie_poisson_case(
        f"so3x{k}", list(range(3 * k)), bracket, [norm(b) for b in range(k)]
    )


def gl2_case() -> Case:
    """gl(2)* in the basis E11, E12, E21, E22: Casimirs tr X and det X."""
    basis = [(0, 0), (0, 1), (1, 0), (1, 1)]
    index = {p: k for k, p in enumerate(basis)}

    def bracket(i, j):
        (a, b), (c, d) = basis[i], basis[j]
        out: dict = {}
        if b == c:
            out[index[(a, d)]] = out.get(index[(a, d)], 0) + 1
        if d == a:
            out[index[(c, b)]] = out.get(index[(c, b)], 0) - 1
        return {k: v for k, v in out.items() if v}

    def trace(vals, log):
        return vals["x1"] + vals["x4"]

    def det(vals, log):
        return vals["x1"] * vals["x4"] - vals["x2"] * vals["x3"]

    return lie_poisson_case("gl2", basis, bracket, [trace, det])


def se3_case() -> Case:
    """se(3)*, {M_a, M_b} = eps_abc M_c and {M_a, F_b} = eps_abc F_c: Casimirs |F|^2 and M.F."""

    def bracket(i, j):
        if j >= 3 and i >= 3:
            return {}
        off = 3 if j >= 3 else 0
        return {off + c: _eps(i, j - off, c) for c in range(3) if _eps(i, j - off, c)}

    def f2(vals, log):
        return vals["x4"] ** 2 + vals["x5"] ** 2 + vals["x6"] ** 2

    def mf(vals, log):
        return vals["x1"] * vals["x4"] + vals["x2"] * vals["x5"] + vals["x3"] * vals["x6"]

    return lie_poisson_case("se3", list(range(6)), bracket, [f2, mf])


SO3_SUM_SIZES = (1, 2, 3, 4, 6, 12)


def lie_poisson_workload(seed: int) -> list:
    """so(3)^k for growing k, then so(4)*, gl(2)*, se(3)*, and so(5)* as a probe.

    The brackets are fixed; the seed only varies the per-call --seed.
    """
    cases = [so3_sum_case(k) for k in SO3_SUM_SIZES]
    cases += [so_case(4), gl2_case(), se3_case()]
    cases.append(dataclasses.replace(so_case(5), probe=True))
    return cases


# -- 3-D Nambu brackets J = f * eps * grad C --------------------------------------------

NAMBU_FACTORS = ("1", "x1", "x2*x3", "1/(x1*x2)", "x1 + x2")
NAMBU_PER_STRATUM = 10


def _poly_text(terms: dict) -> str:
    """Text of sum c * x^e over ((var, exp), ...) monomials with Fraction coefficients."""
    parts = []
    for mono, c in sorted(terms.items()):
        if c == 0:
            continue
        factors = [v if e == 1 else f"{v}^{e}" for v, e in mono]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = f"{mag}*" + "*".join(factors)
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts) or "0"
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _diff_terms(terms: dict, var: str) -> dict:
    out: dict = {}
    for mono, c in terms.items():
        exps = dict(mono)
        e = exps.get(var, 0)
        if e == 0:
            continue
        if e == 1:
            del exps[var]
        else:
            exps[var] = e - 1
        key = tuple(sorted(exps.items()))
        out[key] = out.get(key, 0) + c * e
    return {k: v for k, v in out.items() if v}


def _nonzero(rng):
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _quadratic_form(rng) -> dict:
    names = ("x1", "x2", "x3")
    terms: dict = {}
    for i, j in itertools.combinations_with_replacement(range(3), 2):
        c = rng.randint(-3, 3)
        if c:
            mono = ((names[i], 2),) if i == j else ((names[i], 1), (names[j], 1))
            terms[mono] = Fraction(c)
    # keep every variable present so grad C has three nonzero components
    for v in names:
        if not any(v in dict(m) for m in terms):
            terms[((v, 2),)] = Fraction(_nonzero(rng))
    return terms


def _separable(rng) -> dict:
    terms: dict = {}
    for v in ("x1", "x2", "x3"):
        degree = rng.randint(1, 4)
        for e in range(1, degree):
            c = rng.randint(-2, 2)
            if c:
                terms[((v, e),)] = Fraction(c)
        terms[((v, degree),)] = Fraction(_nonzero(rng))
    return terms


def nambu3_workload(seed: int) -> list:
    """One stratum per (factor f, kind of C); the seed draws every C."""
    rng = random.Random(f"nambu3:{seed}")
    variables = ("x1", "x2", "x3")
    cases = []
    for kind, draw in (("quad", _quadratic_form), ("sep", _separable)):
        for fi, f in enumerate(NAMBU_FACTORS):
            for r in range(NAMBU_PER_STRATUM):
                terms = draw(rng)
                grad = [_poly_text(_diff_terms(terms, v)) for v in variables]
                entries = {}
                for i, j in ((0, 1), (0, 2), (1, 2)):
                    k = 3 - i - j  # J[i][j] = eps_ijk * f * dC/dx_k
                    if grad[k] == "0":
                        continue
                    prod = f"({grad[k]})" if f == "1" else f"({f})*({grad[k]})"
                    entries[(i, j)] = ("" if _eps(i, j, k) > 0 else "-") + prod
                name = f"nambu3-{kind}-f{fi}-{r}"
                c_text = _poly_text(terms)
                cases.append(
                    Case(
                        name=name,
                        variables=variables,
                        parameters=(),
                        known=Known(True, (py_callable(c_text),)),
                        text=_psys(name, variables, entries, positive=variables),
                    )
                )
    return cases


WORKLOADS = {
    "fixtures": fixtures_workload,
    "lie-poisson": lie_poisson_workload,
    "nambu3": nambu3_workload,
}


def prepare(workload: str, seed: int, workdir: Path):
    """Build the workload's systems, write generated ones out and parse each with casinv.

    Returns the cases, the token `casinv all` takes for each (a bundled name
    or a file path), and a digest of the inputs, so that two set-ups of one
    seed can be compared.
    """
    from casinv import load_fixture, load_system

    cases = WORKLOADS[workload](seed)
    tokens = []
    digest = hashlib.sha256()
    for i, case in enumerate(cases):
        if case.fixture is not None:
            load_fixture(case.fixture)
            tokens.append(case.fixture)
            digest.update(f"fixture {case.fixture}\n".encode())
            continue
        path = workdir / f"{i:03d}-{case.name}.psys"
        path.write_text(case.text)
        load_system(path)
        tokens.append(str(path))
        digest.update(case.text.encode())
    return cases, tokens, digest.hexdigest()
