"""Independent checks of a verdict against the answer known by construction.

Nothing here uses casinv. Expressions are evaluated as Python (see
`workloads.py_callable`), and gradients come from complex-step
differentiation, which is exact to rounding for the rational-plus-log
functions casinv returns: d f / d x_j = Im f(x + i h e_j) / h.
"""

from __future__ import annotations

import cmath
import math
import random

import numpy as np

from workloads import Case, py_callable

_STEP = 1e-30
_POINTS = 3
_RANK_TOL = 1e-7


def sample_point(case: Case, rng: random.Random) -> dict:
    """Generic point with every symbol in (1/2, 2), so each declared sign holds."""
    return {s: rng.uniform(0.5, 2.0) for s in case.variables + case.parameters}


def gradient(f, case: Case, point: dict):
    """Gradient over the variables, or None where f is undefined at the point."""
    try:
        if not math.isfinite(complex(f(point, math.log)).real):
            return None
    except (ValueError, ZeroDivisionError, OverflowError):
        return None
    out = []
    for v in case.variables:
        shifted = dict(point)
        shifted[v] = complex(point[v], _STEP)
        out.append(complex(f(shifted, cmath.log)).imag / _STEP)
    return np.array(out)


def _rank(rows) -> int:
    if not rows:
        return 0
    g = np.array([r / (np.linalg.norm(r) or 1.0) for r in rows])
    s = np.linalg.svd(g, compute_uv=False)
    return int(np.sum(s > _RANK_TOL * s[0])) if s[0] > 0 else 0


def dependent_at_points(case: Case, returned, known, seed: int) -> bool:
    """True when the returned set is independent and every known Casimir depends on it.

    Holds when, at each of a few generic points, the gradients of the
    returned expressions have full rank and adding the known gradients
    leaves that rank unchanged.
    """
    rng = random.Random(f"oracle:{seed}:{case.name}")
    done = 0
    for _ in range(50 * _POINTS):
        if done == _POINTS:
            break
        pt = sample_point(case, rng)
        g_ret = [gradient(f, case, pt) for f in returned]
        g_known = [gradient(f, case, pt) for f in known]
        if any(g is None for g in g_ret + g_known):
            continue
        done += 1
        if _rank(g_ret) != len(returned) or _rank(g_ret + g_known) != len(returned):
            return False
    return done == _POINTS


def check_verdict(case: Case, rc, report: dict | None, seed: int) -> bool:
    """Does the verdict (exit code plus JSON report) match the known answer?

    `rc` is None for a system stopped at the time limit. Exit 3 (the
    computation gave up) and a stop at the limit never match, since every
    case has a known answer. casinv's own verify and flow results are not
    consulted: a valid system matches when validation passed and the
    returned Casimirs are right, whether it exited 0 or 1.
    """
    known = case.known
    jacobi = (report or {}).get("jacobi", {})
    if not known.accept:
        return rc == 1 and bool(jacobi.get("failures"))
    if rc not in (0, 1) or not jacobi.get("ok"):
        return False
    count = len(known.casimirs)
    if report.get("rank") != case.n - count:
        return False
    exprs = [c["expr"] for c in report.get("casimirs", [])]
    if len(exprs) != count:
        return False
    if count == 0:
        return True
    try:
        returned = [py_callable(e) for e in exprs]
    except SyntaxError:
        return False
    return dependent_at_points(case, returned, list(known.casimirs), seed)
