"""Acceptance suite: end-to-end checks at their stated tolerances.

Each test covers one acceptance criterion and prints exactly one
"ACCEPTANCE <k> <label>: PASS|FAIL" line past the capture machinery, so the
run log shows the verdicts even when everything is green.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from casinv.cost import quadrature_cost
from casinv.fixtures import fixture_names, load_fixture
from casinv.gamma import solve_gamma
from casinv.integrate import integrate_all
from casinv.verify import (
    degeneracy_residual,
    flow_conservation,
    gradient_rank,
)
from gradients import gradients_parallel, random_polynomial_hamiltonian

import random


@pytest.fixture
def announce(capsys):
    def _announce(k: int, label: str, failures: list):
        verdict = "PASS" if not failures else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {k} {label}: {verdict}", flush=True)
        assert not failures, f"criterion {k}: " + "; ".join(failures)

    return _announce


def _pipeline(name: str):
    sys_ = load_fixture(name)
    decomp = sys_.matrix.decompose()
    gammas = solve_gamma(sys_.matrix, decomp)
    result = integrate_all(sys_.matrix, decomp, gammas)
    return sys_, decomp, gammas, result


def test_1_lv3_j1_gamma_and_casimir(announce):
    failures = []
    t0 = time.perf_counter()
    sys_, decomp, gammas, result = _pipeline("lv3-j1")
    elapsed = time.perf_counter() - t0

    for (dep, piv), (expected, _tag) in sys_.expect.gammas.items():
        got = gammas.coefficient(dep - 1, piv - 1)
        if got != expected:
            failures.append(f"gamma[{dep}][{piv}] = {got}, want {expected}")
    reference, _ = sys_.expect.casimirs[1]
    if len(result.casimirs) != 1:
        failures.append(f"{len(result.casimirs)} casimirs, want 1")
    elif not gradients_parallel(
        result.casimirs[0].expr, reference, sys_.symbols, sys_.matrix.domain,
        points=10, tol=1e-9,
    ):
        failures.append("casimir gradient not parallel to the reference")
    if elapsed >= 1.0:
        failures.append(f"pipeline took {elapsed:.2f}s, limit 1s")
    announce(1, "lv3-j1 degeneracy coefficients and invariant", failures)


def test_2_lv3_j2_casimir(announce):
    failures = []
    sys_, _decomp, _gammas, result = _pipeline("lv3-j2")
    reference, _ = sys_.expect.casimirs[1]
    if len(result.casimirs) != 1:
        failures.append(f"{len(result.casimirs)} casimirs, want 1")
    elif not gradients_parallel(
        result.casimirs[0].expr, reference, sys_.symbols, sys_.matrix.domain,
        points=10, tol=1e-9,
    ):
        failures.append("casimir gradient not parallel to the reference")
    announce(2, "lv3-j2 invariant from the swapped bracket", failures)


def test_3_light_top_full_decomposition(announce):
    failures = []
    t0 = time.perf_counter()
    sys_, decomp, gammas, result = _pipeline("light-top")
    elapsed = time.perf_counter() - t0

    if decomp.rank != 4:
        failures.append(f"rank {decomp.rank}, want 4")
    if decomp.dependent_rows_1based != (3, 6):
        failures.append(f"dependent rows {decomp.dependent_rows_1based}, want (3, 6)")
    for (dep, piv), (expected, _tag) in sys_.expect.gammas.items():
        got = gammas.coefficient(dep - 1, piv - 1)
        if got != expected:
            failures.append(f"gamma[{dep}][{piv}] = {got}, want {expected}")
    if len(result.casimirs) != 2:
        failures.append(f"{len(result.casimirs)} casimirs, want 2")
    else:
        computed = [c.expr for c in result.casimirs]
        for ordinal, (reference, _tag) in sorted(sys_.expect.casimirs.items()):
            if not any(
                gradients_parallel(
                    c, reference, sys_.symbols, sys_.matrix.domain, points=10, tol=1e-9
                )
                for c in computed
            ):
                failures.append(f"no computed invariant matches reference {ordinal}")
        if gradient_rank(computed, sys_.symbols, sys_.matrix.domain) != 2:
            failures.append("computed invariants are not independent")
    if elapsed >= 5.0:
        failures.append(f"pipeline took {elapsed:.2f}s, limit 5s")
    announce(3, "light-top rank 4 block, eight coefficients, two invariants", failures)


def test_4_jacobi_screening(announce):
    failures = []
    for name in fixture_names():
        sys_ = load_fixture(name)
        report = sys_.matrix.jacobi_report()
        if sys_.expect.jacobi_ok is False:
            if report.ok:
                failures.append(f"{name}: jacobi unexpectedly passes")
            elif not report.failures:
                failures.append(f"{name}: failure carries no named triple")
            else:
                n = sys_.matrix.n
                for f in report.failures:
                    if not all(1 <= t <= n for t in f.triple):
                        failures.append(f"{name}: triple {f.triple} out of range")
        elif not report.ok:
            triples = [f.triple for f in report.failures]
            failures.append(f"{name}: jacobi fails at {triples}")
    announce(4, "jacobi identity screening across bundled systems", failures)


def test_5_degeneracy_residuals(announce):
    failures = []
    for name in fixture_names():
        sys_ = load_fixture(name)
        decomp = sys_.matrix.decompose()
        gammas = solve_gamma(sys_.matrix, decomp)
        worst = degeneracy_residual(sys_.matrix, gammas, points=20)
        if worst >= 1e-9:
            failures.append(f"{name}: residual {worst:.3e}")
    announce(5, "degeneracy relations hold to 1e-9 at 20 points", failures)


def test_6_flow_conservation(announce):
    failures = []
    for name in ("lv3-j1", "lv3-j2", "so3", "light-top"):
        sys_ = load_fixture(name)
        result = integrate_all(sys_.matrix)
        invariants = [c.expr for c in result.casimirs]

        flow = flow_conservation(
            sys_.matrix, sys_.hamiltonian, invariants, dt=1e-3, t_end=1.0, trajectories=5
        )
        if flow.completed < 5:
            failures.append(f"{name}: only {flow.completed}/5 trajectories completed")
        for i, d in enumerate(flow.invariant_drifts):
            if d >= 1e-6:
                failures.append(f"{name}: invariant {i + 1} drifts {d:.3e} under its own H")

        for k in range(3):
            rng = random.Random(f"acceptance-ham:{name}:{k}")
            h = random_polynomial_hamiltonian(sys_.symbols, rng, max_degree=2)
            flow = flow_conservation(
                sys_.matrix, h, invariants, dt=1e-3, t_end=1.0, trajectories=5, seed=k
            )
            if flow.completed < 5:
                failures.append(
                    f"{name}: only {flow.completed}/5 trajectories completed under random H #{k}"
                )
            for i, d in enumerate(flow.invariant_drifts):
                if d >= 1e-5:
                    failures.append(
                        f"{name}: invariant {i + 1} drifts {d:.3e} under random H #{k}"
                    )
    announce(
        6, "invariants conserved along step-doubling RK4 flow over [0,1], step floor 1e-3", failures
    )


def test_7_quadrature_cost(announce):
    failures = []
    if quadrature_cost(3, 2).ratio != Fraction(1, 2):
        failures.append(f"cost(3,2) = {quadrature_cost(3, 2).ratio}, want 1/2")
    if quadrature_cost(6, 4).ratio != Fraction(1, 8):
        failures.append(f"cost(6,4) = {quadrature_cost(6, 4).ratio}, want 1/8")
    for n in range(3, 13):
        for rank in range(2, n, 2):
            ratio = quadrature_cost(n, rank).ratio
            if ratio is None or ratio >= 1:
                failures.append(f"cost({n},{rank}) = {ratio}, want < 1")
    announce(7, "equation counts: 1/2 and 1/8 exactly, ratio always below 1", failures)


def test_8_deterministic_reports(announce):
    failures = []
    for name in fixture_names():
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "casinv.cli", "all", name, "--seed", "42", "--json"],
                capture_output=True,
            )
            runs.append(proc.stdout)
        if runs[0] != runs[1]:
            failures.append(f"{name}: two identical invocations differ")
        if not runs[0]:
            failures.append(f"{name}: empty report")
        else:
            try:
                json.loads(runs[0])
            except ValueError:
                failures.append(f"{name}: report is not valid JSON")
    announce(8, "repeated cli runs with one seed are byte-identical", failures)
