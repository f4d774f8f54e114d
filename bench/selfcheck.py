"""The benchmark's own checks.

    python3 bench/selfcheck.py

1. Every generated system (and every bundled one) satisfies the Jacobi
   identity at random points, except the one that must fail it, and has the
   stated number of Casimirs: J has rank n - count there, each known Casimir
   C gives J grad C = 0, and the known gradients are independent.
2. The same seed gives the same systems; another seed gives other nambu3 draws.
3. `BENCHMARK.json` is well formed, and a short run of each mode prints a last
   line whose metric names match `[A-Za-z0-9_.-]+` and are exactly the ones
   it lists, with their units.
4. Without the casinv sources the benchmark exits non-zero and prints no result.

Checks 1 and 2 use no casinv code; they evaluate the `.psys` text as Python
with the oracle's complex-step derivatives. Exits 1 on the first failure.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import workloads  # noqa: E402

_ENTRY = re.compile(r"^J\[(\d+)\]\[(\d+)\]\s*=\s*(.*)$")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def fail(msg: str):
    print(f"FAIL {msg}")
    sys.exit(1)


def matrix_entries(case) -> dict:
    text = case.text
    if text is None:
        text = (workloads.FIXTURE_DATA / f"{case.fixture}.psys").read_text()
    out = {}
    for raw in text.splitlines():
        m = _ENTRY.match(raw.split("#", 1)[0].strip())
        if m:
            out[(int(m.group(1)) - 1, int(m.group(2)) - 1)] = workloads.py_callable(m.group(3))
    return out


def j_and_grads(case, entries, point):
    """J at the point and dJ[l][i][j] = d J[i][j] / d x_l."""
    n = case.n
    j = np.zeros((n, n))
    dj = np.zeros((n, n, n))
    for (a, b), f in entries.items():
        j[a, b] = f(point, math.log)
        j[b, a] = -j[a, b]
        g = oracle.gradient(f, case, point)
        dj[:, a, b] = g
        dj[:, b, a] = -g
    return j, dj


def check_case(case, rng):
    entries = matrix_entries(case)
    count = len(case.known.casimirs)
    for _ in range(3):
        pt = oracle.sample_point(case, rng)
        j, dj = j_and_grads(case, entries, pt)
        worst = 0.0
        for a, b, c in itertools.combinations(range(case.n), 3):
            s = sum(
                j[l, a] * dj[l, b, c] + j[l, b] * dj[l, c, a] + j[l, c] * dj[l, a, b]
                for l in range(case.n)
            )
            worst = max(worst, abs(s))
        scale = 1.0 + float(np.max(np.abs(j))) * float(np.max(np.abs(dj)))
        jacobi_ok = worst <= 1e-9 * scale
        if jacobi_ok != case.known.accept:
            fail(f"{case.name}: Jacobi identity {'fails' if case.known.accept else 'holds'}")
        if not case.known.accept:
            return
        s = np.linalg.svd(j, compute_uv=False)
        rank = int(np.sum(s > 1e-9 * s[0])) if s.size and s[0] > 0 else 0
        if rank != case.n - count:
            fail(f"{case.name}: rank {rank}, expected {case.n - count}")
        grads = [oracle.gradient(f, case, pt) for f in case.known.casimirs]
        for k, g in enumerate(grads):
            if np.max(np.abs(j @ g)) > 1e-9 * (1.0 + np.max(np.abs(j)) * np.max(np.abs(g))):
                fail(f"{case.name}: known Casimir {k + 1} is not a Casimir")
        if grads and np.linalg.matrix_rank(np.array(grads), tol=1e-9) != count:
            fail(f"{case.name}: known Casimirs are not independent")


def check_systems():
    rng = random.Random("selfcheck")
    total = 0
    for name, build in workloads.WORKLOADS.items():
        for seed in (1, 2):
            first, second = build(seed), build(seed)
            if [c.text for c in first] != [c.text for c in second]:
                fail(f"{name}: seed {seed} gave different systems twice")
            for case in first:
                check_case(case, rng)
                total += 1
    a, b = workloads.nambu3_workload(1), workloads.nambu3_workload(2)
    if [c.text for c in a] == [c.text for c in b]:
        fail("nambu3: seeds 1 and 2 gave the same systems")
    print(f"ok   {total} systems: Jacobi identity, Casimir counts, same seed same systems")


def check_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail("BENCHMARK.json keys")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    if len(names) != len(set(names)) or any(not NAME.fullmatch(n) or len(n) > 64 for n in names):
        fail("metric or workload names")
    if not set(w["name"] for w in spec["workloads"]) <= set(workloads.WORKLOADS):
        fail("BENCHMARK.json names a workload that workloads.WORKLOADS lacks")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or any(m["bound"] > 0.25 for m in spec["end_to_end"]):
        fail("end_to_end bounds")
    if setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must have the largest bound")
    print(f"ok   BENCHMARK.json: {len(spec['end_to_end'])} end-to-end, {len(spec['per_layer'])} per-layer")
    return spec


def last_line(cwd: Path, trace: int):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fixtures", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else "", proc.stderr


def check_runs(spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        rc, line, err = last_line(ROOT, trace)
        if rc != 0:
            fail(f"run --trace {trace} exited {rc}: {err}")
        result = json.loads(line)
        if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
            fail(f"run --trace {trace}: bad result {line[:200]}")
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {n: v["unit"] for n, v in result["metrics"].items()}
        if got != want:
            fail(f"run --trace {trace}: metrics differ from BENCHMARK.json")
        print(f"ok   run --trace {trace}: {len(got)} metrics, attempted {result['attempted']}")

    with tempfile.TemporaryDirectory(dir=BENCH / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        (Path(bare) / "bench" / "out").mkdir()
        rc, line, _ = last_line(Path(bare), 0)
        if rc == 0 or line.startswith("{"):
            fail("without sources the benchmark must exit non-zero without a result")
    print("ok   without sources: non-zero exit, no result")


def main() -> int:
    (BENCH / "out").mkdir(exist_ok=True)
    check_systems()
    check_runs(check_spec())
    return 0


if __name__ == "__main__":
    sys.exit(main())
