"""Time-to-verdict benchmark for `casinv all`.

Run from the root of a checkout:

    python3 bench/run.py --workload fixtures --seed 1 --seconds 55 --trace 0

Each workload runs as a closed loop: one client, in one process and one
thread, hands casinv the next system only after the previous one reached its
verdict. Every call is the one users make, `casinv.cli.main(["all", system,
"--seed", S, "--json"] (+ ["--flow"]))`, and every verdict is checked against
the answer known by construction (see `oracle.py`). `--trace 0` prints the
end-to-end metrics; `--trace 1` replays the timed rounds with spans installed
around casinv's layers and prints the per-layer metrics. The last line of
standard output is one JSON object; a record with per-call samples and the
span table goes to `bench/out/`. See `bench/README.md`.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import math
import platform
import random
import re
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# A call still running after this many seconds is stopped and counted as
# undecided. The slowest decided system, so(3)^12, takes about 1.5 s, so
# neither tracing nor a busy machine pushes it over.
LIMIT_S = 5.0
# The warm-up round only has to touch every code path once, so it cuts each
# call sooner.
WARM_UP_LIMIT_S = 1.0
# A probe still running this long after its call began did not stop at the limit.
PROBE_LATE_S = 2 * LIMIT_S
SETUP_REPEATS = 7
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


class Deadline(BaseException):
    """Raised by SIGALRM inside casinv; a BaseException so no handler there swallows it."""


def _on_alarm(signum, frame):
    raise Deadline()


@dataclass
class Sample:
    case: int
    round: int
    seed: int
    rc: object  # exit code; None when stopped at the limit; "crash" on an exception
    seconds: float
    stdout: str
    error: str = ""
    correct: bool = False
    elapsed: float = 0.0  # measured, also for a call stopped at the limit

    @property
    def decided(self) -> bool:
        return self.rc in (0, 1, 3)

    @property
    def wrong(self) -> bool:
        """A verdict that contradicts the known answer (giving up is not wrong)."""
        return not self.correct and self.rc not in (None, 3)


class Loop:
    """The closed-loop client: one call at a time, each bounded by `limit` seconds.

    The timed rounds call every case but the probes; `probe` calls those.
    """

    def __init__(self, cli, cases, tokens, limit=LIMIT_S):
        self.cli = cli
        self.cases = cases
        self.tokens = tokens
        self.limit = limit
        self.timed = [i for i, c in enumerate(cases) if not c.probe]
        self.modules = [m for k, m in sys.modules.items() if k == "casinv" or k.startswith("casinv.")]

    def reset_caches(self):
        """Empty casinv's memo caches so each call starts as cold as a fresh `casinv` process."""
        for mod in self.modules:
            for value in list(vars(mod).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()

    def call(self, i: int, rnd: int, seed: int) -> Sample:
        case = self.cases[i]
        argv = ["all", self.tokens[i], "--seed", str(seed), "--json"]
        if case.flow:
            argv.append("--flow")
        self.reset_caches()
        gc.collect()
        out = io.StringIO()
        error = ""
        t0 = perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, self.limit)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = self.cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            rc = None
        except SystemExit as e:
            rc = e.code
        except Exception:
            rc = "crash"
            error = traceback.format_exc()
        dt = perf_counter() - t0
        return Sample(
            i, rnd, seed, rc, self.limit if rc is None else dt, out.getvalue(), error, elapsed=dt
        )

    def rounds(self, seeds: random.Random, seconds: float, count: int | None = None) -> tuple:
        """Rounds over the workload until `seconds` of calls have run, or exactly `count` rounds.

        A system stopped at the limit is not called again in later rounds:
        another call would spend the limit again to learn nothing new. Every
        slot still draws its seed, so a replay with the same seeds makes the
        same calls. Returns the samples and the number of rounds.
        """
        samples, busy, rnd, stopped = [], 0.0, 0, set()
        while rnd < (count or 1) or (count is None and busy < seconds):
            for i in self.timed:
                seed = seeds.randrange(2**31)
                if i in stopped:
                    continue
                s = self.call(i, rnd, seed)
                samples.append(s)
                busy += s.seconds
                if s.rc is None:
                    stopped.add(i)
            rnd += 1
        return samples, rnd

    def probe(self, seeds: random.Random) -> list:
        """One call of each probe case."""
        return [self.call(i, 0, seeds.randrange(2**31)) for i, c in enumerate(self.cases) if c.probe]


def check_samples(oracle, cases, samples):
    for s in samples:
        report = None
        if s.rc in (0, 1):
            try:
                report = json.loads(s.stdout)
            except json.JSONDecodeError:
                report = None
        s.correct = oracle.check_verdict(cases[s.case], s.rc, report, s.seed)


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(samples, setup_s: float) -> dict:
    per_case: dict = {}
    for s in samples:
        per_case.setdefault(s.case, []).append(s)
    # the median round: each system's median call time (a stopped call counts as the limit)
    times = [statistics.median(s.seconds for s in group) for group in per_case.values()]

    def share(attr):
        """Mean over systems of the share of that system's calls with the property."""
        return statistics.fmean(
            sum(getattr(s, attr) for s in group) / len(group) for group in per_case.values()
        )

    return {
        "setup_s": (setup_s, "s"),
        "systems_per_s": (sum(s.decided for s in samples) / sum(s.seconds for s in samples), "1/s"),
        "verdict_p50_s": (nearest_rank(times, 0.5), "s"),
        "verdict_p90_s": (nearest_rank(times, 0.9), "s"),
        "decided_frac": (share("decided"), "frac"),
        "correct_frac": (share("correct"), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced_s: float, untraced_s: float, spanned_s: float) -> dict:
    spans = tracer.per_span()
    out = {}
    for name, (calls, total, self_s) in spans.items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.total_s"] = (total, "s")
        out[f"{name}.self_s"] = (self_s, "s")
    eta_calls = spans["integrate.find_eta"][0]
    zv_calls = spans["expr.zero_verdict"][0]
    out["integrate.find_eta.hit_frac"] = (tracer.eta_hits / eta_calls if eta_calls else 0.0, "frac")
    out["expr.zero_verdict.sampled_frac"] = (
        tracer.verdicts_sampled / zv_calls if zv_calls else 0.0,
        "frac",
    )
    out["poly.gcd.max_bits"] = (tracer.gcd_max_bits, "bits")
    out["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "frac")
    out["trace.accounted_frac"] = (sum(v[2] for v in spans.values()) / spanned_s, "frac")
    return out


def setup_seconds(workload: str, seed: int, digest: str) -> float:
    """Median time, over fresh interpreters, to import casinv and build and parse the systems."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        elapsed, probe_digest = proc.stdout.split()
        if probe_digest != digest:
            raise RuntimeError("two set-ups of one seed built different systems")
        times.append(float(elapsed))
    return statistics.median(times)


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "casinv" / "__init__.py").is_file():
        print(f"error: no casinv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = declared_metrics(bool(args.trace))
    OUT.mkdir(exist_ok=True)

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        import casinv
        import numpy
        import oracle
        from casinv import cli

        cases, tokens, digest = workloads.prepare(args.workload, args.seed, Path(workdir))
        setup_s = setup_seconds(args.workload, args.seed, digest)
        signal.signal(signal.SIGALRM, _on_alarm)
        call_seeds = f"calls:{args.workload}:{args.seed}"
        Loop(cli, cases, tokens, WARM_UP_LIMIT_S).rounds(
            random.Random(call_seeds + ":warm-up"), 0.0, count=1
        )
        # what exists now lives for the whole run; the collector before each call skips it
        gc.freeze()

        # a traced run spends half its time on the untraced rounds, half on their replay
        loop = Loop(cli, cases, tokens)
        untraced_s = args.seconds / 2 if args.trace else args.seconds
        samples, n_rounds = loop.rounds(random.Random(call_seeds), untraced_s)
        check_samples(oracle, cases, samples)

        # the probes run after the timed rounds, inside the spans of a traced run
        traced, probes = [], []
        probe_seeds = random.Random(call_seeds + ":probe")
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced, _ = loop.rounds(random.Random(call_seeds), 0.0, count=n_rounds)
                probes = loop.probe(probe_seeds)
            finally:
                tracer.uninstall()
            check_samples(oracle, cases, traced)
        else:
            probes = loop.probe(probe_seeds)
        check_samples(oracle, cases, probes)

    if args.trace:
        traced_s = sum(s.seconds for s in traced)
        spanned_s = traced_s + sum(p.elapsed for p in probes)
        metrics = per_layer(tracer, traced_s, sum(s.seconds for s in samples), spanned_s)
    else:
        metrics = end_to_end(samples, setup_s)
    if any(not METRIC_NAME.fullmatch(n) for n in metrics) or {
        n: u for n, (_, u) in metrics.items()
    } != declared:
        print("error: metrics do not match BENCHMARK.json", file=sys.stderr)
        return 2

    attempted = len(samples)
    correct_n = sum(s.correct for s in samples)
    wrong = [s for s in samples + traced + probes if s.wrong]
    # a probe must stop at the limit, not run on far past it
    late = [p for p in probes if p.elapsed > PROBE_LATE_S]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "casinv": casinv.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "limit_s": LIMIT_S,
        "systems": len(loop.timed),
        "probes": ",".join(cases[p.case].name for p in probes) or "none",
        "rounds": n_rounds,
        "calls": attempted,
    }
    result = {
        "correct": not wrong and not late,
        "attempted": attempted,
        "failed": attempted - correct_n,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    record = {
        "meta": meta,
        "result": result,
        "samples": [
            {
                "system": cases[s.case].name,
                "round": s.round,
                "traced": traced_pass,
                "probe": cases[s.case].probe,
                "seed": s.seed,
                "rc": s.rc,
                "seconds": s.seconds,
                "elapsed": s.elapsed,
                "correct": s.correct,
                "error": s.error,
            }
            for traced_pass, group in ((False, samples), (True, traced), (bool(args.trace), probes))
            for s in group
        ],
        "spans": tracer.edge_table() if args.trace else [],
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    for s in wrong:
        print(f"WRONG {cases[s.case].name} --seed {s.seed}: rc={s.rc} {s.error.strip()[-200:]}")
    for p in probes:
        if p.rc is None:
            verdict = "undecided, stopped at the limit"
        else:
            verdict = f"rc={p.rc}, {'matches' if p.correct else 'does not match'} the known answer"
        late_note = " (LATE: the limit did not stop it in time)" if p in late else ""
        print(f"probe {cases[p.case].name} --seed {p.seed}: {verdict} after {p.elapsed:.3f} s{late_note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>14.6g} {unit:6s} calls={attempted}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
