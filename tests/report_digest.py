"""One sha256 over a fixed set of casinv reports.

Run as `python tests/report_digest.py` from the repository root (the script
puts `src/` on the path itself).  It renders every report in-process, plain
and with `--json`, and hashes each call's argv, exit code, stdout and stderr.
Two trees that print the same count and digest printed the same bytes, so a
change meant to keep every report byte-identical is checked by running this
at both commits.  The line for the current reports is pinned in
`tests/golden/report-digest.txt`, and CI diffs this script's output against it.

The set:

* the 6 bundled fixtures at `--seed 0` to `9` with `--flow`;
* the pinned systems `tests/systems/*.psys` at `--seed 0` to `3`;
* the `lie-poisson` systems of `bench/workloads.py` at `--seed 0` to `2`,
  without the so(5)* probe, which runs into the benchmark's time limit;
* the 200 `nambu3` systems of workload seeds 0 and 1 at `--seed 0`;
* `validate`, `rank`, `gamma`, `casimirs`, `verify --flow` and `cost SYSTEM`
  on the 6 fixtures at `--seed 0` and `1`, and on the pinned systems at
  `--seed 0`;
* `systems`, and `cost --dim 6 --rank 4`.

bench/workloads.py is loaded from its file, read-only.  The generated
systems are written to a temporary directory under fixed file names; the
reports name a system by its `system` line, never by its path.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from casinv.cli import main  # noqa: E402
from casinv.fixtures import fixture_names  # noqa: E402


def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def report_argvs(workdir: Path) -> list:
    """Every argv of the set, in a fixed order, without --json."""
    argvs = []
    for name in fixture_names():
        for seed in range(10):
            argvs.append(["all", name, "--seed", str(seed), "--flow"])
    for path in sorted((ROOT / "tests" / "systems").glob("*.psys")):
        for seed in range(4):
            argvs.append(["all", str(path), "--seed", str(seed)])
    workloads = _workloads()
    generated = [c for c in workloads.lie_poisson_workload(0) if not c.probe]
    seeds = {id(c): range(3) for c in generated}
    for wseed in (0, 1):
        nambu = workloads.nambu3_workload(wseed)
        generated += nambu
        seeds.update((id(c), range(1)) for c in nambu)
    for k, case in enumerate(generated):
        path = workdir / f"{k:03d}.psys"
        path.write_text(case.text)
        for seed in seeds[id(case)]:
            argvs.append(["all", str(path), "--seed", str(seed)] + (["--flow"] if case.flow else []))
    stages = [["validate"], ["rank"], ["gamma"], ["casimirs"], ["verify", "--flow"], ["cost"]]
    for name in fixture_names():
        for seed in range(2):
            argvs += [[cmd, name, "--seed", str(seed), *flags] for cmd, *flags in stages]
    for path in sorted((ROOT / "tests" / "systems").glob("*.psys")):
        argvs += [[cmd, str(path), "--seed", "0", *flags] for cmd, *flags in stages]
    argvs += [["systems"], ["cost", "--dim", "6", "--rank", "4"]]
    return argvs


def render(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def digest() -> tuple:
    """(number of reports, sha256 hex digest) of the whole set."""
    h = hashlib.sha256()
    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for argv in report_argvs(workdir):
            for extra in ([], ["--json"]):
                code, out, err = render(argv + extra)
                # paths differ between checkouts and runs: hash them relative
                label = [a.replace(str(ROOT), ".").replace(tmp, "tmp") for a in argv + extra]
                for part in (" ".join(label), str(code), out, err):
                    h.update(part.encode())
                    h.update(b"\0")
                count += 1
    return count, h.hexdigest()


if __name__ == "__main__":
    n, hexdigest = digest()
    print(f"{n} reports sha256 {hexdigest}")
