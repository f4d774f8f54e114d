"""One timed set-up in a fresh interpreter: import casinv, build and parse the systems.

    python3 bench/setup_probe.py <workload> <seed>

Prints the elapsed seconds and a digest of the generated inputs. `run.py`
runs it several times and reports the median as `setup_s`.
"""

import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as workdir:
        t0 = perf_counter()
        import casinv  # noqa: F401  (the import is part of what is timed)
        import workloads

        _, _, digest = workloads.prepare(workload, seed, Path(workdir))
        elapsed = perf_counter() - t0
    print(elapsed, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
