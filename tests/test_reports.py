"""Golden reports: `casinv all` output pinned byte for byte.

Each file under tests/golden/ holds the exit code on its first line and the
exact stdout after it.  Flow runs are pinned only for the ln-free systems, so
that no libm `log` rounding enters the pinned bytes.  Besides the bundled
systems, the Lie-Poisson systems under tests/systems/ are pinned, since their
invariants come from the combination stage and the eta search, so(3)^4 for
the busiest pivot enumeration (495 blocks, ties broken by the lowest rows),
and two Nambu systems whose integrating factor needs a solved exponent (x3^3,
x1^3).  Regenerate with
`PYTHONPATH=src python tests/test_reports.py` after a deliberate change, and
say in the change log which bytes moved and why.
"""

import contextlib
import io
from pathlib import Path

import pytest

from casinv.cli import main

GOLDEN = Path(__file__).parent / "golden"
SYSTEMS = Path(__file__).parent / "systems"
FIXTURES = ["light-top", "lv3-j1", "lv3-j1-corrupt", "lv3-j2", "so3", "symplectic2"]
LN_FREE = ["light-top", "so3", "symplectic2"]

CASES = {}
for _name in FIXTURES:
    for _flow in ([False, True] if _name in LN_FREE else [False]):
        for _json in (False, True):
            _key = _name + ("-flow" if _flow else "") + ("-json" if _json else "")
            CASES[_key] = (
                ["all", _name, "--seed", "42"]
                + (["--flow"] if _flow else [])
                + (["--json"] if _json else [])
            )
for _name in ["gl2", "nambu3-sep-f1-2", "nambu3-sep-f4-2", "se3", "so3x12", "so3x4", "so4"]:
    for _json in (False, True):
        _key = _name + ("-json" if _json else "")
        CASES[_key] = ["all", str(SYSTEMS / f"{_name}.psys"), "--seed", "42"] + (
            ["--json"] if _json else []
        )


def render(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("key", sorted(CASES))
def test_report_matches_golden(key):
    want = (GOLDEN / f"{key}.txt").read_text()
    assert render(CASES[key]) == want


def test_verify_report_is_all_without_cost():
    # `verify` and `all` share one pipeline; only the cost lines differ
    want = (GOLDEN / "light-top-flow.txt").read_text()
    want = "".join(line for line in want.splitlines(True) if not line.startswith("cost"))
    assert render(["verify", "light-top", "--seed", "42", "--flow"]) == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for key, argv in sorted(CASES.items()):
        (GOLDEN / f"{key}.txt").write_text(render(argv))
