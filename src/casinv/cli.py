"""Command-line front end.

Subcommands walk the pipeline in increasing depth: `validate` checks the
matrix is a sound input (skew symmetry, Jacobi identity), `rank` finds the
pivot decomposition, `gamma` the degeneracy relations, `casimirs` the
invariants, `verify` rechecks everything symbolically and numerically, and
`all` adds the cost comparison.  STAGES lists each one's sections, which
run_stages runs in order over one run record: `decomp`, `gammas` and
`result` for the sections after them.  A failed validation ends the run.
`cost` reports the equation counts, either for a system file or straight
from --dim/--rank.

Every stage draws its randomness from the --seed flag alone, so repeated
runs with the same seed produce byte-identical output.  Exit codes: 0 all
checks passed, 1 a check failed, 2 bad usage or unreadable input, 3 the
computation itself gave up (no usable sample point, no integrating factor).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import zlib
from pathlib import Path

from .cost import quadrature_cost
from .expr import AlgebraError, format_expr
from .fixtures import fixture_names, load_fixture
from .gamma import GammaCertificationError, solve_gamma
from .integrate import IntegrationError, NonElementaryError, integrate_all
from .matrix import StructureError
from .sysfile import ParsedSystem, SystemFileError, load_system
from .verify import (
    FLOW_DRIFT_TOL,
    casimir_check,
    degeneracy_residual,
    flow_conservation,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_COMPUTATION = 3


def stage_seed(seed: int, stage: str) -> int:
    """Per-stage seed derived from the user seed; stable across runs."""
    return zlib.crc32(stage.encode()) ^ seed


class UsageError(Exception):
    pass


def load_any(token: str) -> ParsedSystem:
    path = Path(token)
    if path.exists():
        return load_system(path)
    if token in fixture_names():
        return load_fixture(token)
    raise UsageError(
        f"{token!r} is neither a file nor a bundled system "
        f"(bundled: {', '.join(fixture_names())})"
    )


class Report:
    """Accumulates one run as text lines plus a mirror JSON object."""

    def __init__(self, command: str, system: str | None):
        self.lines: list = []
        self.data: dict = {"command": command}
        if system is not None:
            self.data["system"] = system
        self.ok = True

    def say(self, line: str):
        self.lines.append(line)

    def fail(self, line: str):
        self.ok = False
        self.lines.append(line)

    def emit(self, as_json: bool) -> int:
        self.data["ok"] = self.ok
        if as_json:
            print(json.dumps(self.data, indent=2, sort_keys=True))
        else:
            print("\n".join(self.lines))
        return EXIT_OK if self.ok else EXIT_CHECK_FAILED


# -- sections -----------------------------------------------------------------


def section_validate(sys_: ParsedSystem, args, rep: Report, run: dict) -> bool:
    """Skew symmetry, then the Jacobi identity; False, which ends the run, if either fails."""
    mat = sys_.matrix
    rep.say(
        f"system {sys_.name}: {len(mat.symbols.variables)} variables, "
        f"{len(mat.symbols.parameters)} parameters"
    )
    violations = mat.check_skew()
    if violations:
        rep.data["skew"] = [
            {"row": v.row, "col": v.col, "residual": format_expr(v.residual)}
            for v in violations
        ]
        for v in violations:
            rep.fail(f"skew: J[{v.row}][{v.col}] + J[{v.col}][{v.row}] = {format_expr(v.residual)}")
        return False
    rep.say("skew: ok")
    rep.data["skew"] = "ok"

    jac = mat.jacobi_report(
        samples=args.samples, tol=args.tol, seed=stage_seed(args.seed, "jacobi")
    )
    rep.data["jacobi"] = {
        "ok": jac.ok,
        "triples_checked": jac.triples_checked,
        "sampled_only": list(jac.sampled_only),
        "failures": [list(f.triple) for f in jac.failures],
    }
    if jac.ok:
        note = "" if not jac.sampled_only else f", {len(jac.sampled_only)} sampled only"
        rep.say(f"jacobi: ok ({jac.triples_checked} triple(s) checked{note})")
        return True
    for f in jac.failures:
        i, j, k = f.triple
        rep.fail(f"jacobi: fails at triple ({i},{j},{k})")
    return False


def section_rank(sys_: ParsedSystem, args, rep: Report, run: dict):
    decomp = run["decomp"] = sys_.matrix.decompose(seed=stage_seed(args.seed, "rank"))
    rep.say(
        f"rank: {decomp.rank} "
        f"(pivot rows {_ints(decomp.pivot_rows_1based)}; "
        f"dependent rows {_ints(decomp.dependent_rows_1based)})"
    )
    rep.say(f"pivot determinant: {format_expr(decomp.pivot_det)}")
    rep.data["rank"] = decomp.rank
    rep.data["pivot_rows"] = list(decomp.pivot_rows_1based)
    rep.data["dependent_rows"] = list(decomp.dependent_rows_1based)
    rep.data["pivot_determinant"] = format_expr(decomp.pivot_det)


def section_gamma(sys_: ParsedSystem, args, rep: Report, run: dict):
    gammas = run["gammas"] = solve_gamma(
        sys_.matrix,
        run["decomp"],
        samples=args.samples,
        tol=args.tol,
        seed=stage_seed(args.seed, "gamma"),
    )
    entries = {}
    for (dep, piv), coeff in gammas.items_1based():
        text = format_expr(coeff)
        rep.say(f"gamma[{dep}][{piv}] = {text}")
        entries[f"{dep},{piv}"] = text
    if not gammas.dependent_rows:
        rep.say("gamma: none (full rank)")
    elif not entries:
        rep.say("gamma: none (rank 0)")
    rep.data["gamma"] = entries
    if gammas.sampled_columns:
        cols = ", ".join(f"({i},{j})" for i, j in gammas.sampled_columns)
        rep.say(f"gamma: columns certified numerically only: {cols}")
        rep.data["gamma_sampled_columns"] = [list(c) for c in gammas.sampled_columns]


def section_casimirs(sys_: ParsedSystem, args, rep: Report, run: dict):
    result = run["result"] = integrate_all(
        sys_.matrix, run["decomp"], run["gammas"], seed=stage_seed(args.seed, "integrate")
    )
    rep.say(f"casimirs: {len(result.casimirs)} of {result.target} expected")
    out = []
    for idx, c in enumerate(result.casimirs, start=1):
        detail = f"rows {_ints(c.rows)}, {c.provenance}"
        if c.eta is not None:
            detail += f", eta = {format_expr(c.eta)}"
        if c.multipliers:
            mults = ", ".join(f"row {r}: {format_expr(m)}" for r, m in c.multipliers)
            detail += f", multipliers {mults}"
        rep.say(f"casimir {idx} ({detail}):")
        rep.say(f"  {format_expr(c.expr)}")
        out.append(
            {
                "expr": format_expr(c.expr),
                "rows": list(c.rows),
                "provenance": c.provenance,
                "eta": None if c.eta is None else format_expr(c.eta),
                "multipliers": [[r, format_expr(m)] for r, m in c.multipliers],
            }
        )
    for note in result.notes:
        rep.say(f"note: {note}")
    rep.data["casimirs"] = out
    rep.data["casimir_notes"] = list(result.notes)


def section_verify(sys_: ParsedSystem, args, rep: Report, run: dict):
    mat = sys_.matrix
    seed = stage_seed(args.seed, "verify")
    checks = []
    for idx, c in enumerate(run["result"].casimirs, start=1):
        chk = casimir_check(mat, c.expr, samples=args.samples, tol=args.tol, seed=seed)
        status = "ok" if chk.symbolic_ok else "FAILED"
        line = (
            f"verify casimir {idx}: symbolic {status}, "
            f"max numeric residual {chk.max_residual:.3e}"
        )
        if chk.symbolic_ok and chk.max_residual <= args.tol:
            rep.say(line)
        else:
            rep.fail(line)
        if chk.sampled_components:
            rep.say(
                f"  components certified numerically only: {_ints(chk.sampled_components)}"
            )
        checks.append(
            {
                "symbolic_ok": chk.symbolic_ok,
                "max_residual": chk.max_residual,
                "sampled_components": list(chk.sampled_components),
            }
        )
    resid = degeneracy_residual(mat, run["gammas"], points=args.samples, seed=seed)
    line = f"verify degeneracy relations: max residual {resid:.3e}"
    if resid <= args.tol:
        rep.say(line)
    else:
        rep.fail(line)
    rep.data["verify"] = {"casimirs": checks, "degeneracy_residual": resid}


def section_flow(sys_: ParsedSystem, args, rep: Report, run: dict):
    """Drift along the flow, with --flow only."""
    if not args.flow:
        return
    if sys_.hamiltonian is None:
        rep.say("flow: skipped (the system file declares no hamiltonian)")
        rep.data["flow"] = "skipped"
        return
    flow = flow_conservation(
        sys_.matrix,
        sys_.hamiltonian,
        [c.expr for c in run["result"].casimirs],
        seed=stage_seed(args.seed, "flow"),
    )
    drifts = ", ".join(f"{d:.3e}" for d in flow.invariant_drifts) or "none to track"
    line = (
        f"flow: {flow.completed}/{flow.trajectories} trajectories x "
        f"{flow.steps_per_trajectory} steps; "
        f"invariant drift {drifts}; hamiltonian drift {flow.hamiltonian_drift:.3e}"
    )
    bad = [d for d in flow.invariant_drifts + (flow.hamiltonian_drift,) if d > FLOW_DRIFT_TOL]
    if bad or flow.completed < flow.trajectories:
        rep.fail(line)
    else:
        rep.say(line)
    if flow.aborted:
        rep.say(
            "flow: attempts cut short before completing: "
            + ", ".join(f"#{i} at t={t:.3f} (scale {s:g})" for i, t, s in flow.aborted)
        )
    rep.data["flow"] = {
        "invariant_drifts": list(flow.invariant_drifts),
        "hamiltonian_drift": flow.hamiltonian_drift,
        "trajectories": flow.trajectories,
        "completed": flow.completed,
        "steps_per_trajectory": flow.steps_per_trajectory,
        "aborted": [list(a) for a in flow.aborted],
    }


def section_cost(n: int, rank: int, rep: Report):
    report = quadrature_cost(n, rank)
    rep.data["cost"] = {
        "n": report.n,
        "rank": report.rank,
        "casimirs": report.casimir_count,
        "pfaffian_equations": report.pfaffian_equations,
        "classical_equations": report.classical_equations,
        "ratio": None if report.ratio is None else str(report.ratio),
        "note": report.note,
    }
    rep.say(
        f"cost: {report.pfaffian_equations} Pfaffian equation(s) vs "
        f"{report.classical_equations} componentwise equation(s)"
    )
    if report.ratio is not None:
        rep.say(f"cost ratio: {report.ratio}")
    if report.note:
        rep.say(f"cost note: {report.note}")


def section_system_cost(sys_: ParsedSystem, args, rep: Report, run: dict):
    section_cost(sys_.matrix.n, run["decomp"].rank, rep)


def _ints(values) -> str:
    return " ".join(str(v) for v in values) if values else "-"


# -- commands -------------------------------------------------------------------


def cmd_systems(args) -> int:
    rep = Report("systems", None)
    rep.data["systems"] = fixture_names()
    for name in fixture_names():
        rep.say(name)
    return rep.emit(args.json)


# command -> its sections, in the order they run
STAGES = {
    "validate": (section_validate,),
    "rank": (section_rank,),
    "gamma": (section_rank, section_gamma),
    "casimirs": (section_rank, section_gamma, section_casimirs),
}
STAGES["verify"] = (section_validate, *STAGES["casimirs"], section_verify, section_flow)
STAGES["all"] = STAGES["verify"] + (section_system_cost,)


def run_stages(args) -> int:
    """Run the command's STAGES over one run record; a section returning False ends the run."""
    sys_ = load_any(args.system)
    rep = Report(args.command, sys_.name)
    stages = STAGES[args.command]
    run: dict = {}
    for k, section in enumerate(stages, start=1):
        if section(sys_, args, rep, run) is False:
            if k < len(stages):
                rep.say("structure checks failed; later stages skipped")
            break
    return rep.emit(args.json)


def cmd_cost(args) -> int:
    if args.system is not None and (args.dim is not None or args.rank is not None):
        raise UsageError("cost takes a SYSTEM or --dim and --rank, not both")
    if args.system is not None:
        sys_ = load_any(args.system)
        rep = Report("cost", sys_.name)
        decomp = sys_.matrix.decompose(seed=stage_seed(args.seed, "rank"))
        n, rank = sys_.matrix.n, decomp.rank
    elif args.dim is not None and args.rank is not None:
        rep = Report("cost", None)
        n, rank = args.dim, args.rank
    else:
        raise UsageError("cost needs a SYSTEM, or both --dim and --rank")
    try:
        section_cost(n, rank, rep)
    except ValueError as e:
        raise UsageError(str(e)) from e
    return rep.emit(args.json)


# -- entry point ------------------------------------------------------------------


def sample_count(text: str) -> int:
    """--samples: an integer >= 1; a check over no sample point passes vacuously."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def seed_value(text: str) -> int:
    """--seed: an integer 0 <= seed < 2^32; stage seeds mix in 32 bits, so others would alias."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < 2**32:
        raise argparse.ArgumentTypeError(f"expected an integer 0 <= seed < 2^32, got {text!r}")
    return value


def tolerance(text: str) -> float:
    """--tol: a finite number > 0; under nan or inf every sampled value passes as zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")
    return value


def _json_flag(sp):
    sp.add_argument("--json", action="store_true", help="emit a JSON report")


def _common(sp, sampled=True):
    sp.add_argument("system", help="path to a system file, or a bundled system name")
    sp.add_argument(
        "--seed", type=seed_value, default=0, help="base random seed, 0 <= seed < 2^32 (default 0)"
    )
    if sampled:
        sp.add_argument(
            "--samples", type=sample_count, default=20, help="points per numeric check (default 20)"
        )
        sp.add_argument(
            "--tol", type=tolerance, default=1e-9, help="numeric zero tolerance (default 1e-9)"
        )
    _json_flag(sp)


def _unsampled(sp):
    # the rank is decided modulo a prime: no sampled check, so no --samples or --tol
    _common(sp, sampled=False)


def _pipeline(sp):
    _common(sp)
    sp.add_argument("--flow", action="store_true", help="also check drift along the flow")


def _cost(sp):
    sp.add_argument("system", nargs="?", default=None, help="optional system file or bundled name")
    sp.add_argument("--dim", type=int, default=None, help="dimension n")
    sp.add_argument("--rank", type=int, default=None, help="rank 2m")
    sp.add_argument("--seed", type=seed_value, default=0, help=argparse.SUPPRESS)
    _json_flag(sp)


# name -> (help, handler, adds the command's arguments), in the order help lists them
COMMANDS = {
    "systems": ("list the bundled example systems", cmd_systems, _json_flag),
    "validate": ("check skew symmetry and the Jacobi identity", run_stages, _common),
    "rank": ("rank and pivot decomposition", run_stages, _unsampled),
    "gamma": ("degeneracy relation coefficients", run_stages, _common),
    "casimirs": ("integrate the invariants", run_stages, _common),
    "verify": ("recheck the computed invariants", run_stages, _pipeline),
    "all": ("full pipeline plus the cost comparison", run_stages, _pipeline),
    "cost": ("equation counts for a system or a (dim, rank) pair", cmd_cost, _cost),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser: every command's subparser, or only `command`'s.

    Each add_argument call costs a help formatter, so a run builds only the
    subparser it invokes.  The one-command tree keeps the full tree's usage
    line (its metavar lists every command), so its help texts and usage
    errors are the full tree's, byte for byte.
    """
    parser = argparse.ArgumentParser(
        prog="casinv",
        description="Invariants of finite-dimensional Poisson systems from their structure matrix.",
    )
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else (command,):
        text, handler, add_arguments = COMMANDS[name]
        sp = sub.add_parser(name, help=text)
        add_arguments(sp)
        sp.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, SystemFileError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (
        StructureError,
        GammaCertificationError,
        IntegrationError,
        NonElementaryError,
        AlgebraError,
    ) as e:
        print(f"computation failed: {e}", file=sys.stderr)
        return EXIT_COMPUTATION


if __name__ == "__main__":
    sys.exit(main())
