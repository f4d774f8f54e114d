"""Command-line behavior: output shape, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from casinv import cli, matrix
from casinv.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_systems_lists_bundled(capsys):
    code, out, _ = run(capsys, "systems")
    assert code == 0
    names = out.split()
    assert "so3" in names and "light-top" in names


def _subparsers(parser):
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_one_command_parser_prints_the_full_tree_texts(command):
    # main builds only the subparser it invokes; help and usage must not notice
    full, one = cli.build_parser(), cli.build_parser(command)
    assert list(_subparsers(one)) == [command]
    assert _subparsers(one)[command].format_help() == _subparsers(full)[command].format_help()
    assert one.format_usage() == full.format_usage()


@pytest.mark.parametrize(
    "argv",
    [["validate", "so3", "--bogus"], ["cost", "--dim", "x"], ["all"], ["rank", "so3", "--tol", "1"]],
)
def test_usage_errors_match_the_full_tree(argv, capsys, monkeypatch):
    with pytest.raises(SystemExit) as one:
        main(argv)
    one_err = capsys.readouterr().err
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build_parser())
    with pytest.raises(SystemExit) as full:
        main(argv)
    assert one.value.code == full.value.code == 2
    assert one_err == capsys.readouterr().err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", "so3")
    assert code == 0
    assert "skew: ok" in out
    assert "jacobi: ok" in out


def test_validate_corrupt_fails_with_named_triple(capsys):
    code, out, _ = run(capsys, "validate", "lv3-j1-corrupt")
    assert code == 1
    assert "jacobi: fails at triple (1,2,3)" in out


def test_rank_output(capsys):
    code, out, _ = run(capsys, "rank", "light-top")
    assert code == 0
    assert "rank: 4" in out
    assert "dependent rows 3 6" in out


def test_gamma_output(capsys):
    code, out, _ = run(capsys, "gamma", "lv3-j1")
    assert code == 0
    assert "gamma[3][1] = -a*b*x3/x1" in out
    assert "gamma[3][2] = b*x3/x2" in out


def test_casimirs_output(capsys):
    code, out, _ = run(capsys, "casimirs", "lv3-j1")
    assert code == 0
    assert "a*b*ln(x1) - b*ln(x2) + ln(x3)" in out
    assert "eta = 1/x3" in out


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "so3")
    assert code == 0
    assert "symbolic ok" in out


def test_all_with_flow(capsys):
    code, out, _ = run(capsys, "all", "light-top", "--flow")
    assert code == 0
    assert "flow:" in out
    assert "cost ratio: 1/8" in out


def test_all_skips_stages_after_jacobi_failure(capsys):
    code, out, _ = run(capsys, "all", "lv3-j1-corrupt")
    assert code == 1
    assert "later stages skipped" in out
    assert "casimir" not in out


def test_cost_direct(capsys):
    code, out, _ = run(capsys, "cost", "--dim", "6", "--rank", "4")
    assert code == 0
    assert "cost ratio: 1/8" in out


def test_cost_from_system(capsys):
    code, out, _ = run(capsys, "cost", "lv3-j2")
    assert code == 0
    assert "cost ratio: 1/2" in out


def test_cost_without_arguments_is_usage_error(capsys):
    code, _, err = run(capsys, "cost")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("flags", [["--dim", "6", "--rank", "4"], ["--dim", "6"], ["--rank", "4"]])
def test_cost_system_with_dim_or_rank_is_usage_error(capsys, flags):
    code, out, err = run(capsys, "cost", "so3", *flags)
    assert code == 2
    assert out == ""
    assert "not both" in err


def test_cost_odd_rank_is_usage_error(capsys):
    code, _, err = run(capsys, "cost", "--dim", "5", "--rank", "3")
    assert code == 2
    assert "even" in err


def test_unknown_system_is_usage_error(capsys):
    code, _, err = run(capsys, "validate", "no-such-system")
    assert code == 2
    assert "bundled" in err


def test_corrupt_casimirs_is_computation_error(capsys):
    code, _, err = run(capsys, "casimirs", "lv3-j1-corrupt")
    assert code == 3
    assert "computation failed" in err


def test_unsampleable_matrix_is_computation_error(tmp_path, capsys):
    # ln(-x) is undefined wherever x is sampled, so no regular point exists
    p = tmp_path / "lnneg.psys"
    p.write_text("system lnneg\nvars x y\nJ[1][2] = ln(-x)\n")
    code, _, err = run(capsys, "all", str(p))
    assert code == 3
    assert "computation failed" in err
    assert "Traceback" not in err


LN_JACOBI = (
    "system lnjac\nvars x1 x2 x3 x4\nJ[2][3] = 1\n"
    "J[3][4] = x4 + x3*(ln(x2*x3) - ln(x2) - ln(x3)) + x3*ln(x2)\n"
)


def test_ln_jacobi_failure_is_found_by_sampling(tmp_path, capsys):
    p = tmp_path / "lnjac.psys"
    p.write_text(LN_JACOBI)
    for budget in ([], ["--samples", "1"]):
        code, out, _ = run(capsys, "validate", str(p), *budget)
        assert code == 1
        assert "jacobi: fails at triple (2,3,4)" in out


BAD_BUDGETS = [
    ["--samples", "0"],
    ["--samples=-3"],
    ["--samples", "2.5"],
    ["--tol", "nan"],
    ["--tol", "inf"],
    ["--tol", "0"],
    ["--tol=-1e-9"],
]


@pytest.mark.parametrize("budget", BAD_BUDGETS, ids=" ".join)
def test_vacuous_sampling_budget_is_usage_error(tmp_path, capsys, budget):
    # with no sample point or no usable tolerance the ln Jacobi failure would pass
    p = tmp_path / "lnjac.psys"
    p.write_text(LN_JACOBI)
    with pytest.raises(SystemExit) as exc:
        main(["validate", str(p), *budget])
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert budget[0].split("=")[0] in err


@pytest.mark.parametrize(
    "argv",
    [
        [command, "so3", *budget]
        for command in ("rank", "gamma", "casimirs", "verify", "all")
        for budget in (["--samples", "0"], ["--tol", "nan"])
    ]
    + [["cost", "--dim", "3", "--rank", "2", "--tol", "0"]],
    ids=" ".join,
)
def test_every_subcommand_rejects_vacuous_budgets(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    # cost and rank decide the rank modulo a prime and take no sampling budget at all
    _, err = capsys.readouterr()
    unknown = argv[0] in ("cost", "rank")
    assert (f"unrecognized arguments: {argv[-2]}" if unknown else argv[-2]) in err


@pytest.mark.parametrize(
    "argv",
    [
        [*command, "--seed", seed]
        for command in (
            ["all", "lv3-j1", "--flow"],
            ["rank", "so3"],
            ["cost", "--dim", "3", "--rank", "2"],
        )
        for seed in ("-1", "4294967296", "x")
    ],
    ids=" ".join,
)
def test_out_of_range_seed_is_usage_error(capsys, argv):
    # stage seeds mix in 32 bits: -1 would print what 2^32 - 1 prints, and 2^32 what 0 prints
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    _, err = capsys.readouterr()
    assert "0 <= seed < 2^32" in err and repr(argv[-1]) in err


@pytest.mark.parametrize("seed", ["0", "4294967295"])
def test_seed_range_ends_are_accepted(capsys, seed):
    code, out, _ = run(capsys, "rank", "so3", "--seed", seed)
    assert code == 0 and out


def test_json_report_is_valid(capsys):
    code, out, _ = run(capsys, "all", "lv3-j1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["rank"] == 2
    assert data["cost"]["ratio"] == "1/2"
    assert data["casimirs"][0]["expr"] == "a*b*ln(x1) - b*ln(x2) + ln(x3)"


def test_json_failure_keeps_ok_false(capsys):
    code, out, _ = run(capsys, "validate", "lv3-j1-corrupt", "--json")
    assert code == 1
    data = json.loads(out)
    assert data["ok"] is False
    assert data["jacobi"]["failures"] == [[1, 2, 3]]


def test_repeated_runs_identical(capsys):
    _, out1, _ = run(capsys, "all", "so3", "--flow", "--seed", "42", "--json")
    _, out2, _ = run(capsys, "all", "so3", "--flow", "--seed", "42", "--json")
    assert out1 == out2


def test_file_path_system(tmp_path, capsys):
    p = tmp_path / "mini.psys"
    p.write_text("system mini\nvars q p\nJ[1][2] = 1\nH = p^2\n")
    code, out, _ = run(capsys, "all", str(p))
    assert code == 0
    assert "rank: 2" in out


def test_parse_error_is_usage_error(tmp_path, capsys):
    p = tmp_path / "bad.psys"
    p.write_text("system bad\nvars x y\nJ[1][2] = x +\n")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2
    assert "bad.psys" in err


def test_directory_input_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "all", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_non_utf8_input_is_usage_error(tmp_path, capsys):
    p = tmp_path / "latin1.psys"
    p.write_bytes("system caf\xe9\nvars x y\nJ[1][2] = x\n".encode("latin-1"))
    code, _, err = run(capsys, "all", str(p))
    assert code == 2
    assert err.startswith("error: ")
    assert "latin1.psys" in err


KEYWORD_SYSTEM = """\
system keywords
vars log lambda def
params None b
domain log > 0
domain lambda > 0
domain def > 0
J[1][2] = -log*lambda/(None*b)
J[1][3] = -log*def/None
J[2][3] = -lambda*def
H = None*b*log + lambda - None*def - b*ln(lambda) - ln(def)
"""


def test_keyword_and_log_symbol_names_run_the_flow(tmp_path, capsys):
    # Python keywords and `log` are fine identifiers in a system file; the
    # compiled evaluator must neither choke on them nor let them shadow log
    p = tmp_path / "keywords.psys"
    p.write_text(KEYWORD_SYSTEM)
    code, out, err = run(capsys, "all", str(p), "--flow")
    assert code == 0, out + err
    assert "None*b*ln(log) - b*ln(lambda) + ln(def)" in out
    assert "flow: 5/5 trajectories" in out


def test_flow_retries_unresolved_hamiltonian_drift(tmp_path, capsys):
    # x' = -12*x*y, y' = -y: at unit scale x decays by up to e^-12, and the
    # step error, controlled relative to 1 + |x|, moves ln(x) in H.  At this
    # seed trajectories 1 and 4 complete at scale 1 with the Hamiltonian
    # drifting past the tolerance; they are retried at 0.5
    p = tmp_path / "decay.psys"
    p.write_text("system decay\nvars x y\ndomain x > 0\nJ[1][2] = x*y\nH = -12*y + ln(x)\n")
    code, out, _ = run(capsys, "all", str(p), "--seed", "0", "--flow")
    assert code == 0
    assert "#1 at t=1.000 (scale 1), #4 at t=1.000 (scale 1)" in out


@pytest.mark.parametrize("h", ["-1000*y + x*ln(x)", "-1000*y + 1/x"])
def test_flow_leaving_the_domain_aborts_the_attempt(tmp_path, capsys, h):
    # x' = -1000 drives x below zero within two steps.  With ln(x) in the
    # field a stage point raises a math domain error, which ends the attempt
    # as overflow does; with 1/x the positivity guard ends it at a half point
    p = tmp_path / "drain.psys"
    p.write_text(f"system drain\nvars x y\ndomain x > 0\ndomain y > 0\nJ[1][2] = 1\nH = {h}\n")
    code, out, err = run(capsys, "all", str(p), "--flow")
    assert code == 1
    assert "flow: 0/5 trajectories" in out
    assert "#4 at t=0.001 (scale 0.0625)" in out
    assert "Traceback" not in err


def test_flow_nan_state_fails_the_check(tmp_path, capsys):
    # x' = 1e300*y overflows in the first stage and every coordinate turns
    # NaN; NaN passes no comparison, so it used to slip past the escape test
    # and the drift maximum and report 5/5 trajectories with zero drift
    p = tmp_path / "huge.psys"
    p.write_text("system huge\nvars x y\nJ[1][2] = 10^300\nH = 1/2*x^2 + 1/2*y^2\n")
    code, out, err = run(capsys, "all", str(p), "--flow")
    assert code == 1
    assert "flow: 0/5 trajectories" in out
    assert "#4 at t=0.001 (scale 0.0625)" in out
    assert "Traceback" not in err


def test_constant_past_the_float_range_is_computation_error(tmp_path, capsys):
    # the zero test compiles the term 10^400 as an exact literal, so the sum
    # overflows at every sample point, which is skipped, instead of raising
    # while the code is built
    p = tmp_path / "big.psys"
    p.write_text("system big\nvars x y z\ndomain x > 0\nJ[1][2] = ln(x) + 10^400\n")
    code, _, err = run(capsys, "all", str(p))
    assert code == 3
    assert "computation failed: could not sample points where the matrix is regular" in err
    assert "Traceback" not in err


def test_eta_from_a_split_coefficient_factor(tmp_path, capsys):
    # the Nambu bracket of C = z + ln(z) + ln(y) + 3*ln(x + y): eta is
    # (z + 1)/z, whose factor z + 1 is only a content factor of the
    # coefficient denominator x*z + y*z + x + y = (x + y)*(z + 1)
    p = tmp_path / "nambu-ln.psys"
    p.write_text(
        "system nambu-ln\nvars x y z\ndomain x > 0\ndomain y > 0\ndomain z > 0\n"
        "J[1][2] = (z + 1)/z\nJ[1][3] = (-x - 4*y)/(x*y + y^2)\nJ[2][3] = 3/(x + y)\n"
    )
    code, out, err = run(capsys, "all", str(p))
    assert code == 0, out + err
    assert "eta = (z + 1)/z):\n  z + 3*ln(x + y) + ln(y) + ln(z)\n" in out


@pytest.mark.parametrize("flow", [[], ["--flow"]])
def test_sample_overflow_skips_the_point(tmp_path, capsys, flow):
    # x^400 overflows a double for x > 5.9, where sampled points often land;
    # such points are skipped like ones outside the domain
    p = tmp_path / "steep.psys"
    p.write_text("system steep\nvars x y z\nJ[1][2] = x^400\n")
    code, out, err = run(capsys, "all", str(p), *flow)
    assert code == 0
    assert "casimir 1 (rows 3, not-needed, eta = 1):\n  z\n" in out
    assert "Traceback" not in err


LNID = (
    "system lnid\nvars x y z w\ndomain x > 0\ndomain y > 0\n"
    "J[1][2] = 1\nJ[3][4] = ln(x*y) - ln(x) - ln(y)\n"
)


def test_ln_identity_system_steps_down_to_the_true_rank(tmp_path, capsys, monkeypatch):
    # J[3][4] = ln(x*y) - ln(x) - ln(y) is zero, but not canonically: its three
    # ln atoms take independent residues, so the residue rank is 4, and
    # decompose must step down to the certified 2x2 block.  Assert on fields,
    # not bytes: the residuals come from libm log.
    grown = []
    grow = matrix._grow
    monkeypatch.setattr(matrix, "_grow", lambda s, order: grown.append(grow(s, order)) or grown[-1])
    p = tmp_path / "lnid.psys"
    p.write_text(LNID)
    code, out, _ = run(capsys, "all", str(p), "--json")
    data = json.loads(out)
    assert grown == [[(0, 1), (2, 3)]]
    assert code == 0 and data["ok"]
    assert data["rank"] == 2 and data["pivot_rows"] == [1, 2]
    assert [c["expr"] for c in data["casimirs"]] == ["z", "w"]
    assert data["gamma_sampled_columns"] == [[3, 4], [4, 3]]


def test_rank_zero_gamma_checks_the_columns_of_j(tmp_path, capsys):
    # J[1][2] = ln(x*y) - ln(x) - ln(y) is zero but not canonically, so the
    # rank steps down to 0; the unit forms' column check must still flag it
    p = tmp_path / "rank0.psys"
    p.write_text(
        "system rank0\nvars x y z\ndomain x > 0\ndomain y > 0\n"
        "J[1][2] = ln(x*y) - ln(x) - ln(y)\n"
    )
    code, out, _ = run(capsys, "gamma", str(p))
    assert code == 0
    assert "rank: 0 (pivot rows -; dependent rows 1 2 3)" in out
    assert "gamma: none (rank 0)" in out and "full rank" not in out
    assert "gamma: columns certified numerically only: (1,2), (2,1)" in out
    code, out, _ = run(capsys, "all", str(p), "--json")
    data = json.loads(out)
    assert code == 0 and data["ok"]
    assert data["gamma"] == {} and data["gamma_sampled_columns"] == [[1, 2], [2, 1]]
    assert [c["expr"] for c in data["casimirs"]] == ["x", "y", "z"]


def test_full_rank_gamma_says_full_rank(capsys):
    code, out, _ = run(capsys, "gamma", "symplectic2")
    assert code == 0
    assert out.splitlines()[-1] == "gamma: none (full rank)"


def test_pipeline_does_not_import_numpy(tmp_path):
    # numpy serves only the public gradient_rank and numeric_rank, imported on use
    lnid = tmp_path / "lnid.psys"
    lnid.write_text(LNID)
    runs = [["all", "light-top", "--flow"], ["all", "lv3-j1"], ["all", "lv3-j2"]]
    runs.append(["all", str(lnid)])
    code = (
        "import sys; from casinv import cli; "
        f"code = max(cli.main(argv) for argv in {runs!r}); "
        "sys.exit(10 + code if 'numpy' in sys.modules else code)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_flow_resolves_lv3_j2_seed_20(capsys):
    # a trajectory here that a fixed step of 1e-3 does not resolve: the exact
    # Casimir drifts 1.9e-5 under it while H drifts less than FLOW_DRIFT_TOL
    code, _, _ = run(capsys, "all", "lv3-j2", "--seed", "20", "--flow")
    assert code == 0


def test_flow_passes_both_lotka_volterra_fixtures_at_60_seeds(capsys):
    failed = [
        (name, seed)
        for name in ("lv3-j1", "lv3-j2")
        for seed in range(60)
        if run(capsys, "all", name, "--seed", str(seed), "--flow")[0] != 0
    ]
    assert failed == []
