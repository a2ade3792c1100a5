"""CLI surface: flat JSON/CSV rendering, config merging, exit codes."""

import json
import math
import subprocess
import sys

import pytest

from sobolev_lab import cli
from sobolev_lab import cylinder as cylinder_mod
from sobolev_lab import verify as verify_mod
from sobolev_lab.errors import InconsistencyError
from sobolev_lab.verify import CheckResult


def run_cli(capsys, argv):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_constants_json_d3(capsys):
    code, out, err = run_cli(capsys, ["constants", "--d", "3", "--s", "1.0"])
    assert code == 0
    assert err == ""
    rec = json.loads(out)
    assert list(rec) == [
        "d",
        "s",
        "q",
        "s_ds",
        "be_upper",
        "t_star",
        "c_t_formula_frac_25",
        "c_t_formula_frac_50",
        "c_t_formula_frac_75",
        "c_t_formula_frac_100",
        "quartic_constant",
    ]
    assert rec["d"] == 3
    assert rec["q"] == 6
    assert rec["s_ds"] == pytest.approx(5.477904089531332, rel=1e-12)
    assert rec["be_upper"] == pytest.approx(4.0 / 7.0, rel=1e-12)
    assert rec["t_star"] == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert rec["c_t_formula_frac_25"] == pytest.approx(4.0 / 9.0, rel=1e-12)
    assert rec["c_t_formula_frac_50"] == pytest.approx(4.0 / 9.0, rel=1e-12)
    assert rec["c_t_formula_frac_75"] == pytest.approx(0.3835616438356164, rel=1e-12)
    assert rec["c_t_formula_frac_100"] == 0
    assert rec["quartic_constant"] == pytest.approx(8.0 / 15.0, rel=1e-10)


def test_constants_fractional_order_skips_cylinder_block(capsys):
    code, out, _ = run_cli(capsys, ["constants", "--d", "2", "--s", "0.5"])
    assert code == 0
    rec = json.loads(out)
    assert list(rec) == ["d", "s", "q", "s_ds", "be_upper"]
    assert rec["q"] == 4
    assert rec["be_upper"] == pytest.approx(0.4, rel=1e-12)


def test_period_map_csv(capsys):
    code, out, _ = run_cli(
        capsys, ["period-map", "--d", "3", "--alpha-grid", "0.8,0.9"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha,tau"
    assert len(lines) == 3
    a0, t0 = (float(x) for x in lines[1].split(","))
    a1, t1 = (float(x) for x in lines[2].split(","))
    assert (a0, a1) == (0.8, 0.9)
    assert t1 == pytest.approx(6.859418363896389, rel=1e-12)
    assert t0 < t1


def test_be_scan_degree2_csv(capsys):
    code, out, _ = run_cli(
        capsys, ["be-scan", "--family", "degree2", "--d", "3", "--s", "1.0"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "eps,quotient,extrapolated_limit"
    rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
    assert len(rows) == 3
    limit = rows[0][2]
    assert all(r[2] == limit for r in rows)
    assert limit == pytest.approx(4.0 / 7.0, rel=1e-2)


def test_be_scan_on_a_grid_that_does_not_halve(capsys):
    # the polynomial fit, not Richardson, extrapolates this grid
    code, out, _ = run_cli(
        capsys,
        ["be-scan", "--family", "degree2", "--d", "3", "--s", "1.0",
         "--eps-grid", "0.03,0.02,0.01"],
    )
    assert code == 0
    rows = [tuple(float(x) for x in ln.split(",")) for ln in out.strip().split("\n")[1:]]
    assert [r[0] for r in rows] == [0.03, 0.02, 0.01]
    assert rows[0][2] == pytest.approx(4.0 / 7.0, rel=1e-5)


def test_quartic_csv(capsys):
    code, out, _ = run_cli(capsys, ["quartic", "--d", "3"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "eps,quotient,extrapolated_limit"
    rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:]]
    assert rows[0][2] == pytest.approx(8.0 / 15.0, rel=2e-2)


def test_verify_suite_passes(capsys):
    code, out, _ = run_cli(capsys, ["verify", "sphere"])
    assert code == 0
    assert "checks passed" in out
    assert "FAIL" not in out


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "const.json"
    code, out, _ = run_cli(
        capsys, ["constants", "--d", "3", "--s", "1.0", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    _, direct, _ = run_cli(capsys, ["constants", "--d", "3", "--s", "1.0"])
    assert target.read_text(encoding="utf-8") == direct


@pytest.mark.parametrize("where", ["missing_directory", "a_directory"])
def test_out_path_that_cannot_be_opened_is_a_usage_error(
    tmp_path, capsys, monkeypatch, where
):
    # the path is opened before the work, so the stub for the work never runs
    target = tmp_path / "absent" / "x.json" if where == "missing_directory" else tmp_path
    monkeypatch.setattr(cli, "cmd_constants", lambda args: pytest.fail("work ran"))
    code, out, err = run_cli(
        capsys, ["constants", "--d", "3", "--s", "1", "--out", str(target)]
    )
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_a_failed_write_to_stdout_is_no_usage_error(monkeypatch):
    # a closed pipe is not the user's arguments: the error propagates
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        cli.main(["constants", "--d", "3", "--s", "1"])


def test_reruns_are_byte_identical(capsys):
    argv = ["be-scan", "--family", "degree2", "--d", "3", "--s", "1.0"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_config_file_supplies_values(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 4\ns = 1.0  # inline comment\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, ["constants", "--config", str(cfg)])
    assert code == 0
    assert json.loads(out)["d"] == 4
    cfg.write_text("d = 3\ns = 1.0\nfamily = degree2\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, ["be-scan", "--config", str(cfg)])
    assert code == 0
    _, direct, _ = run_cli(capsys, ["be-scan", "--family", "degree2", "--d", "3", "--s", "1.0"])
    assert out == direct


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 4\n", encoding="utf-8")
    code, out, _ = run_cli(
        capsys, ["constants", "--config", str(cfg), "--d", "3", "--s", "1.0"]
    )
    assert code == 0
    assert json.loads(out)["d"] == 3


@pytest.mark.parametrize(
    "argv, defaults, config",
    [
        (["verify", "duality"], ["--seed", "0"], None),
        (
            ["be-scan", "--family", "degree2", "--d", "3", "--s", "1.0"],
            ["--bandlimit", "64", "--quad-order", "256", "--eps-grid", "0.02,0.01,0.005"],
            None,
        ),
        (["quartic", "--d", "3"], ["--eps-grid", "0.02,0.01,0.005"], None),
        (["verify", "cylinder"], ["--d", "3", "--T", "9.0", "--modes", "128", "--seed", "0"], None),
        (
            ["be-scan", "--family", "degree2", "--d", "3", "--s", "1.0"],
            [],
            "bandlimit = 64\nquad-order = 256\neps-grid = 0.02,0.01,0.005\n",
        ),
    ],
)
def test_omitted_flags_take_the_library_defaults(tmp_path, capsys, argv, defaults, config):
    spelled = argv + defaults
    if config is not None:
        cfg = tmp_path / "defaults.cfg"
        cfg.write_text(config, encoding="utf-8")
        spelled += ["--config", str(cfg)]
    omitted = run_cli(capsys, argv)
    assert omitted[0] == 0
    assert omitted == run_cli(capsys, spelled)


# The flag ledger: every flag a subcommand reads changes what it prints. Each
# run takes from a config file the values its command cannot run without,
# and a few that keep it fast (verify conformal at bandlimit 48 passes in
# about 0.01 s); a probe adds one flag, which overrides the file, and must
# print other bytes than the same run without it.
LEDGER_CONFIG = {
    "constants": "d = 3\ns = 1\n",
    "verify": "bandlimit = 48\n",
    "period-map": "d = 4\nalpha-grid = 0.8,0.9\n",
    "be-scan": "d = 3\ns = 1\nfamily = degree2\nbandlimit = 8\nquad-order = 32\n"
    "eps-grid = 0.02,0.01\n",
    "quartic": "d = 3\n",
}

# (command, flag) -> (the suite, if any, and the flag's value)
FLAG_PROBES = {
    ("constants", "d"): ((), "4"),
    ("constants", "s"): ((), "0.5"),
    ("verify", "d"): (("cylinder",), "4"),
    ("verify", "s"): (("conformal",), "0.5"),
    ("verify", "T"): (("cylinder",), "8"),
    ("verify", "bandlimit"): (("conformal",), "64"),
    ("verify", "quad-order"): (("conformal",), "128"),
    ("verify", "modes"): (("cylinder",), "64"),
    ("verify", "seed"): (("conformal",), "1"),
    ("period-map", "d"): ((), "3"),
    ("period-map", "alpha-grid"): ((), "0.8,0.95"),
    ("be-scan", "d"): ((), "4"),
    ("be-scan", "s"): ((), "0.5"),
    ("be-scan", "bandlimit"): ((), "16"),
    ("be-scan", "quad-order"): ((), "64"),
    ("be-scan", "eps-grid"): ((), "0.03,0.02"),
    ("be-scan", "family"): ((), "degree3"),
    ("quartic", "d"): ((), "4"),
    ("quartic", "eps-grid"): ((), "0.03,0.02"),
}

# (command, flag) -> why it prints the same bytes; such a flag must keep
# printing them, so the entry goes once the flag changes the output
SAME_OUTPUT = {
    ("be-scan", "bandlimit"): (
        "the scanned function is one Gegenbauer degree, so the bandlimit moves "
        "only roundoff (B = 8, 32 and 64 print the same bytes); it also bounds "
        "the range of --quad-order"
    ),
}


def test_the_flag_ledger_probes_every_flag():
    pairs = {(command, flag) for command, flags in cli._COMMAND_FLAGS.items() for flag in flags}
    assert set(FLAG_PROBES) == pairs
    assert set(SAME_OUTPUT) <= pairs
    assert set(LEDGER_CONFIG) == set(cli._COMMAND_FLAGS)


@pytest.mark.parametrize("command, flag", sorted(FLAG_PROBES))
def test_every_flag_changes_the_output(tmp_path, capsys, command, flag):
    suite, value = FLAG_PROBES[command, flag]
    cfg = tmp_path / "ledger.cfg"
    cfg.write_text(LEDGER_CONFIG[command], encoding="utf-8")
    without = [command, *suite, "--config", str(cfg)]
    base = run_cli(capsys, without)
    probe = run_cli(capsys, without + ["--" + flag, value])
    assert base[0] == 0 and probe[0] == 0
    assert (probe[1] == base[1]) == ((command, flag) in SAME_OUTPUT)


def test_usage_errors_exit_2(tmp_path, capsys):
    # bad numeric grid
    code, _, err = run_cli(
        capsys, ["period-map", "--d", "3", "--alpha-grid", "0.8,xyz"]
    )
    assert code == 2
    assert "error:" in err
    # unknown config key
    cfg = tmp_path / "bad.cfg"
    for line in ("bogus = 1\n", "format = csv\n", "seed = 1\n"):
        cfg.write_text(line, encoding="utf-8")
        assert run_cli(capsys, ["constants", "--config", str(cfg)])[0] == 2
    # uncastable config value
    cfg.write_text("d = three\n", encoding="utf-8")
    assert run_cli(capsys, ["constants", "--config", str(cfg)])[0] == 2
    # config value outside its flag's choices
    cfg.write_text("d = 3\ns = 1.0\nfamily = bogus\n", encoding="utf-8")
    code, _, err = run_cli(capsys, ["be-scan", "--config", str(cfg)])
    assert code == 2
    assert "error:" in err
    # missing config file
    code, _, _ = run_cli(
        capsys, ["constants", "--config", str(tmp_path / "absent.cfg")]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        # an eps grid with fewer than two values, or a repeated one
        ["quartic", "--d", "3", "--eps-grid", ","],
        ["be-scan", "--family", "degree2", "--d", "3", "--s", "1.0", "--eps-grid", ","],
        ["quartic", "--d", "3", "--eps-grid", "0.02,0.02,0.01"],
        ["quartic", "--d", "3", "--eps-grid", "0.02"],
        ["be-scan", "--family", "degree2", "--d", "3", "--s", "1.0", "--eps-grid", "0.02,0.02"],
        # fewer than two Hill modes
        ["verify", "cylinder", "--modes", "0"],
        ["verify", "cylinder", "--modes", "1"],
        # a bandlimit below the degrees the command draws or perturbs
        ["verify", "sphere", "--bandlimit", "11"],
        ["verify", "conformal", "--bandlimit", "11"],
        ["verify", "stability", "--bandlimit", "1"],
        ["be-scan", "--family", "degree2", "--d", "3", "--s", "1", "--bandlimit", "1"],
        # a negative seed, refused also by the suite that draws no random
        # numbers, and a period that is not finite
        ["verify", "duality", "--seed", "-1"],
        ["verify", "cylinder", "--seed", "-1"],
        ["verify", "cylinder", "--T", "inf"],
        # a bandlimit the Gauss grid of the quadrature order would alias
        ["verify", "sphere", "--quad-order", "20"],
    ],
)
def test_bad_input_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


def test_quartic_refuses_an_eps_whose_deficit_is_roundoff(capsys):
    # it printed quotients of -8.3e14 and -1.6e14 and exited 0
    code, out, err = run_cli(capsys, ["quartic", "--d", "3", "--eps-grid", "1e-8,2e-8"])
    assert code == 1
    assert out == ""
    assert "quotient is roundoff" in err


def test_be_scan_refuses_an_eps_whose_quotient_is_roundoff(capsys):
    # it printed quotients off by up to 4e-5, not monotone in eps, a limit
    # 8.9e-5 from 4/7, and exited 0
    code, out, err = run_cli(
        capsys, ["be-scan", "--family", "degree2", "--d", "3", "--s", "1.0",
                 "--eps-grid", "4e-5,2e-5,1e-5"]
    )
    assert code == 1 and out == ""
    assert "quotient is roundoff" in err


def test_parser_level_errors_raise_systemexit_2(capsys):
    for argv in (
        ["verify", "bogus-suite"],
        ["period-map"],
        ["period-map", "--d", "3"],
        ["constants", "--d", "3"],
        ["be-scan", "--d", "3", "--s", "1.0"],
        ["nonsense"],
        ["constants", "--d", "3", "--s", "1.0", "--format", "csv"],
        # each subcommand takes only the flags it reads
        ["quartic", "--d", "3", "--modes", "64"],
        ["constants", "--d", "3", "--s", "1", "--modes", "128"],
        ["period-map", "--d", "3", "--alpha-grid", "0.8,0.9", "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_failing_suite_exits_1(monkeypatch, capsys):
    fail = CheckResult("synthetic.check", False, 1.0, 0.5, "")
    monkeypatch.setattr(verify_mod, "run_suite", lambda *a, **k: [fail])
    code, out, _ = run_cli(capsys, ["verify", "sphere"])
    assert code == 1
    assert "FAIL" in out
    assert "first failing invariant: synthetic.check" in out


def test_internal_inconsistency_exits_1(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise InconsistencyError("routes disagree")

    monkeypatch.setattr(cylinder_mod, "quartic_constants", boom)
    code, out, err = run_cli(capsys, ["constants", "--d", "3", "--s", "1.0"])
    assert code == 1
    assert out == ""
    assert "verification failure" in err


def test_installed_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-c", "import sobolev_lab.cli as c, sys; sys.exit(c.main(['constants', '--d', '3', '--s', '1.0']))"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert proc.stdout.lstrip().startswith("{")
