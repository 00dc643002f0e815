import argparse
import contextlib
import gc
import io
import json
import math
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellpath import bell_stats, cli, config, harness, rng
from bellpath.hv_models import (
    ALIGNED,
    ALL_INSTRUCTION_SETS,
    ANTI_ALIGNED,
    TWO_PI,
    ClockModel,
    MerminModel,
    Setting,
)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_cell(text):
    """A CSV cell or summary value back as the JSON value it renders."""
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    m = re.fullmatch(r"(\S*) stderr = (\S*) n = (\S+)", text)
    if m:
        return {"value": parse_cell(m[1]), "stderr": parse_cell(m[2]), "n": parse_cell(m[3])}
    try:
        return float(text)
    except ValueError:
        return text


def test_mermin_report(capsys):
    code, out = run_cli(capsys, "mermin")
    assert code == 0
    assert "# overall_agreement_exact = 0.66666666666666663" in out
    assert "# bound_five_ninths_ok = true" in out
    assert "# quantum_overall_agreement = 0.5" in out


def test_mermin_point_mass_json(capsys):
    code, out = run_cli(capsys, "mermin", "--model", "mermin:RRR", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall_agreement_exact"] == 1.0
    assert doc["bound_five_ninths_ok"] is True


# Monte Carlo agreement values and their stderrs, captured before P(A = B) was read
# off CorrelationEstimate; the change of rule moved none of them.
_GOLDEN_RT = [
    (0.269, 0.0215418552070819, 0.6345), (0.078, 0.02229813004046866, 0.539),
    (0.088, 0.022279501522566587, 0.544), (0.072, 0.02230822333611996, 0.536),
    (0.069, 0.02231296560785026, 0.5345), (0.005, 0.022365992461981305, 0.5025),
    (0.102, 0.022249618485748933, 0.551), (-0.045, 0.0223436147156023, 0.4775),
    (0.085, 0.02228532741309749, 0.5425)]
_GOLDEN_MERGED = [
    ("i0", "i0", -1.0, 0.0, 56, 0.0),
    ("i0", "i1", 0.3559322033898305, 0.1227074082712866, 59, 0.6779661016949152),
    ("i0", "i2", 0.3793103448275862, 0.12255494022601911, 58, 0.6896551724137931),
    ("i1", "i0", 0.26666666666666666, 0.12547461684616945, 60, 0.6333333333333333),
    ("i1", "i1", -1.0, 0.0, 46, 0.0),
    ("i1", "i2", 0.38181818181818183, 0.12577278720220914, 55, 0.6909090909090909),
    ("i2", "i0", 0.27586206896551724, 0.127313683537536, 58, 0.6379310344827587),
    ("i2", "i1", 0.21428571428571427, 0.13170777796132696, 56, 0.6071428571428571),
    ("i2", "i2", -1.0, 0.0, 52, 0.0)]


def test_monte_carlo_agreement_values_are_pinned(capsys):
    def doc(*argv):
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        return json.loads(out)

    clock = doc("clock", "--n", "20000", "--seed", "5")
    assert clock["p_agree_differing_mc"] == {"value": 0.6695, "stderr": 0.00332626527836177,
                                             "n": 20000}
    assert (clock["p_agree_differing_exact"], clock["p_disagree_differing_exact"],
            clock["p_agree_differing_other_convention"]) == \
        (0.6666666666666666, 0.33333333333333337, 0.33333333333333337)
    mermin = doc("mermin", "--n", "500001", "--seed", "3")
    assert mermin["overall_agreement_mc"] == {"value": 0.6672106655786688,
                                              "stderr": 0.000666394167616642, "n": 500001}
    assert mermin["overall_agreement_exact"] == 0.6666666666666666
    rt = doc("rt", "--phase-points", "3", "--n-per-point", "2000", "--spread-dx", "5",
             "--seed", "3", "--sigma-path", "0.2")
    assert [(r["E"], r["stderr"], r["p_agree"]) for r in rt] == _GOLDEN_RT
    choices = [Setting.index(i) for i in range(3)]
    log = harness.simulate_run(ClockModel(), harness.RandomPolicy(choices, 3),
                               harness.RandomPolicy(choices, 4), 500, seed=21)
    assert [(c.setting_a.text, c.setting_b.text, c.estimate.mean, c.estimate.stderr,
             c.estimate.n_trials, c.p_agree) for c in harness.merge_statistics(log)] \
        == _GOLDEN_MERGED


def test_clock_report_shows_both_conventions(capsys):
    code, out = run_cli(capsys, "clock")
    assert code == 0
    assert "# p_agree_differing_exact = 0.66" in out
    assert "# p_agree_differing_other_convention = 0.33" in out


def test_convention_flag_works_without_model_flag(capsys):
    code, out = run_cli(capsys, "clock", "--convention", "aligned")
    assert code == 0
    assert "# p_agree_differing_exact = 0.33" in out
    code, out = run_cli(capsys, "mermin", "--convention", "anti_aligned", "--format", "json")
    assert code == 0
    assert json.loads(out)["b_convention"] == "anti_aligned"


def test_chsh_oracle_default_angles(capsys):
    code, out = run_cli(capsys, "chsh", "--oracle", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["abs_s"] - 2.8284271247461903) < 1e-12


def test_chsh_oracle_explicit_angles(capsys):
    code, out = run_cli(capsys, "chsh", "--oracle",
                        "--angles", "0,1.5708,0.7854,2.3562")
    assert code == 0
    assert "2.828" in out


def test_chsh_clock_exact(capsys):
    code, out = run_cli(capsys, "chsh", "--model", "clock", "--exact",
                        "--indices", "0,1,2,0")
    assert code == 0
    assert "# classical_bound_ok = true" in out
    assert "# tolerance = 1.0000000000000001e-09" in out


def test_csv_row_format(capsys):
    # the closed form 1 - 2d/pi at d = 2pi/3 in floating point (-1/3 to 1 ulp);
    # --grid only names the reported n
    code, out = run_cli(capsys, "chsh", "--model", "clock", "--convention", "aligned",
                        "--exact", "--indices", "0,0,1,1", "--grid", "10002")
    assert code == 0
    assert out.splitlines()[:2] == ["setting_a,setting_b,mean,stderr,n,exact",
                                    "i0,i1,-0.33333333333333326,0,10002,true"]


def test_chsh_exact_clock_is_the_closed_form(capsys):
    # E(1, 0) = -(1 - 2/pi) for the anti-aligned clock, to within 1 ulp
    code, out = run_cli(capsys, "chsh", "--model", "clock", "--exact", "--angles", "0,1,0,1",
                        "--format", "json")
    assert code == 0
    terms = json.loads(out)["terms"]
    want = -(1.0 - 2.0 / math.pi)
    for term in (terms[1], terms[3]):
        assert abs(term["mean"] - want) <= math.ulp(want)
        assert term["exact"] is True and term["stderr"] == 0 and term["n"] == 10_000
    assert terms[0]["mean"] == terms[2]["mean"] == -1.0


@pytest.mark.parametrize("model", [ClockModel(), ClockModel(ALIGNED), MerminModel.uniform(),
                                   MerminModel.point_mass("RGG", ANTI_ALIGNED)],
                         ids=["clock", "clock-aligned", "mermin", "mermin-RGG"])
def test_chsh_scan_equals_the_largest_chsh(model):
    # the array expression picks the same quadruple and |S| as max over chsh()
    n_random, seed = 60, 17
    quads = list(itertools.product([Setting.index(i) for i in range(3)], repeat=4))
    if isinstance(model, ClockModel):
        u = rng.uniforms_for_seeds(rng.trial_seeds(seed, n_random), 4) * (2.0 * np.pi)
        quads += [tuple(Setting.angle(x) for x in row) for row in u]
    want = max((bell_stats.chsh(model, *q, exact=True) for q in quads),
               key=lambda r: abs(r.s_value))
    got = cli._chsh_scan(model, n_random, seed)
    assert abs(got.s_value) == abs(want.s_value)
    assert got.settings == want.settings


def test_chsh_verdict_uses_the_bell_check_tolerance(capsys):
    # the clock model's exact |S| is 2 here; the four terms share their
    # trials, so the Monte Carlo S stays within 2 with no tolerance at all
    flags = ("--model", "clock", "--angles", cli.SINGLET_ANGLES, "--n", "100000",
             "--seed", "2000", "--format", "json")
    code, out = run_cli(capsys, "chsh", *flags)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["s_value"]) <= 2.0
    assert all(t["stderr"] > 0 for t in doc["terms"])
    assert doc["tolerance"] == bell_stats.EXACT_TOLERANCE == 1e-9
    assert doc["classical_bound_ok"] is True
    code, out = run_cli(capsys, "bell", *flags)
    assert json.loads(out)["tolerance"] == doc["tolerance"]
    for argv in (("--exact", "--indices", "0,1,2,0"), ("--scan", "5")):
        code, out = run_cli(capsys, "chsh", "--model", "clock", *argv, "--format", "json")
        doc = json.loads(out)
        assert doc["tolerance"] == 1e-9 and doc["classical_bound_ok"] is True


def test_chsh_scan(capsys):
    code, out = run_cli(capsys, "chsh", "--model", "clock", "--scan", "50",
                        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["classical_bound_ok"] is True
    assert doc["max_abs_s"] <= 2.0 + 1e-9
    assert doc["scan_points"] == 50
    # a discrete model draws no random quadruple: its scan is the 81 discrete ones
    code, out = run_cli(capsys, "chsh", "--model", "mermin", "--scan", "1000", "--format", "json")
    doc = json.loads(out)
    assert (doc["scan_points"], doc["max_abs_s"], doc["at_settings"]) == (0, 2.0, ["i0"] * 4)


def test_bell_oracle_reports_violation(capsys):
    code, out = run_cli(capsys, "bell", "--oracle", "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "violated"


def test_bell_model_satisfied(capsys):
    code, out = run_cli(capsys, "bell", "--model", "clock", "--indices", "0,1,2,0",
                        "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "satisfied"


def test_propagate_single_slice(capsys):
    code, out = run_cli(capsys, "propagate", "--kind", "free", "--slices", "1",
                        "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["modulus"] - 0.3989422804014327) < 1e-12
    assert doc["support_warning"] is False


def test_propagate_convergence_table(capsys):
    code, out = run_cli(capsys, "propagate", "--convergence", "1,2",
                        "--grid=-20,20,512")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n_slices,n_points,rel_err_modulus,phase_err"
    first = lines[1].split(",")
    assert first[0] == "1" and float(first[2]) < 1e-12


def test_propagate_warns_of_coarse_grids_on_stderr(capsys):
    # eta ~ 35: modulus 0.067 against the closed form's 0.399
    argv = ["propagate", "--grid=-20,20,16", "--slices", "3"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert re.fullmatch(r"warning: eta = 34\.6 exceeds 0\.05 at 3 slices on 16 points;.*\n",
                        captured.err)
    quiet = subprocess.run([sys.executable, "-m", "bellpath.cli", *argv], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, check=True)
    assert quiet.stdout == captured.out
    # the README commands stay silent: eta ~ 5e-3 on 2048 points at 8 slices
    for argv in (["propagate", "--kind", "free", "--slices", "8", "--format", "json"],
                 ["propagate", "--convergence", "1,2,4,8", "--grid=-20,20,2048"]):
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""


def test_rt_scan_csv(capsys):
    code, out = run_cli(capsys, "rt", "--phase-points", "2", "--n-per-point", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta_a,delta_b,E,stderr,p_agree,p_undetermined,quantum_fringe"
    assert len(lines) == 5
    assert all(len(line.split(",")) == 7 for line in lines)


def test_rt_exact_degenerate(capsys):
    code, out = run_cli(capsys, "rt", "--arms", "1.0", "--k", "1.0", "--exact",
                        "--settings", "0,2.0943951023931953,4.1887902047863905",
                        "--grid", "10002")
    assert code == 0
    assert len(out.strip().splitlines()) == 10


def test_rt_exact_refuses_unequal_couplings(capsys):
    # k_B*g_B = k_A*g_A/2: B's phase turns at half A's rate, so the table is
    # not the clock model's (a Monte Carlo scan gives E ~ 0 at (0.3, 1.7),
    # where the one-period grid of earlier versions printed 0.8914)
    code = cli.main(["rt", "--arms", "1.0", "--k", "1.0", "--k-b", "0.5", "--exact",
                     "--settings", "0.3,1.7"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "|k*geom_sign| equal" in captured.err


def test_oracle_rt(capsys):
    code, out = run_cli(capsys, "oracle", "--what", "rt",
                        "--phia", "1.0471975511965976", "--phib", "0.5235987755982988")
    assert code == 0
    assert "0.5" in out


def test_byte_identical_outputs(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    cli.main(["clock", "--n", "5000", "--seed", "9", "--out", str(out1)])
    cli.main(["clock", "--n", "5000", "--seed", "9", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_config_file_defaults_and_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("model=clock\nn=100\nseed=5\n")
    argv = ["chsh", "--indices", "0,1,2,0"]
    code, out = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 0
    assert out == run_cli(capsys, *argv, "--model", "clock", "--n", "100", "--seed", "5")[1]
    # explicit flag wins over the file value
    code, out2 = run_cli(capsys, *argv, "--config", str(cfg), "--n", "200")
    assert code == 0
    assert out2 == run_cli(capsys, *argv, "--model", "clock", "--n", "200", "--seed", "5")[1]
    assert out2 != out


@pytest.mark.parametrize("n", ["0", "-5"])
def test_chsh_refuses_fewer_than_one_monte_carlo_trial(capsys, n):
    assert cli.main(["chsh", "--model", "clock", "--indices", "0,1,2,0", "--n", n]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n must be >= 1\n"


def test_chsh_monte_carlo_defaults_to_100000_trials(capsys):
    code, out = run_cli(capsys, "chsh", "--model", "clock", "--indices", "0,1,2,0",
                        "--format", "json")
    assert code == 0
    assert [t["n"] for t in json.loads(out)["terms"]] == [100_000] * 4


def test_config_file_sets_boolean_flags(tmp_path, capsys):
    argv = ["chsh", "--indices", "0,1,2,0"]
    _, want_exact = run_cli(capsys, "chsh", "--model", "clock", *argv[1:], "--exact")
    _, want_mc = run_cli(capsys, "chsh", "--model", "clock", *argv[1:])
    assert want_exact and want_mc and want_exact != want_mc
    for value, want in (("true", want_exact), ("false", want_mc)):
        cfg = tmp_path / f"{value}.cfg"
        cfg.write_text(f"model=clock\nexact={value}\n")
        assert run_cli(capsys, *argv, "--config", str(cfg)) == (0, want)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model=clock\nexact=yes\n")
    assert cli.main([*argv, "--config", str(cfg)]) == 1


def test_unknown_config_key_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("model=clock\nbogus_key=1\n")
    code = cli.main(["chsh", "--config", str(cfg), "--exact", "--indices", "0,1,2,0"])
    assert code == 1


def test_bad_flags_exit_one(capsys):
    assert cli.main(["chsh", "--model"]) == 1
    assert cli.main(["propagate", "--slices", "up"]) == 1


def test_missing_settings_is_config_error(capsys):
    assert cli.main(["chsh", "--model", "clock", "--exact"]) == 1


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["chsh", "--help"]) == 0


def test_main_builds_the_parser_once(monkeypatch, capsys):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    try:
        assert [cli.main(["oracle", "--what", w]) for w in ("chsh", "rt")] == [0, 0]
        assert cli.main(["--help"]) == cli.EXIT_OK
        assert cli.main(["chsh", "--n", "x"]) == cli.EXIT_CONFIG
        assert cli.main(["oracle", "--what", "chsh"]) == cli.EXIT_OK
    finally:
        cli._parser.cache_clear()
    assert builds == [1]


def test_commands_rebound_after_import_are_dispatched():
    # a tracer rebinds cmd_* after importing the cli; the parser must not predate that
    code = ("from bellpath import cli\n"
            "seen = []\n"
            "run = cli.cmd_oracle\n"
            "cli.cmd_oracle = lambda args: seen.append(args.what) or run(args)\n"
            "assert cli.main(['oracle', '--what', 'chsh']) == 0\n"
            "print(seen)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.splitlines()[-1] == "['chsh']"


# -- the three-process loop over loopback ---------------------------------------


def spawn_wing(tmp_path, wing, model_cfg, extra=()):
    proc = subprocess.Popen(
        [sys.executable, "-m", "bellpath.cli", "wing", "--wing", wing,
         "--model-config", str(model_cfg), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline().strip()
    _, _, _, host, port = line.split()
    return proc, f"{host}:{port}"


@pytest.fixture
def clock_cfg(tmp_path):
    path = tmp_path / "clock.cfg"
    path.write_text("model=clock\nb_convention=anti_aligned\n")
    return path


def run_source(tmp_path, cfg, capsys, *extra):
    """One `source` run of 50 trials against two fresh wing processes."""
    wa, addr_a = spawn_wing(tmp_path, "A", cfg, ("--setting", "i0"))
    wb, addr_b = spawn_wing(tmp_path, "B", cfg, ("--setting", "i1"))
    try:
        code = cli.main(["source", "--model-config", str(cfg), "--n", "50",
                         "--seed", "3", "--wing-a", addr_a, "--wing-b", addr_b, *extra])
        out = capsys.readouterr().out
    finally:
        errs = [wing.communicate(timeout=10)[1] for wing in (wa, wb)]
    assert (wa.returncode, wb.returncode) == (0, 0), errs
    return code, out


def test_distributed_cli_run_and_audit(tmp_path, clock_cfg, capsys):
    log_path = tmp_path / "run.log"
    code, out = run_source(tmp_path, clock_cfg, capsys, "--log", str(log_path))
    assert code == 0
    header, row = out.splitlines()
    assert header == "setting_a,setting_b,mean,stderr,n,exact,p_agree"
    code, out = run_source(tmp_path, clock_cfg, capsys, "--format", "json")
    assert code == 0
    (cell,) = json.loads(out)
    assert list(cell) == header.split(",")
    assert list(cell.values()) == [parse_cell(x) for x in row.split(",")]
    code = cli.main(["audit", str(log_path)])
    audit_out = capsys.readouterr().out
    assert code == 0
    assert "violations: none" in audit_out


def test_distributed_cli_wing_crash_gives_incomplete(tmp_path, clock_cfg, capsys):
    wa, addr_a = spawn_wing(tmp_path, "A", clock_cfg, ("--setting", "i0"))
    wb, addr_b = spawn_wing(tmp_path, "B", clock_cfg,
                            ("--setting", "i1", "--quit-after", "10"))
    log_path = tmp_path / "crash.log"
    try:
        code = cli.main(["source", "--model-config", str(clock_cfg), "--n", "50",
                         "--seed", "3", "--wing-a", addr_a, "--wing-b", addr_b,
                         "--log", str(log_path)])
        capsys.readouterr()
        assert code == 3
    finally:
        wa.communicate(timeout=10)
        wb.communicate(timeout=10)
    assert cli.main(["audit", str(log_path)]) == 3
    capsys.readouterr()


def test_audit_cli_flags_tampered_log(tmp_path, clock_cfg, capsys):
    from bellpath.hv_models import ClockModel

    model = ClockModel()
    log = harness.simulate_run(model, harness.FixedPolicy(Setting.index(0)),
                               harness.FixedPolicy(Setting.index(1)), 5, seed=1)
    # tamper: inject an extra payload field into a wing-bound message
    for i, e in enumerate(log.entries):
        if e.direction == ">" and e.message.type == "lambda" and e.message.wing == "A":
            log.entries[i] = harness.LogEntry(
                e.timestamp, e.direction,
                harness.WireMessage("lambda", e.message.trial, "A",
                                    dict(e.message.payload, beta="i1")))
            break
    path = tmp_path / "tampered.log"
    log.write(path)
    code = cli.main(["audit", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert "[schema]" in out


# -- one document, two formats ------------------------------------------------------


@pytest.fixture
def simulated_source(monkeypatch):
    """`source` without sockets: in-process wings fixed at i0 (A) and i1 (B)."""
    def run(model, n, seed, endpoint_a, endpoint_b):
        return harness.simulate_run(model, harness.FixedPolicy(Setting.index(0)),
                                    harness.FixedPolicy(Setting.index(1)), n, seed)

    monkeypatch.setattr(harness, "source_run", run)


#: name -> (argv, key of the JSON rows behind the CSV table or None for the
#: document itself); "{cfg}" stands for a clock model config file
FORMAT_CASES = {
    "mermin": (["mermin", "--n", "200"], "pairs"),
    "clock": (["clock", "--n", "200", "--grid", "600"], "pairs"),
    "chsh_oracle": (["chsh", "--oracle"], None),
    "chsh_exact": (["chsh", "--model", "clock", "--exact", "--indices", "0,1,2,0"], "terms"),
    "chsh_mc": (["chsh", "--model", "clock", "--indices", "0,1,2,0", "--n", "300"], "terms"),
    "chsh_scan": (["chsh", "--model", "mermin", "--scan", "3"], None),
    "bell": (["bell", "--model", "clock", "--indices", "0,1,2,0", "--n", "300"], None),
    "propagate": (["propagate", "--slices", "3", "--grid=-20,20,256"], None),
    "propagate_convergence": (["propagate", "--convergence", "1,2", "--grid=-20,20,256"], None),
    "rt": (["rt", "--phase-points", "2", "--n-per-point", "3"], None),
    "rt_exact": (["rt", "--arms", "1.0", "--k", "1.0", "--exact", "--grid", "600"], None),
    "oracle": (["oracle", "--what", "chsh"], None),
    "source": (["source", "--model-config", "{cfg}", "--n", "40", "--wing-a", ":1",
                "--wing-b", ":2"], None),
}


@pytest.mark.parametrize("case", sorted(FORMAT_CASES))
def test_csv_and_json_carry_the_same_values(case, clock_cfg, simulated_source, capsys):
    argv, rows_key = FORMAT_CASES[case]
    argv = [str(clock_cfg) if a == "{cfg}" else a for a in argv]
    code, csv_out = run_cli(capsys, *argv)
    assert code == 0
    code, json_out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(json_out)
    header, *lines = csv_out.splitlines()
    columns = header.split(",")
    table = [line.split(",") for line in lines if not line.startswith("# ")]
    rows = doc[rows_key] if rows_key else doc if isinstance(doc, list) else [doc]
    assert len(table) == len(rows)
    for cells, row in zip(table, rows):
        assert len(cells) == len(columns)
        shared = [(col, text) for col, text in zip(columns, cells) if col in row]
        assert shared
        for col, text in shared:
            assert parse_cell(text) == row[col], (col, text)
    for line in lines:
        if line.startswith("# "):
            key, _, text = line[2:].partition(" = ")
            assert key in doc and parse_cell(text) == doc[key], line


@pytest.mark.parametrize("argv, summary", [
    (["mermin", "--n", "1"], "overall_agreement_mc"),
    (["clock", "--n", "1"], "p_agree_differing_mc"),
])
def test_single_trial_stderr_is_an_empty_field(capsys, argv, summary):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert re.search(rf"^# {summary} = [01] stderr =  n = 1$", out, re.M)


def test_single_trial_merge_row_has_empty_stderr(clock_cfg, simulated_source, capsys):
    code, out = run_cli(capsys, "source", "--model-config", str(clock_cfg), "--n", "1",
                        "--seed", "6", "--wing-a", ":1", "--wing-b", ":2")
    assert code == 0
    setting_a, setting_b, mean, stderr, n, exact, p_agree = out.splitlines()[1].split(",")
    assert (setting_a, setting_b, stderr, n, exact) == ("i0", "i1", "", "1", "false")


@pytest.mark.parametrize("omega", ["nan", "inf", "1e200"])
def test_propagate_refuses_a_non_finite_omega(capsys, omega):
    assert cli.main(["propagate", "--kind", "harmonic", "--omega", omega]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "harmonic potential needs a finite omega > 0" in captured.err


@pytest.mark.parametrize("flags, field", [
    (["--spread-dx", "nan"], "sigma_dx"),
    (["--spread-dx", "-1"], "sigma_dx"),
    (["--k", "nan"], "k_wave"),
    (["--k-b", "inf"], "k_wave"),
    (["--arms", "nan,1.0"], "arm_lengths"),
    (["--geom-sign", "nan"], "geometry_sign"),
    (["--sigma-path", "inf"], "sigma_path"),
    (["--settings", "nan,1"], "phase_grid"),
    (["--exact", "--arms", "1.0", "--k", "1.0", "--settings", "0,inf"], "phase_grid"),
    # finite inputs whose path phases overflow
    (["--k", "1e200", "--geom-sign", "1e200"], "path phases"),
    (["--exact", "--arms", "1e200", "--k", "1e200", "--settings", "0"], "path phases"),
    # the spread is checked before the phase grid
    (["--spread-dx", "nan", "--settings", "nan,1"], "sigma_dx"),
])
def test_rt_refuses_non_finite_inputs(capsys, flags, field):
    trials = [] if "--exact" in flags else ["--n-per-point", "10"]  # --exact refuses it
    assert cli.main(["rt", *trials, *flags]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: {field} must be finite.*\n", captured.err)


def test_rt_has_no_emission_time_spread(capsys):
    # the emission-time offset reached no output, so its flag is gone
    assert cli.main(["rt", "--spread-dt", "1"]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --spread-dt 1" in captured.err


# -- bell is the Bell check of chsh's terms ----------------------------------------


def cli_stdout(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


_PROB_KEYS = [f"p[{s.text}]" for s in ALL_INSTRUCTION_SETS]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from((ALIGNED, ANTI_ALIGNED, "mermin")),
       indices=st.lists(st.integers(0, 2), min_size=4, max_size=4),
       angles=st.none() | st.lists(st.floats(0.0, TWO_PI, exclude_max=True),
                                   min_size=4, max_size=4),
       weights=st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
       n=st.none() | st.integers(1, 400), seed=st.integers(0, 1 << 40))
def test_bell_is_the_bell_check_of_the_chsh_terms(kind, indices, angles, weights, n, seed):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "model.cfg"
        if kind == "mermin":
            angles = None  # instruction sets take discrete settings only
            cfg.write_text("model=mermin\n" + "".join(
                f"{key}={w / sum(weights)!r}\n" for key, w in zip(_PROB_KEYS, weights)))
        else:
            cfg.write_text(f"model=clock\nb_convention={kind}\n")
        model = config.model_from_file(cfg)
        if angles:
            quad = [Setting.angle(x) for x in angles]
            flags = ["--angles", ",".join(map(repr, angles))]
        else:
            quad = [Setting.index(i) for i in indices]
            flags = ["--indices", ",".join(map(str, indices))]
        flags += ["--model-config", str(cfg), "--format", "json"]
        mc = ["--n", str(n), "--seed", str(seed)] if n else []
        bell = json.loads(cli_stdout("bell", *flags, *mc))
        chsh = json.loads(cli_stdout("chsh", *flags, *(mc or ["--exact"])))
    result = bell_stats.chsh(model, *quad, n=n, seed=seed, exact=not n)
    check = bell_stats.bell_check(result.terms)
    assert bell == {"lhs": check.lhs, "rhs_plus": check.rhs_plus, "rhs_minus": check.rhs_minus,
                    "tolerance": check.tolerance, "satisfied": check.satisfied,
                    "verdict": "satisfied" if check.satisfied else "violated"}
    # the four terms bell evaluates are the ones chsh prints for the same flags
    t = [term["mean"] for term in chsh["terms"]]
    assert t == [term.mean for term in result.terms]
    assert bell["lhs"] == abs(t[0] - t[3])
    assert (bell["rhs_plus"], bell["rhs_minus"]) == (2.0 + (t[2] + t[1]), 2.0 - (t[2] + t[1]))
    assert bell["tolerance"] == chsh["tolerance"]


# -- flags that no command reads are refused ---------------------------------------


@pytest.mark.parametrize("argv", [
    ["propagate", "--n", "5"],
    ["propagate", "--seed", "1"],
    ["oracle", "--what", "chsh", "--seed", "1"],
    ["oracle", "--what", "chsh", "--n", "5"],
    ["bell", "--oracle", "--grid", "5"],
])
def test_unread_flags_are_refused(capsys, argv):
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().out == ""


_ORACLE_UNREAD = [["--model", "clock"], ["--model-config", "/nonexistent"],
                  ["--convention", "aligned"], ["--indices", "0,1,2,0"], ["--n", "7"],
                  ["--seed", "3"]]


@pytest.mark.parametrize("argv, flag, mode", [
    *((["chsh", "--oracle"], flag, "--oracle")
      for flag in _ORACLE_UNREAD + [["--exact"], ["--scan", "3"]]),
    *((["bell", "--oracle"], flag, "--oracle") for flag in _ORACLE_UNREAD),
    *((["chsh", "--model", "clock", "--scan", "3"], flag, "--scan")
      for flag in (["--indices", "0,1,2,0"], ["--angles", "1,2,3,4"], ["--exact"], ["--n", "5"],
                   ["--grid", "5"])),
    (["chsh", "--oracle"], ["--grid", "5"], "--oracle"),
    (["chsh", "--model", "mermin", "--scan", "1000"], ["--seed", "9"],
     "--scan of a discrete model"),
    (["chsh", "--model", "clock", "--angles", "1,2,3,4", "--n", "50"], ["--grid", "5"],
     "Monte Carlo chsh"),
    *((["chsh", "--model", "clock", "--exact", "--indices", "0,1,2,0"], flag, "--exact")
      for flag in (["--n", "5"], ["--seed", "3"])),
    (["chsh", "--model", "clock", "--exact", "--indices", "0,1,2,0"], ["--angles", "1,2,3,4"],
     "--indices"),
    (["bell", "--model", "clock", "--indices", "0,1,2,0"], ["--angles", "1,2,3,4"], "--indices"),
    (["rt"], ["--grid", "7"], "Monte Carlo rt"),
    (["rt", "--settings", "0,1"], ["--phase-points", "2"], "--settings"),
    *((["rt", "--exact"], flag, "--exact")
      for flag in (["--n-per-point", "5"], ["--spread-dx", "3"], ["--seed", "4"])),
    (["propagate", "--kind", "free"], ["--omega", "3"], "--kind free"),
    (["propagate", "--convergence", "1,2"], ["--slices", "99"], "--convergence"),
    *((["oracle", "--what", what], flag, f"--what {what}")
      for what, flag in itertools.product(("singlet", "mermin", "rt", "chsh"), (
          ["--a", "3"], ["--b", "3"], ["--same", "true"], ["--phia", "3"], ["--phib", "3"],
          ["--angles", "1,2,3,4"]))
      if flag[0] not in cli._ORACLE_WHAT_FLAGS[what]),
    (["mermin"], ["--seed", "3"], "mermin without --n"),
    (["clock"], ["--seed", "3"], "clock without --n"),
    (["bell", "--model", "clock", "--indices", "0,1,2,0"], ["--seed", "3"], "bell without --n"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_flags_a_mode_does_not_read_are_refused(argv, flag, mode, capsys):
    assert cli.main([*argv, *flag]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {flag[0]} cannot be combined with {mode}, " \
                           f"which does not read it\n"


@pytest.mark.parametrize("policy, flag", [
    (["--policy", "fixed"], ["--choices", "i0,i2"]),
    (["--policy", "fixed"], ["--policy-seed", "4"]),
    (["--policy", "random"], ["--setting", "i2"]),
])
def test_wing_refuses_the_other_policy_flags_before_it_binds(policy, flag, clock_cfg,
                                                             monkeypatch, capsys):
    monkeypatch.setattr(harness, "wing_serve", lambda *args, **kwargs: pytest.fail("bound"))
    argv = ["wing", "--wing", "A", "--model-config", str(clock_cfg), *policy, *flag]
    assert cli.main(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {flag[0]} cannot be combined with {' '.join(policy)}, " \
                           f"which does not read it\n"


def test_flags_at_their_defaults_pass_beside_a_mode(capsys):
    # "given" means set off the parser's default, as chsh --n's 100000 is not
    for argv in (["chsh", "--oracle", "--n", "100000", "--seed", "0"],
                 ["bell", "--oracle", "--n", "0"],
                 ["chsh", "--model", "clock", "--scan", "3", "--n", "100000"],
                 ["chsh", "--model", "clock", "--exact", "--indices", "0,1,2,0", "--seed", "0"],
                 ["rt", "--exact", "--settings", "0,1", "--phase-points", "4", "--seed", "0"],
                 ["oracle", "--what", "rt", "--angles", cli.SINGLET_ANGLES, "--same", "overall"],
                 ["propagate", "--convergence", "1,2", "--slices", "8", "--omega", "1"]):
        assert cli.main(argv) == cli.EXIT_OK, argv
    capsys.readouterr()


@pytest.mark.parametrize("flag", [["--model", "mermin"], ["--model", "clock"],
                                  ["--convention", "aligned"], ["--convention", "anti_aligned"]])
@pytest.mark.parametrize("argv", [["mermin"], ["clock"],
                                  ["chsh", "--exact", "--indices", "0,1,2,0"],
                                  ["bell", "--indices", "0,1,2,0"]])
def test_model_flags_beside_a_model_config_are_refused(argv, flag, clock_cfg, capsys):
    assert cli.main([*argv, "--model-config", str(clock_cfg), *flag]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: {flag[0]} cannot be combined with --model-config")


def test_config_keys_of_unread_flags_are_refused(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n=5\n")
    assert cli.main(["propagate", "--slices", "1", "--config", str(cfg)]) == cli.EXIT_CONFIG
    assert "unknown key 'n'" in capsys.readouterr().err


def test_rt_n_is_n_per_point(capsys):
    # rt has no --n of its own, so argparse's unique prefix takes --n to --n-per-point
    assert run_cli(capsys, "rt", "--n", "3") == run_cli(capsys, "rt", "--n-per-point", "3")


class ReadRecorder(argparse.Namespace):
    """A parsed namespace that notes the name of every attribute read from it."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "_reads", set())

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


_A = "0,1.5707963267948966,0.78539816339744828,2.3561944901923448"

#: Per subcommand, argvs that between them should read every flag.
#: "{cfg}" is a clock model config, "{mermin}" an instruction-set one,
#: "{log}" a complete run log and "{out}" an output file.
FLAG_CASES = {
    "mermin": [["--n", "20", "--seed", "1", "--format", "json", "--out", "{out}"],
               ["--model", "mermin:RRG", "--convention", "anti_aligned"],
               ["--model-config", "{mermin}"]],
    "clock": [["--n", "20", "--seed", "1", "--convention", "aligned", "--format", "json",
               "--out", "{out}"],
              ["--model", "clock"], ["--model-config", "{cfg}"]],
    "chsh": [["--oracle", "--angles", _A],
             ["--model", "clock", "--convention", "aligned", "--exact", "--indices", "0,1,2,0",
              "--grid", "600"],
             ["--model-config", "{cfg}", "--scan", "3", "--seed", "2"],
             ["--model", "mermin", "--scan", "2"],
             ["--model", "clock", "--angles", _A, "--n", "50", "--seed", "1", "--format", "json",
              "--out", "{out}"]],
    "bell": [["--oracle"],
             ["--model", "clock", "--convention", "aligned", "--indices", "0,1,2,0", "--n", "50",
              "--seed", "1", "--format", "json", "--out", "{out}"],
             ["--model-config", "{cfg}", "--angles", _A]],
    "propagate": [["--kind", "harmonic", "--omega", "1.5", "--mass", "1", "--hbar", "1",
                   "--u", "0", "--v", "1", "--t", "1", "--slices", "2", "--grid=-10,10,64",
                   "--damping", "0.01", "--format", "json", "--out", "{out}"],
                  ["--convergence", "1,2", "--grid=-10,10,64"]],
    "rt": [["--phase-points", "2", "--n-per-point", "3", "--seed", "1", "--spread-dx", "2",
            "--arms", "1.0,1.0", "--arms-b", "1.0", "--k", "6", "--k-b", "6",
            "--ensemble", "1", "--ensemble-b", "2", "--sigma-path", "0", "--sigma-path-b", "0.1",
            "--geom-sign", "1", "--geom-sign-b", "-1", "--shifted-arm", "0",
            "--shifted-arm-b", "0", "--format", "json", "--out", "{out}"],
           ["--arms", "1.0", "--k", "1.0", "--exact", "--settings", "0,1", "--grid", "600"]],
    "wing": [["--wing", "A", "--model-config", "{cfg}", "--setting", "i1", "--host", "127.0.0.1",
              "--port", "0", "--quit-after", "3"],
             ["--wing", "B", "--model-config", "{cfg}", "--policy", "random", "--choices", "i0,i2",
              "--policy-seed", "4"]],
    "source": [["--model-config", "{cfg}", "--n", "5", "--seed", "2", "--wing-a", ":1",
                "--wing-b", ":2", "--log", "{out}.log", "--format", "json", "--out", "{out}"]],
    "audit": [["{log}", "--out", "{out}"]],
    "oracle": [["--what", "singlet", "--a", "0.1", "--b", "0.2"],
               ["--what", "mermin", "--same", "true"],
               ["--what", "rt", "--phia", "0.1", "--phib", "0.2"],
               ["--what", "chsh", "--angles", _A, "--format", "json", "--out", "{out}"]],
}

#: Flags that no command reads on purpose.
UNREAD = {
    "config",  # main turns the file's entries into flags before parsing
    "clock:grid",  # names an n that clock never prints; the benchmark passes it
}


@pytest.fixture
def flag_cases(tmp_path, clock_cfg, simulated_source, monkeypatch):
    """A function of a command giving the dests that some argv must read, and each
    FLAG_CASES argv of it, paths filled in, run through its command, as
    (argv, namespace, dests it read)."""
    monkeypatch.setattr(harness, "wing_serve", lambda *args, **kwargs: None)
    monkeypatch.setattr(cli.gc, "freeze", lambda: None)  # wing's exit step
    mermin_cfg = tmp_path / "mermin.cfg"
    mermin_cfg.write_text("model=mermin\np[RGG]=1\n")
    log = tmp_path / "run.log"
    harness.simulate_run(ClockModel(), harness.FixedPolicy(Setting.index(0)),
                         harness.FixedPolicy(Setting.index(1)), 5, seed=1).write(log)
    fill = {"{cfg}": str(clock_cfg), "{mermin}": str(mermin_cfg), "{log}": str(log)}
    ap, subparsers = cli.build_parser()

    def run(command):
        dests = {a.dest for a in subparsers[command]._actions
                 if a.default != argparse.SUPPRESS}  # not --help
        cases = []
        for k, argv in enumerate(FLAG_CASES[command]):
            out = str(tmp_path / f"out{k}")
            argv = [fill.get(a, a.replace("{out}", out)) for a in argv]
            args = ap.parse_args([command, *argv], namespace=ReadRecorder())
            recorded = object.__getattribute__(args, "_reads")
            recorded.clear()
            func = object.__getattribute__(args, "func")
            assert func(args) == cli.EXIT_OK, argv
            cases.append((argv, args, set(recorded)))
        return {d for d in dests if d not in UNREAD and f"{command}:{d}" not in UNREAD}, cases

    return run


@pytest.mark.parametrize("command", sorted(cli.build_parser()[1]))
def test_every_flag_is_read(command, flag_cases):
    frozen = gc.get_freeze_count()
    dests, cases = flag_cases(command)
    assert dests - set().union(*(reads for _, _, reads in cases)) == set()
    assert gc.get_freeze_count() == frozen


def _flag_tokens(subparser, argv, dest):
    """The tokens of ``argv`` that set ``dest``: its flag, then its value unless
    the flag takes none or carries it after '='; None if ``argv`` does not set it."""
    action = next(a for a in subparser._actions if a.dest == dest)
    for i, token in enumerate(argv):
        if token.split("=", 1)[0] in action.option_strings:
            return argv[i:i + (1 if "=" in token or action.nargs == 0 else 2)]
    return None


@pytest.mark.parametrize("command", sorted(cli.build_parser()[1]))
def test_flags_an_argv_leaves_unread_are_refused(command, flag_cases, capsys):
    # each flag that one argv leaves unread, given the value a sibling argv reads,
    # is refused, so a new mode cannot silently ignore a flag; values at the
    # parser default are skipped, as _refuse_beside skips them
    sub = cli.build_parser()[1][command]
    dests, cases = flag_cases(command)
    capsys.readouterr()
    tried = 0
    for argv, _, reads in cases:
        for dest in sorted(dests - reads):
            for sibling, sibling_args, sibling_reads in cases:
                tokens = _flag_tokens(sub, sibling, dest)
                if dest not in sibling_reads or tokens is None \
                        or vars(sibling_args)[dest] == sub.get_default(dest):
                    continue
                tried += 1
                assert cli.main([command, *argv, *tokens]) == cli.EXIT_CONFIG, (argv, tokens)
                assert capsys.readouterr().out == ""
    assert tried or len(cases) == 1


# -- the README's CLI examples run -------------------------------------------------


def _readme_cli_lines() -> list[str]:
    """The ``bellpath`` lines of the first sh block under README's "## CLI"
    (the distributed block, which starts processes, comes later)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("bellpath ")]


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_examples_run(line, tmp_path):
    argv = shlex.split(line, comments=True)[1:]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert (tmp_path / "out").read_text(encoding="utf-8")
