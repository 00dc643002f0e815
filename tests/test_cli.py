import json
import math
import re
import subprocess
import sys

import itertools

import numpy as np
import pytest

from bellpath import bell_stats, cli, harness, rng
from bellpath.hv_models import ALIGNED, ANTI_ALIGNED, ClockModel, MerminModel, Setting


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
    # the clock model's exact |S| is 2 here; Monte Carlo noise alone takes
    # S to -2.00002, well within 3x the combined standard error
    code, out = run_cli(capsys, "chsh", "--model", "clock", "--angles", cli.SINGLET_ANGLES,
                        "--n", "100000", "--seed", "2000", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["s_value"] < -2.0
    assert doc["tolerance"] == 3.0 * math.sqrt(sum(t["stderr"] ** 2 for t in doc["terms"]))
    assert doc["classical_bound_ok"] is True
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
    code, out = run_cli(capsys, "chsh", "--config", str(cfg), "--indices", "0,1,2,0",
                        "--exact")
    assert code == 0
    # explicit flag wins over the file value
    code, out2 = run_cli(capsys, "chsh", "--config", str(cfg), "--indices", "0,1,2,0",
                         "--exact", "--model", "clock")
    assert code == 0
    assert out == out2


def test_config_file_sets_boolean_flags(tmp_path, capsys):
    argv = ["chsh", "--indices", "0,1,2,0", "--n", "200"]
    _, want_exact = run_cli(capsys, "chsh", "--model", "clock", *argv[1:], "--exact")
    _, want_mc = run_cli(capsys, "chsh", "--model", "clock", *argv[1:])
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
        return code, capsys.readouterr().out
    finally:
        wa.communicate(timeout=10)
        wb.communicate(timeout=10)


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
    assert cli.main(["rt", "--n-per-point", "10", *flags]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"error: {field} must be finite.*\n", captured.err)


def test_rt_has_no_emission_time_spread(capsys):
    # the emission-time offset reached no output, so its flag is gone
    assert cli.main(["rt", "--spread-dt", "1"]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --spread-dt 1" in captured.err
