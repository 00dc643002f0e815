import json
import subprocess
import sys

import pytest

from bellpath import cli, harness
from bellpath.hv_models import Setting


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
    assert "# |S| <= 2 holds: true" in out


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


def test_rt_scan_csv(capsys):
    code, out = run_cli(capsys, "rt", "--phase-points", "2", "--n-per-point", "100")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "delta_a,delta_b,E,stderr,p_agree,p_undetermined,quantum_fringe"
    assert len(lines) == 5


def test_rt_exact_degenerate(capsys):
    code, out = run_cli(capsys, "rt", "--arms", "1.0", "--k", "1.0", "--exact",
                        "--settings", "0,2.0943951023931953,4.1887902047863905",
                        "--grid", "10002")
    assert code == 0
    assert len(out.strip().splitlines()) == 10


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


def test_distributed_cli_run_and_audit(tmp_path, clock_cfg, capsys):
    wa, addr_a = spawn_wing(tmp_path, "A", clock_cfg, ("--setting", "i0"))
    wb, addr_b = spawn_wing(tmp_path, "B", clock_cfg, ("--setting", "i1"))
    log_path = tmp_path / "run.log"
    try:
        code = cli.main(["source", "--model-config", str(clock_cfg), "--n", "50",
                         "--seed", "3", "--wing-a", addr_a, "--wing-b", addr_b,
                         "--log", str(log_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == harness.MERGE_CSV_HEADER
        assert len(out.splitlines()) == 2
    finally:
        wa.wait(timeout=10)
        wb.wait(timeout=10)
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
        wa.wait(timeout=10)
        wb.wait(timeout=10)
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
