"""Command-line entry point: one subcommand per experiment.

Every subcommand is deterministic given its flags: stochastic ones take an
explicit --seed, floats are printed at 17 significant digits, and no
environment variables are consulted, so a fixed invocation produces
byte-identical output files across runs and platforms.

Exit codes: 0 success, 1 configuration error, 2 audit violation,
3 incomplete run.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from . import bell_stats, harness, interferometer, oracle, path_engine, rng
from .config import ConfigError, load_kv, model_from_file
from .hv_models import (
    ALIGNED,
    ANTI_ALIGNED,
    DEFAULT_QUADRATURE_N,
    SETTING_ANGLES,
    TWO_PI,
    ClockModel,
    LhvModel,
    MerminModel,
    Setting,
    wrap_angle,
)
from .util import render

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_AUDIT = 2
EXIT_INCOMPLETE = 3

#: (a, a', b, b') = (0, pi/2, pi/4, 3pi/4), where the singlet reaches |S| = 2*sqrt(2).
SINGLET_ANGLES = "0,1.5707963267948966,0.78539816339744828,2.3561944901923448"


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _build_model(args) -> LhvModel:
    if getattr(args, "model_config", None):
        return model_from_file(args.model_config)
    name = getattr(args, "model", None)
    convention = getattr(args, "convention", None)
    if name == "clock":
        return ClockModel(b_convention=convention or ANTI_ALIGNED)
    if name == "mermin":
        return MerminModel.uniform(b_convention=convention or ALIGNED)
    if name and name.startswith("mermin:"):
        return MerminModel.point_mass(name.split(":", 1)[1], b_convention=convention or ALIGNED)
    raise ConfigError(f"cannot build a model from {name!r}; use --model or --model-config")


def _parse_angles(text: str, n: int = 4) -> list[float]:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != n:
        raise ConfigError(f"expected {n} comma-separated angles, got {len(parts)}")
    return parts


def _settings_from_args(args) -> tuple[Setting, Setting, Setting, Setting]:
    if getattr(args, "indices", None):
        idx = [int(x) for x in args.indices.split(",")]
        if len(idx) != 4:
            raise ConfigError("expected 4 comma-separated indices")
        return tuple(Setting.index(i) for i in idx)
    if getattr(args, "angles", None):
        return tuple(Setting.angle(a) for a in _parse_angles(args.angles))
    raise ConfigError("need --angles or --indices")


# -- subcommand implementations -------------------------------------------------

PAIR_HEADER = "setting_a,setting_b,p_agree,mean,exact"


def _report(args, doc, header: str, rows=None, summary=()) -> None:
    _emit(args, render(args.format, doc, header, rows, summary))


def _pair_table(model: LhvModel) -> dict:
    """The model and its exact E and P(A = B) at the nine discrete setting pairs."""
    pairs = itertools.product([Setting.index(i) for i in range(3)], repeat=2)
    return {"model": model.name, "b_convention": model.b_convention,
            "pairs": [{"setting_a": a.text, "setting_b": b.text,
                       "mean": bell_stats.exact_E(model, a, b).mean,
                       "p_agree": bell_stats.exact_agreement_prob(model, a, b).value,
                       "exact": True} for a, b in pairs]}


def cmd_mermin(args) -> int:
    if args.model_config or args.model:
        model = _build_model(args)
    else:
        model = MerminModel.uniform(b_convention=args.convention or ALIGNED)
    if not isinstance(model, MerminModel):
        raise ConfigError("mermin subcommand needs an instruction-set model")
    overall = bell_stats.exact_overall_agreement(model)
    doc = {
        **_pair_table(model),
        "overall_agreement_exact": overall,
        "bound_five_ninths_ok": overall >= 5.0 / 9.0 - 1e-12,
        "quantum_overall_agreement": oracle.mermin_agreement_prob(None),
    }
    if args.n:
        mc = bell_stats.overall_agreement(model, args.n, args.seed)
        doc["overall_agreement_mc"] = {"value": mc.value, "stderr": mc.stderr, "n": mc.n_trials}
    _report(args, doc, PAIR_HEADER, doc["pairs"],
            ("overall_agreement_exact", "bound_five_ninths_ok", "overall_agreement_mc",
             "quantum_overall_agreement"))
    return EXIT_OK


def cmd_clock(args) -> int:
    if args.model_config or args.model:
        model = _build_model(args)
    else:
        model = ClockModel(b_convention=args.convention or ANTI_ALIGNED)
    if not isinstance(model, ClockModel):
        raise ConfigError("clock subcommand needs the clock model")
    other = ClockModel(b_convention=ALIGNED if model.b_convention == ANTI_ALIGNED else ANTI_ALIGNED)
    a, b = Setting.index(0), Setting.index(1)
    diff = bell_stats.exact_agreement_prob(model, a, b)
    doc = {
        **_pair_table(model),
        "p_agree_differing_exact": diff.value,
        "p_disagree_differing_exact": diff.complement(),
        "p_agree_differing_other_convention":
            bell_stats.exact_agreement_prob(other, a, b).value,
    }
    if args.n:
        mc = bell_stats.agreement_prob(model, a, b, args.n, args.seed)
        doc["p_agree_differing_mc"] = {"value": mc.value, "stderr": mc.stderr, "n": mc.n_trials}
    _report(args, doc, PAIR_HEADER, doc["pairs"],
            ("b_convention", "p_agree_differing_exact", "p_disagree_differing_exact",
             "p_agree_differing_other_convention", "p_agree_differing_mc"))
    return EXIT_OK


def _classical_bound(result: bell_stats.ChshResult) -> dict:
    """|S| <= 2 within the tolerance the Bell check uses for the same terms."""
    tol = bell_stats.verdict_tolerance(result.terms)
    return {"tolerance": tol, "classical_bound_ok": abs(result.s_value) <= 2.0 + tol}


def cmd_chsh(args) -> int:
    if args.oracle:
        a, ap, b, bp = _parse_angles(args.angles or SINGLET_ANGLES)
        s = oracle.chsh_quantum(a, ap, b, bp)
        doc = {"oracle": True, "settings": [a, ap, b, bp], "s_value": s, "abs_s": abs(s),
               "tsirelson": oracle.TSIRELSON_BOUND}
        _report(args, doc, "s_value,abs_s,tsirelson")
        return EXIT_OK

    model = _build_model(args)
    if args.scan:
        # exhaustive discrete quadruples plus, for the clock model, random angles
        best = _chsh_scan(model, args.scan, args.seed)
        doc = {"model": model.name, "b_convention": model.b_convention,
               "scan_points": args.scan, "max_abs_s": abs(best.s_value),
               "at_settings": [s.text for s in best.settings], **_classical_bound(best)}
        _report(args, doc, "max_abs_s,classical_bound_ok", summary=("tolerance",))
        return EXIT_OK

    settings = _settings_from_args(args)
    if args.exact:
        result = bell_stats.chsh(model, *settings, exact=True, n_grid=args.grid)
    else:
        result = bell_stats.chsh(model, *settings, n=args.n or 100_000, seed=args.seed)
    terms = [{"label": label, "mean": t.mean, "stderr": t.stderr, "n": t.n_trials,
              "exact": t.exact}
             for label, t in zip(bell_stats.CHSH_TERM_LABELS, result.terms)]
    doc = {
        "model": model.name,
        "settings": [s.text for s in result.settings],
        "terms": terms,
        "s_value": result.s_value,
        "abs_s": abs(result.s_value),
        **_classical_bound(result),
    }
    a, ap, b, bp = result.settings
    rows = [{"setting_a": sa.text, "setting_b": sb.text, **term}
            for (sa, sb), term in zip(((a, b), (ap, b), (ap, bp), (a, bp)), terms)]
    _report(args, doc, "setting_a,setting_b,mean,stderr,n,exact", rows,
            ("s_value", "tolerance", "classical_bound_ok"))
    return EXIT_OK


def _chsh_scan(model: LhvModel, n_random: int, seed: int) -> bell_stats.ChshResult:
    """The exact CHSH result of largest |S| over the scanned quadruples: the
    81 discrete ones, then for the clock model n_random random angle ones.

    S is evaluated for the whole (a, a', b, b') table at once; the first
    quadruple of largest |S| is then rebuilt through ``chsh``.
    """
    index = np.array(list(itertools.product(range(3), repeat=4)))
    if isinstance(model, ClockModel):
        table = np.asarray(SETTING_ANGLES)[index]
        if n_random:
            u = rng.uniforms_for_seeds(rng.trial_seeds(seed, n_random), 4)
            table = np.vstack([table, wrap_angle(u * TWO_PI)])
        corr = model.exact_correlation
    else:
        e = np.array([[bell_stats.exact_E(model, Setting.index(i), Setting.index(j)).mean
                       for j in range(3)] for i in range(3)])
        table, corr = index, lambda x, y: e[x, y]
    a, ap, b, bp = table.T
    s = corr(a, b) + corr(ap, b) + corr(ap, bp) - corr(a, bp)
    k = int(np.argmax(np.abs(s)))  # the first of equal |S|, in scan order
    quad = ([Setting.index(i) for i in index[k]] if k < len(index)
            else [Setting.angle(x) for x in table[k]])
    return bell_stats.chsh(model, *quad, exact=True)


def cmd_bell(args) -> int:
    if args.oracle:
        a, ap, b, bp = _parse_angles(args.angles or SINGLET_ANGLES)
        es = [oracle.singlet_E(a, b), oracle.singlet_E(a, bp),
              oracle.singlet_E(ap, bp), oracle.singlet_E(ap, b)]
        check = bell_stats.bell_check(*[
            bell_stats.CorrelationEstimate(e, 0.0, 1, exact=True) for e in es])
    else:
        model = _build_model(args)
        settings = _settings_from_args(args)
        check = bell_stats.bell_check_from_model(model, *settings, exact=not args.n,
                                                 n=args.n or None, seed=args.seed)
    doc = {"lhs": check.lhs, "rhs_plus": check.rhs_plus, "rhs_minus": check.rhs_minus,
           "tolerance": check.tolerance, "satisfied": check.satisfied,
           "verdict": "satisfied" if check.satisfied else "violated"}
    _report(args, doc, "lhs,rhs_plus,rhs_minus,tolerance,verdict")
    return EXIT_OK


def cmd_propagate(args) -> int:
    xmin, xmax, npts = args.grid.split(",")
    grid = (float(xmin), float(xmax), int(npts))
    potential = path_engine.FREE if args.kind == "free" else path_engine.harmonic(args.omega)

    def run(n_slices: int, n_points: int):
        spec = path_engine.PropagatorSpec(
            mass=args.mass, potential=potential, u=args.u, v=args.v, t=args.t,
            n_slices=n_slices, grid=(grid[0], grid[1], n_points),
            hbar=args.hbar, damping=args.damping)
        res = path_engine.sliced_propagator(spec)
        if res.eta > path_engine.ETA_WARNING_LEVEL:
            print(f"warning: eta = {res.eta:.3g} exceeds {path_engine.ETA_WARNING_LEVEL} "
                  f"at {n_slices} slices on {n_points} points; the result carries a bias "
                  f"of order eta, refine the grid", file=sys.stderr)
        return res

    analytic = path_engine.analytic_propagator(potential, args.mass, args.hbar,
                                               args.u, args.v, args.t)
    if args.convergence:
        doc = []
        for ns in (int(x) for x in args.convergence.split(",")):
            res = run(ns, grid[2])
            doc.append({"n_slices": ns, "n_points": grid[2],
                        "rel_err_modulus": abs(abs(res.value) - abs(analytic)) / abs(analytic),
                        "phase_err": abs(np.angle(res.value / analytic))})
        _report(args, doc, "n_slices,n_points,rel_err_modulus,phase_err")
        return EXIT_OK

    res = run(args.slices, grid[2])
    doc = {"re": res.value.real, "im": res.value.imag,
           "modulus": res.modulus, "phase": res.phase,
           "support_warning": res.support_warning}
    _report(args, doc, "re,im,modulus,phase,support_warning")
    return EXIT_OK


def _side_config(args, side: str) -> interferometer.SideConfig:
    def pick(name, fallback):
        value = getattr(args, f"{name}_b" if side == "B" else name, None)
        if side == "B" and value is None:
            value = getattr(args, name, fallback)
        return fallback if value is None else value

    arms = tuple(float(x) for x in str(pick("arms", "1.0,1.0")).split(","))
    return interferometer.SideConfig(
        arm_lengths=arms,
        k_wave=float(pick("k", 2.0 * np.pi)),
        n_ensemble=int(pick("ensemble", 1)),
        sigma_path=float(pick("sigma_path", 0.0)),
        geometry_sign=float(pick("geom_sign", 1.0)),
        shifted_arm=int(pick("shifted_arm", 0)),
    )


def cmd_rt(args) -> int:
    cfg_a = _side_config(args, "A")
    cfg_b = _side_config(args, "B")
    if args.settings:
        phase_grid = [float(x) for x in args.settings.split(",")]
    else:
        phase_grid = [2.0 * np.pi * k / args.phase_points for k in range(args.phase_points)]
    if args.exact:
        rows = interferometer.degenerate_exact_scan(cfg_a, cfg_b, phase_grid, args.grid)
    else:
        rows = interferometer.correlation_scan(cfg_a, cfg_b, phase_grid,
                                               args.n_per_point, args.seed, args.spread_dx)
    doc = [{"delta_a": r.delta_a, "delta_b": r.delta_b, "E": r.e_value,
            "stderr": r.stderr, "p_agree": r.p_agree,
            "p_undetermined": r.p_undetermined, "quantum_fringe": r.quantum_fringe,
            "n": r.n_trials}
           for r in rows]
    _report(args, doc, "delta_a,delta_b,E,stderr,p_agree,p_undetermined,quantum_fringe")
    return EXIT_OK


def cmd_wing(args) -> int:
    model = model_from_file(args.model_config)
    if args.policy == "fixed":
        policy = harness.FixedPolicy(Setting.from_text(args.setting))
    else:
        choices = [Setting.from_text(t) for t in args.choices.split(",")]
        policy = harness.RandomPolicy(choices, args.policy_seed)
    harness.wing_serve(args.wing, model, policy, args.host, args.port,
                       quit_after=args.quit_after,
                       announce=lambda line: print(line, flush=True))
    return EXIT_OK


def _endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return host or "127.0.0.1", int(port)


def cmd_source(args) -> int:
    model = model_from_file(args.model_config)
    log = harness.source_run(model, args.n, args.seed,
                             _endpoint(args.wing_a), _endpoint(args.wing_b))
    if args.log:
        log.write(args.log)
    doc = [{"setting_a": c.setting_a.text, "setting_b": c.setting_b.text,
            "mean": c.estimate.mean, "stderr": c.estimate.stderr, "n": c.estimate.n_trials,
            "exact": c.estimate.exact, "p_agree": c.p_agree}
           for c in harness.merge_statistics(log)]
    _report(args, doc, "setting_a,setting_b,mean,stderr,n,exact,p_agree")
    if log.incomplete:
        print("# run incomplete", file=sys.stderr)
        return EXIT_INCOMPLETE
    return EXIT_OK


def cmd_audit(args) -> int:
    log = harness.RunLog.read(args.logfile)
    report = harness.audit_log(log)
    _emit(args, report.text())
    if not report.ok:
        return EXIT_AUDIT
    if report.incomplete:
        return EXIT_INCOMPLETE
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.what == "singlet":
        doc = {"what": "singlet_E", "a": args.a, "b": args.b,
               "value": oracle.singlet_E(args.a, args.b)}
    elif args.what == "mermin":
        same = None if args.same == "overall" else (args.same == "true")
        doc = {"what": "mermin_agreement_prob", "same_setting": args.same,
               "value": oracle.mermin_agreement_prob(same)}
    elif args.what == "rt":
        doc = {"what": "rt_coincidence_prob", "phi_a": args.phia, "phi_b": args.phib,
               "value": oracle.rt_coincidence_prob(args.phia, args.phib)}
    else:
        a, ap, b, bp = _parse_angles(args.angles)
        value = oracle.chsh_quantum(a, ap, b, bp)
        doc = {"what": "chsh_quantum", "settings": [a, ap, b, bp], "value": value,
               "abs": abs(value)}
    _report(args, doc, "what,value")
    return EXIT_OK


# -- parser ------------------------------------------------------------------------

def _add_common(p, n_default=0):
    p.add_argument("--seed", type=int, default=0, help="base seed; every result is a pure function of it")
    p.add_argument("--n", type=int, default=n_default, help="Monte Carlo trials (0 = exact only)")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--config", help="key=value file of flag defaults; explicit flags win")


def _add_model_args(p):
    p.add_argument("--model", help="clock, mermin, or mermin:<SET> for a point mass")
    p.add_argument("--model-config", help="model config file (key=value)")
    p.add_argument("--convention", choices=(ALIGNED, ANTI_ALIGNED),
                   help="side B detector convention override")


def _grid_points(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _add_grid(p):
    p.add_argument("--grid", type=_grid_points, default=DEFAULT_QUADRATURE_N,
                   help="the n reported for exact clock-model results; "
                        "changes no value (closed forms)")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    ap = argparse.ArgumentParser(
        prog="bellpath",
        description="Hidden-variable models, Bell/CHSH statistics, sliced "
                    "path-integral propagators, and a process-separated "
                    "no-signaling harness.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mermin", help="instruction-set agreement table and the 5/9 bound")
    _add_common(p)
    _add_model_args(p)
    p.set_defaults(func=cmd_mermin)

    p = sub.add_parser("clock", help="clock-model agreement table; 2/3 vs 1/3 by convention")
    _add_common(p)
    _add_model_args(p)
    _add_grid(p)
    p.set_defaults(func=cmd_clock)

    p = sub.add_parser("chsh", help="CHSH quantity S and its classical |S| <= 2 bound")
    _add_common(p)
    _add_model_args(p)
    p.add_argument("--oracle", action="store_true", help="quantum singlet prediction instead of a model")
    p.add_argument("--angles", help="a,a',b,b' in radians")
    p.add_argument("--indices", help="four discrete setting indices")
    p.add_argument("--exact", action="store_true",
                   help="enumeration or closed form instead of Monte Carlo")
    _add_grid(p)
    p.add_argument("--scan", type=int, default=0,
                   help="max |S| over all discrete quadruples plus this many random ones")
    p.set_defaults(func=cmd_chsh)

    p = sub.add_parser("bell", help="two-setting Bell inequality |E(a,b)-E(a,b')| <= 2 +/- [E(a',b')+E(a',b)]")
    _add_common(p)
    _add_model_args(p)
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--angles", help="a,a',b,b' in radians")
    p.add_argument("--indices", help="four discrete setting indices")
    _add_grid(p)
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("propagate", help="time-sliced propagator vs the closed-form oracle")
    _add_common(p)
    p.add_argument("--kind", choices=("free", "harmonic"), default="free")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--u", type=float, default=0.0)
    p.add_argument("--v", type=float, default=1.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--slices", type=int, default=8)
    p.add_argument("--grid", default="-20,20,2048", help="x_min,x_max,n_points")
    p.add_argument("--damping", type=float, default=path_engine.DEFAULT_DAMPING)
    p.add_argument("--convergence", help="comma list of slice counts for an error table")
    p.set_defaults(func=cmd_propagate)

    p = sub.add_parser("rt", help="two-sided interferometer scan with the coincidence-fringe column")
    _add_common(p, n_default=0)
    p.add_argument("--arms", default="1.0,1.0")
    p.add_argument("--arms-b", dest="arms_b")
    p.add_argument("--k", type=float, default=2.0 * np.pi)
    p.add_argument("--k-b", dest="k_b", type=float)
    p.add_argument("--ensemble", type=int, default=1)
    p.add_argument("--ensemble-b", dest="ensemble_b", type=int)
    p.add_argument("--sigma-path", dest="sigma_path", type=float, default=0.0)
    p.add_argument("--sigma-path-b", dest="sigma_path_b", type=float)
    p.add_argument("--geom-sign", dest="geom_sign", type=float, default=1.0)
    p.add_argument("--geom-sign-b", dest="geom_sign_b", type=float)
    p.add_argument("--shifted-arm", dest="shifted_arm", type=int, default=0)
    p.add_argument("--shifted-arm-b", dest="shifted_arm_b", type=int)
    p.add_argument("--phase-points", dest="phase_points", type=int, default=4)
    p.add_argument("--settings", help="explicit comma list of shifter phases")
    p.add_argument("--n-per-point", dest="n_per_point", type=int, default=1000)
    p.add_argument("--spread-dx", dest="spread_dx", type=float, default=1.0)
    p.add_argument("--exact", action="store_true",
                   help="closed-form clock table for single-path, jitter-free sides "
                        "with |k*geom_sign| equal on both")
    _add_grid(p)
    p.set_defaults(func=cmd_rt)

    p = sub.add_parser("wing", help="serve one measurement wing over loopback")
    p.add_argument("--wing", choices=("A", "B"), required=True)
    p.add_argument("--model-config", required=True)
    p.add_argument("--policy", choices=("fixed", "random"), default="fixed")
    p.add_argument("--setting", default="i0", help="setting text for the fixed policy")
    p.add_argument("--choices", default="i0,i1,i2", help="choice list for the random policy")
    p.add_argument("--policy-seed", dest="policy_seed", type=int, default=0)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--quit-after", dest="quit_after", type=int,
                   help="drop the connection after this many outcomes (fault injection)")
    p.set_defaults(func=cmd_wing)

    p = sub.add_parser("source", help="coordinate a distributed run and merge its log")
    _add_common(p, n_default=1000)
    p.add_argument("--model-config", required=True)
    p.add_argument("--wing-a", dest="wing_a", required=True, help="host:port")
    p.add_argument("--wing-b", dest="wing_b", required=True, help="host:port")
    p.add_argument("--log", help="write the message log here")
    p.set_defaults(func=cmd_source)

    p = sub.add_parser("audit", help="check a run log for cross-wing setting flow")
    p.add_argument("logfile")
    p.add_argument("--out")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("oracle", help="closed-form quantum predictions")
    _add_common(p)
    p.add_argument("--what", choices=("singlet", "mermin", "rt", "chsh"), required=True)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--same", choices=("true", "false", "overall"), default="overall")
    p.add_argument("--phia", type=float, default=0.0)
    p.add_argument("--phib", type=float, default=0.0)
    p.add_argument("--angles", default=SINGLET_ANGLES)
    p.set_defaults(func=cmd_oracle)

    return ap, sub.choices


def _apply_config_file(subparser, rest: list[str]) -> list[str]:
    """Turn --config file entries into flags; explicit flags win.

    Keys must name known flags of the subcommand (dashes or underscores);
    unknown keys are a configuration error.  A flag that takes no value
    (``--exact``) is set by ``true`` and left off by ``false``.
    """
    if "--config" not in rest:
        return rest
    path = rest[rest.index("--config") + 1]
    actions = subparser._option_string_actions
    injected = []
    for key, value in load_kv(path).items():
        flag = "--" + key.replace("_", "-")
        if flag not in actions:
            raise ConfigError(f"unknown key {key!r} for this subcommand")
        if flag in rest:
            continue
        if actions[flag].nargs != 0:
            injected.extend([flag, value])
        elif value == "true":
            injected.append(flag)
        elif value != "false":
            raise ConfigError(f"{key} takes true or false, got {value!r}")
    return injected + rest


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap, subparsers = build_parser()
    try:
        if argv and argv[0] in subparsers:
            argv = [argv[0]] + _apply_config_file(subparsers[argv[0]], argv[1:])
        try:
            args = ap.parse_args(argv)
        except SystemExit as exc:
            # argparse already printed a message; map its failure to the
            # configuration-error code and let --help exit cleanly
            return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
