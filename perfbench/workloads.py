"""The benchmark's three workloads: inputs, one timed pass, and its checks.

Each workload builds all of its inputs from the seed in ``__init__`` and
``setup``, runs the program in ``run_pass`` (the only timed part), and
checks the outputs of a pass against ``reference`` or against properties
the method must have.  Later passes of the same process must reproduce the
first pass's outputs exactly, since every result is a pure function of its
inputs.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from datetime import datetime
from pathlib import Path
from time import perf_counter

import reference as ref
from bellpath import bell_stats, cli, harness, path_engine
from bellpath.hv_models import ClockModel, Setting

TWO_PI = ref.TWO_PI

#: Circle-grid size the CLI uses when no --grid is given (chsh --scan has
#: no --grid flag).
CLI_QUADRATURE_N = 10_000


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol


class Workload:
    """Interface of a workload; ``ops_per_pass`` operations per pass."""

    ops_per_pass = 1

    def setup(self) -> None:
        pass

    def run_pass(self):
        raise NotImplementedError

    def after_pass(self, out) -> None:
        pass

    def prepare_next(self) -> None:
        pass

    def failed(self, out) -> int:
        return 0

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def fingerprint(self, out):
        raise NotImplementedError

    def figures(self, out) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


# -- distributed ----------------------------------------------------------------------

class Distributed(Workload):
    """Two wing processes, a socket run in lockstep, the log pipeline, the twin."""

    N_TRIALS = 1000
    CHOICES = ("i0", "i1", "i2")

    def __init__(self, root: Path, seed: int, workdir: Path):
        rnd = random.Random(seed)
        self.run_seed = rnd.randrange(1 << 40)
        self.policy_seeds = {"A": rnd.randrange(1 << 40), "B": rnd.randrange(1 << 40)}
        self.model_cfg = workdir / "clock.cfg"
        self.log_path = workdir / "run.log"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.ops_per_pass = self.N_TRIALS
        self.wings: dict[str, subprocess.Popen] = {}
        self.endpoints: dict[str, tuple[str, int]] = {}
        self.wing_start_s = 0.0

    def setup(self) -> None:
        # The source and both wings (which inherit this) share one CPU.  Across
        # the vCPUs of a shared virtual machine, every lockstep wake-up waits
        # whenever the host has descheduled the other vCPU, which doubled pass
        # times for minutes at a time; on one CPU a pass costs the three
        # processes' own work plus context switches.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.model_cfg.write_text("model=clock\nb_convention=anti_aligned\n", encoding="utf-8")
        self.model = ClockModel()
        choices = [Setting.from_text(t) for t in self.CHOICES]
        self.policies = {w: harness.RandomPolicy(choices, s) for w, s in self.policy_seeds.items()}
        self._start_wings()

    def _start_wings(self) -> None:
        """Start both wings before waiting on either, then read their ports."""
        t0 = perf_counter()
        for wing in harness.WINGS:
            self.wings[wing] = subprocess.Popen(
                [sys.executable, "-m", "bellpath.cli", "wing", "--wing", wing,
                 "--model-config", str(self.model_cfg), "--policy", "random",
                 "--choices", ",".join(self.CHOICES),
                 "--policy-seed", str(self.policy_seeds[wing])],
                stdout=subprocess.PIPE, text=True, env=self.env)
        for wing, proc in self.wings.items():
            words = proc.stdout.readline().split()
            if len(words) != 5 or words[:3] != ["WING", wing, "LISTENING"]:
                raise RuntimeError(f"wing {wing} did not announce its port: {words}")
            self.endpoints[wing] = (words[3], int(words[4]))
        self.wing_start_s = perf_counter() - t0

    def _stop_wings(self, timeout: float) -> dict[str, int]:
        codes = {}
        for wing, proc in self.wings.items():
            try:
                codes[wing] = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                codes[wing] = proc.wait()
            proc.stdout.close()
        self.wings = {}
        return codes

    def run_pass(self):
        log = harness.source_run(self.model, self.N_TRIALS, self.run_seed,
                                 self.endpoints["A"], self.endpoints["B"])
        log.write(self.log_path)
        back = harness.RunLog.read(self.log_path)
        report = harness.audit_log(back)
        cells = harness.merge_statistics(back)
        sim = harness.simulate_run(self.model, self.policies["A"], self.policies["B"],
                                   self.N_TRIALS, self.run_seed)
        return {"log": log, "back": back, "report": report, "cells": cells, "sim": sim}

    def after_pass(self, out) -> None:
        out["wing_exit"] = self._stop_wings(timeout=30)
        out["log_bytes"] = self.log_path.stat().st_size
        out["wing_start_s"] = self.wing_start_s

    def prepare_next(self) -> None:
        self._start_wings()

    def failed(self, out) -> int:
        return self.N_TRIALS - len(self._complete_trials(out["log"]))

    @staticmethod
    def _complete_trials(log) -> set[int]:
        seen: dict[int, set[str]] = {}
        for e in log.entries:
            if e.direction == "<" and e.message.type == "outcome":
                seen.setdefault(e.message.trial, set()).add(e.message.wing)
        return {t for t, wings in seen.items() if wings == {"A", "B"}}

    def predictions(self) -> list[tuple[str, str, str, int, int]]:
        """Per trial: lambda text, both settings and both outcomes, from the seeds alone."""
        out = []
        for t in range(self.N_TRIALS):
            lam = TWO_PI * ref.uniform(self.run_seed + t)
            ia = ref.random_choice_index(self.policy_seeds["A"] + t, len(self.CHOICES))
            ib = ref.random_choice_index(self.policy_seeds["B"] + t, len(self.CHOICES))
            sign_a = ref.threshold_sign(lam + ref.DISCRETE_ANGLES[ia])
            sign_b = -ref.threshold_sign(lam + ref.DISCRETE_ANGLES[ib])  # anti-aligned B
            out.append((format(lam, ".17g"), self.CHOICES[ia], self.CHOICES[ib], sign_a, sign_b))
        return out

    def check(self, out) -> list[str]:
        errs = []
        log, back, report = out["log"], out["back"], out["report"]
        if out["wing_exit"] != {"A": 0, "B": 0}:
            errs.append(f"wing exit codes {out['wing_exit']}")
        if log.incomplete or back.incomplete or report.incomplete:
            errs.append("run log flagged incomplete")
        if not report.ok:
            errs.append(f"audit found {len(report.violations)} violations")
        if report.n_trials_seen != self.N_TRIALS:
            errs.append(f"audit saw {report.n_trials_seen} trials, not {self.N_TRIALS}")
        if [e.message for e in back.entries] != [e.message for e in log.entries]:
            errs.append("log read back differs from the log written")
        if [e.message for e in log.entries] != [e.message for e in out["sim"].entries]:
            errs.append("socket log messages differ from simulate_run")
        if len(self._complete_trials(log)) != self.N_TRIALS:
            errs.append("not every trial has both outcomes")

        pred = self.predictions()
        for e in log.entries:
            m = e.message
            if e.direction == ">" and m.type == "lambda" and m.payload["lambda"] != pred[m.trial][0]:
                errs.append(f"trial {m.trial}: lambda {m.payload['lambda']} != {pred[m.trial][0]}")
            if e.direction == "<" and m.type == "outcome":
                _, sa, sb, oa, ob = pred[m.trial]
                want = (sa, oa) if m.wing == "A" else (sb, ob)
                got = (m.payload["setting"], m.payload["sign"])
                if got != want:
                    errs.append(f"trial {m.trial} wing {m.wing}: outcome {got} != {want}")
            if len(errs) > 20:
                return errs

        tallies: dict[tuple[str, str], list[int]] = {}
        for _, sa, sb, oa, ob in pred:
            cell = tallies.setdefault((sa, sb), [0, 0, 0])
            cell[0] += 1
            cell[1] += oa * ob
            cell[2] += oa == ob
        got = {(c.setting_a.text, c.setting_b.text): c for c in out["cells"]}
        if set(got) != set(tallies):
            errs.append(f"merged cells {sorted(got)} != {sorted(tallies)}")
        for key, (n, total, agree) in tallies.items():
            c = got.get(key)
            if c is None:
                continue
            if (c.estimate.n_trials, c.estimate.sum_products, c.partial) != (n, total, False) \
                    or c.estimate.mean != total / n or c.p_agree != agree / n:
                errs.append(f"merged cell {key} != tally n={n} sum={total} agree={agree}")
        return errs

    def fingerprint(self, out):
        return ([e.message for e in out["log"].entries], [e.message for e in out["sim"].entries],
                [(c.setting_a, c.setting_b, c.estimate, c.p_agree) for c in out["cells"]],
                out["report"].violations)

    def figures(self, out) -> dict[str, float]:
        first: dict[int, datetime] = {}
        last: dict[int, datetime] = {}
        for e in out["back"].entries:
            m = e.message
            if e.direction == ">" and m.type == "lambda":
                first.setdefault(m.trial, datetime.fromisoformat(e.timestamp))
            elif e.direction == "<" and m.type == "outcome":
                last[m.trial] = datetime.fromisoformat(e.timestamp)
        rtt = sorted((last[t] - first[t]).total_seconds() * 1e6 for t in first if t in last)
        return {
            "harness.trial_rtt_p50_us": ref.percentile(rtt, 0.50),
            "harness.trial_rtt_p99_us": ref.percentile(rtt, 0.99),
            "harness.log_bytes": out["log_bytes"],
            "harness.messages": len(out["log"].entries),
            "harness.wing_start_s": out["wing_start_s"],
        }

    def close(self) -> None:
        for proc in self.wings.values():
            proc.kill()
        self._stop_wings(timeout=30)


# -- statistics -----------------------------------------------------------------------

class Statistics(Workload):
    """The README's experiment commands, in-process through ``cli.main``."""

    SCAN_POINTS = 200
    MC_N = 250_000
    MERMIN_N = 500_000
    RT_POINTS = 8
    RT_N = 10_000
    RT_EXACT_POINTS = 6
    #: The CHSH settings are redrawn until the closed-form |S| is at most
    #: this, so sampling noise (sd of S about 4/sqrt(MC_N) = 0.008) cannot
    #: carry the Monte Carlo estimate of a local model past 2.
    MC_S_MAX = 1.9
    #: A Monte Carlo mean must lie within this many standard errors.
    Z = 5.0

    def __init__(self, root: Path, seed: int, workdir: Path):
        rnd = random.Random(seed)
        self.workdir = workdir
        self.scan_seed = rnd.randrange(1 << 40)
        while True:
            quad = [rnd.uniform(0.0, TWO_PI) for _ in range(4)]
            if abs(ref.clock_chsh(*quad)) <= self.MC_S_MAX:
                break
        self.quad = quad
        self.mc_seed = rnd.randrange(1 << 40)
        self.shard_split = rnd.randrange(1, self.MC_N)
        self.clock_grid = rnd.randrange(9000, 12001)
        self.clock_anti = rnd.random() < 0.5
        raw = [0.05 + rnd.random() for _ in range(8)]
        self.mermin_probs = [p / sum(raw) for p in raw]
        self.mermin_seed = rnd.randrange(1 << 40)
        self.rt_seed = rnd.randrange(1 << 40)
        self.rt_settings = [rnd.uniform(0.0, TWO_PI) for _ in range(self.RT_POINTS)]
        self.rt_exact_settings = [rnd.uniform(0.0, TWO_PI) for _ in range(self.RT_EXACT_POINTS)]
        self.rt_exact_grid = rnd.randrange(9000, 12001)
        self.ops_per_pass = len(self.commands())

    def _path(self, name: str) -> str:
        return str(self.workdir / name)

    def commands(self) -> dict[str, list[str]]:
        angles = ",".join(repr(x) for x in self.quad)
        conv = "anti_aligned" if self.clock_anti else "aligned"
        return {
            "chsh_scan.json": ["chsh", "--model", "clock", "--scan", str(self.SCAN_POINTS),
                               "--seed", str(self.scan_seed), "--format", "json"],
            "chsh_exact.json": ["chsh", "--model", "clock", "--exact", "--angles", angles,
                                "--format", "json"],
            "chsh_mc.json": ["chsh", "--model", "clock", "--angles", angles, "--n", str(self.MC_N),
                             "--seed", str(self.mc_seed), "--format", "json"],
            "clock.json": ["clock", "--convention", conv, "--grid", str(self.clock_grid),
                           "--format", "json"],
            "mermin.json": ["mermin", "--model-config", self._path("mermin.cfg"),
                            "--n", str(self.MERMIN_N), "--seed", str(self.mermin_seed),
                            "--format", "json"],
            "bell.json": ["bell", "--model", "clock", "--angles", angles, "--format", "json"],
            "rt.csv": ["rt", "--settings", ",".join(repr(x) for x in self.rt_settings),
                       "--n-per-point", str(self.RT_N), "--spread-dx", "5",
                       "--seed", str(self.rt_seed)],
            "rt_exact.json": ["rt", "--arms", "1.0", "--k", "1.0", "--exact",
                              "--settings", ",".join(repr(x) for x in self.rt_exact_settings),
                              "--grid", str(self.rt_exact_grid), "--format", "json"],
        }

    def setup(self) -> None:
        lines = ["model=mermin", "b_convention=aligned"]
        lines += [f"p[{s}]={p!r}" for s, p in zip(ref.INSTRUCTION_SETS, self.mermin_probs)]
        Path(self._path("mermin.cfg")).write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.argvs = {name: argv + ["--out", self._path(name)]
                      for name, argv in self.commands().items()}

    def run_pass(self):
        return {name: cli.main(argv) for name, argv in self.argvs.items()}

    def after_pass(self, out) -> None:
        out["text"] = {name: Path(self._path(name)).read_text(encoding="utf-8")
                       for name in self.argvs if out[name] == 0}

    def failed(self, out) -> int:
        return sum(1 for name in self.argvs if out[name] != 0)

    def fingerprint(self, out):
        return out["text"]

    def check(self, out) -> list[str]:
        errs = []
        for name, text in out["text"].items():
            checker = getattr(self, "_check_" + name.split(".")[0])
            errs += [f"{name}: {e}" for e in checker(text)]
        return errs

    # each checker returns a list of failures for one output file

    def _check_chsh_scan(self, text):
        doc = json.loads(text)
        tol = 4 * 6.0 / CLI_QUADRATURE_N
        quads = [[ref.DISCRETE_ANGLES[i] for i in (a, ap, b, bp)]
                 for a in range(3) for ap in range(3) for b in range(3) for bp in range(3)]
        quads += [[TWO_PI * u for u in ref.uniforms(self.scan_seed + k, 4)]
                  for k in range(self.SCAN_POINTS)]
        want = max(abs(ref.clock_chsh(*q)) for q in quads)
        at = [_setting_angle(s) for s in doc["at_settings"]]
        errs = []
        if not _close(doc["max_abs_s"], want, tol):
            errs.append(f"max |S| {doc['max_abs_s']} != closed form {want} within {tol}")
        if not _close(abs(ref.clock_chsh(*at)), doc["max_abs_s"], tol):
            errs.append(f"closed-form |S| at {doc['at_settings']} is not the reported maximum")
        if doc["classical_bound_ok"] is not True or doc["scan_points"] != self.SCAN_POINTS:
            errs.append("scan reports a violated bound or a wrong point count")
        return errs

    def _pairs(self):
        a, ap, b, bp = self.quad
        return ((a, b), (ap, b), (ap, bp), (a, bp))

    def _check_chsh_exact(self, text):
        doc = json.loads(text)
        tol = 6.0 / CLI_QUADRATURE_N
        errs = []
        for term, (sa, sb) in zip(doc["terms"], self._pairs()):
            want = ref.clock_E(sa, sb)
            if not _close(term["mean"], want, tol) or term["exact"] is not True:
                errs.append(f"{term['label']} = {term['mean']} != closed form {want}")
        if not _close(doc["s_value"], ref.clock_chsh(*self.quad), 4 * tol):
            errs.append(f"S = {doc['s_value']} != closed form {ref.clock_chsh(*self.quad)}")
        if doc["classical_bound_ok"] is not True:
            errs.append("exact S of a local model reported above 2")
        return errs

    def _check_chsh_mc(self, text):
        doc = json.loads(text)
        errs = []
        for term, (sa, sb) in zip(doc["terms"], self._pairs()):
            want = ref.clock_E(sa, sb)
            if term["n"] != self.MC_N or abs(term["mean"] - want) > self.Z * term["stderr"]:
                errs.append(f"{term['label']} = {term['mean']} +/- {term['stderr']} "
                            f"is {self.Z} SE away from {want}")
        if doc["classical_bound_ok"] is not True:
            errs.append(f"local model reported to violate |S| <= 2 at S = {doc['s_value']}")
        # two shards of the first term merge to the unsharded estimate bit for bit
        model = ClockModel()
        a, b = Setting.angle(self.quad[0]), Setting.angle(self.quad[2])
        k = self.shard_split
        merged = bell_stats.merge_estimates([
            bell_stats.estimate_E(model, a, b, k, self.mc_seed),
            bell_stats.estimate_E(model, a, b, self.MC_N - k, self.mc_seed + k)])
        first = doc["terms"][0]
        if (merged.mean, merged.stderr, merged.n_trials) != (first["mean"], first["stderr"], first["n"]):
            errs.append(f"shards split at {k} merge to {merged.mean}, not {first['mean']}")
        return errs

    def _check_clock(self, text):
        doc = json.loads(text)
        tol = 6.0 / self.clock_grid
        anti = self.clock_anti
        errs = []
        for pair in doc["pairs"]:
            i, j = int(pair["setting_a"][1]), int(pair["setting_b"][1])
            want = ref.clock_E(ref.DISCRETE_ANGLES[i], ref.DISCRETE_ANGLES[j], anti)
            if not (_close(pair["mean"], want, tol) and _close(pair["p_agree"], (1 + want) / 2, tol)):
                errs.append(f"pair {i}{j}: E {pair['mean']} p {pair['p_agree']} != {want}")
        e01 = ref.clock_E(0.0, ref.DISCRETE_ANGLES[1], anti)
        if not _close(doc["p_agree_differing_exact"], (1 + e01) / 2, tol) \
                or doc["p_disagree_differing_exact"] != 1.0 - doc["p_agree_differing_exact"] \
                or not _close(doc["p_agree_differing_other_convention"], (1 - e01) / 2, tol):
            errs.append("differing-setting agreement does not match the closed form")
        return errs

    def _check_mermin(self, text):
        doc = json.loads(text)
        e, agree, overall = ref.mermin_tables(self.mermin_probs)
        errs = []
        for pair in doc["pairs"]:
            i, j = int(pair["setting_a"][1]), int(pair["setting_b"][1])
            if not (_close(pair["mean"], e[i][j], 1e-12) and _close(pair["p_agree"], agree[i][j], 1e-12)):
                errs.append(f"pair {i}{j}: E {pair['mean']} p {pair['p_agree']} != {e[i][j]} {agree[i][j]}")
        if not _close(doc["overall_agreement_exact"], overall, 1e-12):
            errs.append(f"overall agreement {doc['overall_agreement_exact']} != {overall}")
        if doc["bound_five_ninths_ok"] is not (overall >= 5 / 9 - 1e-12):
            errs.append("five-ninths verdict wrong")
        mc = doc["overall_agreement_mc"]
        if mc["n"] != self.MERMIN_N or abs(mc["value"] - overall) > self.Z * mc["stderr"]:
            errs.append(f"MC agreement {mc['value']} +/- {mc['stderr']} is {self.Z} SE from {overall}")
        if doc["quantum_overall_agreement"] != 0.5:
            errs.append("quantum overall agreement is not 1/2")
        return errs

    def _check_bell(self, text):
        doc = json.loads(text)
        a, ap, b, bp = self.quad
        tol = 2 * 6.0 / CLI_QUADRATURE_N
        lhs = abs(ref.clock_E(a, b) - ref.clock_E(a, bp))
        tail = ref.clock_E(ap, bp) + ref.clock_E(ap, b)
        errs = []
        if not (_close(doc["lhs"], lhs, tol) and _close(doc["rhs_plus"], 2 + tail, tol)
                and _close(doc["rhs_minus"], 2 - tail, tol)):
            errs.append(f"lhs/rhs {doc['lhs']} {doc['rhs_plus']} {doc['rhs_minus']} "
                        f"!= {lhs} {2 + tail} {2 - tail}")
        if doc["verdict"] != "satisfied" or doc["satisfied"] is not True:
            errs.append("exact correlations of a local model reported as violating")
        return errs

    def _check_rt(self, text):
        lines = text.splitlines()
        errs = []
        if lines[0] != "delta_a,delta_b,E,stderr,p_agree,p_undetermined,quantum_fringe":
            return [f"unexpected header {lines[0]!r}"]
        rows = [[float(x) if x else None for x in line.split(",")] for line in lines[1:]]
        grid = [s % TWO_PI for s in self.rt_settings]
        expect = [(da, db) for da in grid for db in grid]
        if len(rows) != len(expect):
            return [f"{len(rows)} rows, expected {len(expect)}"]
        for row, (da, db) in zip(rows, expect):
            got_a, got_b, e, _, p, undet, fringe = row
            if (got_a, got_b) != (da, db):
                errs.append(f"row for ({got_a}, {got_b}) where ({da}, {db}) was expected")
            if not _close(fringe, (1 + math.cos(got_a + got_b)) / 2, 1e-15):
                errs.append(f"quantum_fringe {fringe} at ({got_a}, {got_b})")
            if not 0.0 <= undet <= 1.0 or (e is not None and not (-1 <= e <= 1 and 0 <= p <= 1)):
                errs.append(f"statistic out of range in row ({got_a}, {got_b})")
        return errs

    def _check_rt_exact(self, text):
        rows = json.loads(text)
        tol = 6.0 / self.rt_exact_grid
        grid = [s % TWO_PI for s in self.rt_exact_settings]
        expect = [(da, db) for da in grid for db in grid]
        if len(rows) != len(expect):
            return [f"{len(rows)} rows, expected {len(expect)}"]
        errs = []
        for row, (da, db) in zip(rows, expect):
            want = ref.clock_E(da, db, anti_aligned=False)
            if not (_close(row["E"], want, tol) and _close(row["p_agree"], (1 + want) / 2, tol)):
                errs.append(f"({da}, {db}): E {row['E']} != aligned clock {want}")
            if not _close(row["quantum_fringe"], (1 + math.cos(da + db)) / 2, 1e-15):
                errs.append(f"quantum_fringe {row['quantum_fringe']} at ({da}, {db})")
        return errs


def _setting_angle(text: str) -> float:
    if text.startswith("i"):
        return ref.DISCRETE_ANGLES[int(text[1:])]
    return float(text[1:])


# -- path_integral --------------------------------------------------------------------

class PathIntegral(Workload):
    """Convergence tables of the sliced propagator, then a Monte Carlo path sum."""

    MASS = HBAR = OMEGA = 1.0
    U, V, T = 0.0, 1.0, 1.0
    X_RANGE = (-20.0, 20.0)
    #: (grid points, slice counts) per potential.  The dense kernel is
    #: 16*N^2 bytes: 1 MB at 256 points, 16 MB at 1024 (within L3) and 256 MB
    #: at 4096 (far beyond).  A 4096-point call costs about 2 s whatever the
    #: slice count, so only the harmonic table, whose error must shrink with
    #: the slice count on the finest grid, goes that far.
    TABLES = {
        "free": ((256, (1, 2, 4, 8, 16)), (1024, (1, 2, 4, 8, 16))),
        "harmonic": ((256, (1, 2, 4, 8, 16)), (1024, (1, 2, 4, 8, 16)), (4096, (1, 2, 8))),
    }
    #: Cases with a smaller eta and no support warning count as resolved.
    ETA_RESOLVED = 0.05
    N_PATHS = 20_000
    PATH_SLICES = 16

    def __init__(self, root: Path, seed: int, workdir: Path):
        rnd = random.Random(seed)
        self.path_seed = rnd.randrange(1 << 40)
        self.path_u = rnd.uniform(-1.0, 1.0)
        self.path_v = rnd.uniform(-1.0, 1.0)
        self.jitter = rnd.uniform(0.5, 1.5)
        self.cases = [(kind, n, s) for kind, table in self.TABLES.items()
                      for n, slices in table for s in slices]
        self.ops_per_pass = len(self.cases) + 1

    def setup(self) -> None:
        pots = {"free": path_engine.FREE, "harmonic": path_engine.harmonic(self.OMEGA)}
        self.specs = [path_engine.PropagatorSpec(
            mass=self.MASS, potential=pots[kind], u=self.U, v=self.V, t=self.T,
            n_slices=s, grid=(*self.X_RANGE, n), hbar=self.HBAR) for kind, n, s in self.cases]
        self.path_potential = pots["harmonic"]

    def run_pass(self):
        props = [path_engine.sliced_propagator(spec) for spec in self.specs]
        paths = path_engine.sample_paths(self.path_u, self.path_v, self.T, self.PATH_SLICES,
                                         self.N_PATHS, self.jitter, self.path_seed)
        actions = [path_engine.discrete_action(p, self.path_potential, self.MASS) for p in paths]
        res = path_engine.resultant(actions)
        return {"props": props, "paths": paths, "actions": actions, "resultant": res}

    def fingerprint(self, out):
        return ([(p.value, p.support_warning) for p in out["props"]], out["actions"],
                out["resultant"])

    def _eta(self, n_points: int, n_slices: int) -> float:
        dx = (self.X_RANGE[1] - self.X_RANGE[0]) / (n_points - 1)
        dt = self.T / n_slices
        return 2.0 * path_engine.DEFAULT_DAMPING * self.MASS * dx * dx / (math.pi ** 2 * self.HBAR * dt)

    def _closed(self, kind: str) -> complex:
        if kind == "free":
            return ref.free_propagator(self.MASS, self.HBAR, self.U, self.V, self.T)
        return ref.harmonic_propagator(self.MASS, self.OMEGA, self.HBAR, self.U, self.V, self.T)

    def rel_errors(self, out) -> list[tuple[str, int, int, float, bool]]:
        """(kind, points, slices, relative error, resolved) per table case."""
        rows = []
        for (kind, n, s), p in zip(self.cases, out["props"]):
            want = self._closed(kind)
            resolved = s > 1 and not p.support_warning and self._eta(n, s) <= self.ETA_RESOLVED
            rows.append((kind, n, s, abs(p.value - want) / abs(want), resolved))
        return rows

    def check(self, out) -> list[str]:
        errs = []
        rel = {(k, n, s): (e, r) for k, n, s, e, r in self.rel_errors(out)}
        for (kind, n, s), p in zip(self.cases, out["props"]):
            if s == 1:
                # one slice integrates nothing: it is the closed-form short-time kernel
                want = (self._closed("free") if kind == "free" else ref.midpoint_slice_kernel(
                    self.MASS, self.OMEGA, self.HBAR, self.U, self.V, self.T))
                if abs(p.value - want) > 1e-12 * abs(want):
                    errs.append(f"{kind} one slice on {n} points: {p.value} != {want}")
            elif kind == "free" and not p.support_warning:
                # every slice is the exact kernel at complex time dt(1 - i eta), and free
                # kernels compose exactly, so the result is the closed form at t(1 - i eta)
                eta = self._eta(n, s)
                want = ref.free_propagator(self.MASS, self.HBAR, self.U, self.V, self.T * (1 - 1j * eta))
                if abs(p.value - want) > 1e-6 * abs(want):
                    errs.append(f"free {n} points {s} slices: {p.value} != complex-time {want}")
                if rel[(kind, n, s)][1] and rel[(kind, n, s)][0] > eta:
                    errs.append(f"free {n} points {s} slices: error {rel[(kind, n, s)][0]} > eta {eta}")
        finest, slices = self.TABLES["harmonic"][-1]
        errors = [rel[("harmonic", finest, s)][0] for s in slices]
        if any(later >= earlier for earlier, later in zip(errors, errors[1:])):
            errs.append(f"harmonic error on {finest} points does not shrink with slices: {errors}")

        if len(out["paths"]) != self.N_PATHS:
            errs.append(f"{len(out['paths'])} paths, expected {self.N_PATHS}")
        for i, (path, action) in enumerate(zip(out["paths"], out["actions"])):
            pos = [float(x) for x in path.positions]
            if len(pos) != self.PATH_SLICES + 1 or pos[0] != self.path_u or pos[-1] != self.path_v:
                errs.append(f"path {i} is not pinned to its endpoints")
            want, scale = ref.midpoint_action(pos, self.T, self.MASS, self.OMEGA)
            if abs(action - want) > 1e-12 * max(abs(want), scale):
                errs.append(f"path {i}: action {action} != midpoint rule {want}")
            if len(errs) > 20:
                return errs
        total = ref.phasor_sum(out["actions"])
        res = out["resultant"]
        if abs(res.r - abs(total)) > 1e-9 or (
                not res.degenerate and abs(math.remainder(res.theta - math.atan2(total.imag, total.real),
                                                          TWO_PI)) > 1e-9):
            errs.append(f"resultant ({res.r}, {res.theta}) != |sum exp(iS)| = {abs(total)}")
        return errs

    def figures(self, out) -> dict[str, float]:
        resolved = [e for *_, e, r in self.rel_errors(out) if r]
        return {"path_engine.max_rel_err": max(resolved)}


WORKLOADS = {"distributed": Distributed, "statistics": Statistics, "path_integral": PathIntegral}
