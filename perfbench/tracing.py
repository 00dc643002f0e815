"""Spans around the public functions of bellpath's modules.

The tracer wraps, from outside the program, every public function and
public method defined in each module of ``bellpath`` and records one span
per call: name, start, end and parent.  Each module is one layer.  A span's
self time is its duration minus the time its child spans cover; calls are
synchronous and nested, so the children of one span never overlap.

Counts are taken at the same boundaries by small hooks that look at a
call's arguments and result (draws returned by ``rng``, circle-grid points
summed by ``bell_stats``, dense kernels built by ``path_engine``).

Spans are kept in memory; ``metrics`` turns one pass's spans into the
per-layer figures and ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter

LAYERS = ("rng", "hv_models", "bell_stats", "oracle", "path_engine",
          "interferometer", "harness", "cli", "util", "config")

# span record fields
NAME, LAYER, START, END, PARENT, CHILD_S, COUNTS = range(7)

_DRAW_FUNCS = {"uniform", "uniforms", "uniforms_for_seeds", "normals",
               "normals_for_seeds", "u64_stream"}


def _rng_draws(args, kwargs, result):
    size = getattr(result, "size", None)
    return {"draws": 1 if size is None else int(size)}


def _exact_points(args, kwargs, result):
    model = args[0]
    circle = getattr(model, "lambda_kind", "") == "circle"
    return {"quadrature_points": result.n_trials if circle else 0}


def _mc_trials(args, kwargs, result):
    return {"mc_trials": result.n_trials}


def _kernel(args, kwargs, result):
    spec = args[0]
    n_points = spec.grid[2]
    dense = spec.n_slices > 2
    return {"kernel_bytes": 16 * n_points * n_points if dense else 0,
            "kernel_applications": max(0, spec.n_slices - 2)}


_HOOKS = {
    **{f"rng.{name}": _rng_draws for name in _DRAW_FUNCS},
    "bell_stats.exact_E": _exact_points,
    "bell_stats.exact_agreement_prob": _exact_points,
    "bell_stats.estimate_E": _mc_trials,
    "bell_stats.agreement_prob": _mc_trials,
    "bell_stats.overall_agreement": _mc_trials,
    "path_engine.sliced_propagator": _kernel,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.enabled = False

    def _open(self, name: str, layer: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        rec = [name, layer, perf_counter(), 0.0, parent, 0.0, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self.stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD_S] += rec[END] - rec[START]

    def wrap(self, layer: str, name: str, fn):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
            if hook is not None:
                rec[COUNTS] = hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function and method of every bellpath module.

        Module-level names that other modules imported directly (``from
        .hv_models import threshold_sign``) are rebound too, so a call is
        traced whichever module makes it.
        """
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"bellpath.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(layer, f"{layer}.{attr}", obj)
                    replaced[obj] = wrapped
                    setattr(mod, attr, wrapped)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for name in ("bellpath", *(f"bellpath.{layer}" for layer in LAYERS)):
            mod = importlib.import_module(name)
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(layer, name, obj.__func__)))
            elif isinstance(obj, classmethod):
                setattr(cls, attr, classmethod(self.wrap(layer, name, obj.__func__)))
            elif inspect.isfunction(obj):
                setattr(cls, attr, self.wrap(layer, name, obj))

    def reset(self) -> None:
        self.spans = []
        self.stack = []

    def dump(self, path, meta: dict) -> None:
        """Write the spans as [name, start_s, end_s, parent], timed from the first."""
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[s[NAME], round(s[START] - t0, 9), round(s[END] - t0, 9), s[PARENT]]
                for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "fields": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))


# -- per-layer figures from one pass's spans -------------------------------------------

def _outermost(spans: list[list], names) -> list[list]:
    """Spans named in ``names`` with no ancestor also named in ``names``."""
    out = []
    for rec in spans:
        if rec[NAME] not in names:
            continue
        parent = rec[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            out.append(rec)
    return out


def _inclusive_s(spans, names) -> float:
    return sum(r[END] - r[START] for r in _outermost(spans, names))


def _count(spans, names) -> int:
    return len(_outermost(spans, names))


def _counter(spans, names, key) -> int:
    return sum((r[COUNTS] or {}).get(key, 0) for r in _outermost(spans, names))


def _self_s(spans, layer) -> float:
    return sum(r[END] - r[START] - r[CHILD_S] for r in spans if r[LAYER] == layer)


def _layer_entries(spans, layer) -> int:
    return sum(1 for r in spans if r[LAYER] == layer
               and (r[PARENT] < 0 or spans[r[PARENT]][LAYER] != layer))


def _names(spans, layer, *attrs) -> set[str]:
    """Span names of ``layer`` whose last component is one of ``attrs``."""
    return {r[NAME] for r in spans if r[LAYER] == layer and r[NAME].rsplit(".", 1)[1] in attrs}


def metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer figures of one pass (names as in BENCHMARK.json)."""
    rng_draw = {f"rng.{n}" for n in _DRAW_FUNCS}
    sample = _names(spans, "hv_models", "sample_lambda", "sample_lambdas")
    outcome = _names(spans, "hv_models", "outcomes_a", "outcomes_b", "outcome_a", "outcome_b")
    wire = _names(spans, "hv_models", "lambda_text", "lambda_from_text")
    exact = {"bell_stats.exact_E", "bell_stats.exact_agreement_prob",
             "bell_stats.exact_overall_agreement"}
    mc = {"bell_stats.estimate_E", "bell_stats.agreement_prob", "bell_stats.overall_agreement"}
    return {
        "rng.calls": _layer_entries(spans, "rng"),
        "rng.draws": _counter(spans, rng_draw, "draws"),
        "rng.self_s": _self_s(spans, "rng"),
        "hv_models.sample_calls": _count(spans, sample),
        "hv_models.sample_s": _inclusive_s(spans, sample),
        "hv_models.outcome_s": _inclusive_s(spans, outcome),
        "hv_models.wire_text_s": _inclusive_s(spans, wire),
        "bell_stats.exact_calls": _count(spans, exact - {"bell_stats.exact_overall_agreement"}),
        "bell_stats.quadrature_points": _counter(spans, exact, "quadrature_points"),
        "bell_stats.exact_s": _inclusive_s(spans, exact),
        "bell_stats.mc_trials": _counter(spans, mc, "mc_trials"),
        "bell_stats.mc_s": _inclusive_s(spans, mc),
        "interferometer.scan_s": _inclusive_s(spans, {"interferometer.correlation_scan"}),
        "interferometer.exact_scan_s": _inclusive_s(spans, {"interferometer.degenerate_exact_scan"}),
        "path_engine.propagator_s": _inclusive_s(spans, {"path_engine.sliced_propagator"}),
        "path_engine.kernel_bytes": _counter(spans, {"path_engine.sliced_propagator"}, "kernel_bytes"),
        "path_engine.kernel_applications": _counter(
            spans, {"path_engine.sliced_propagator"}, "kernel_applications"),
        "path_engine.sample_paths_s": _inclusive_s(spans, {"path_engine.sample_paths"}),
        "path_engine.action_s": _inclusive_s(spans, {"path_engine.discrete_action"}),
        "path_engine.resultant_s": _inclusive_s(spans, {"path_engine.resultant"}),
        "harness.source_run_s": _inclusive_s(spans, {"harness.source_run"}),
        "harness.simulate_run_s": _inclusive_s(spans, {"harness.simulate_run"}),
        "harness.log_write_s": _inclusive_s(spans, {"harness.RunLog.write"}),
        "harness.log_read_s": _inclusive_s(spans, {"harness.RunLog.read"}),
        "harness.audit_s": _inclusive_s(spans, {"harness.audit_log"}),
        "harness.merge_s": _inclusive_s(spans, {"harness.merge_statistics"}),
        "cli.self_s": _self_s(spans, "cli"),
        "util.render_s": _inclusive_s(spans, {"util.json_document", "util.csv_text"}),
    }
