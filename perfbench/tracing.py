"""Span recording around the public functions of each linhop layer.

The package is not edited: ``install`` replaces every public function of the
layer modules with a recording wrapper at each place a caller looks it up
(the defining module, every linhop module that imported the name directly,
and the package namespace).  Spans stay in memory and are returned to the
caller, which writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

LAYERS = ("poly_approx", "feature_map", "hopfield", "capacity", "reduction", "bench")
# modules whose namespaces hold names imported from the layers
LOOKUP_MODULES = LAYERS + ("cli",)
# units of the per-layer figures that are neither seconds (names ending in
# _s) nor plain counts
UNITS = {
    "feature_map.monomial_entries": "count/query",
    "feature_map.factor_bytes": "B/query",
    "hopfield.fit_cache_hit_ratio": "ratio",
    "hopfield.memory_rows_per_query": "rows/query",
    "hopfield.dense_score_entries": "count/call",
}


def _attrs(name: str, args, kwargs, result) -> dict:
    """Work counts read from the arguments and result of a traced call."""
    if name == "fit_exp_poly" and result is not None:
        return {"degree": result.degree}
    if name == "build_feature_map" and result is not None:
        return {"rank": result.rank}
    if name == "build_factor_matrices":
        fmap, x_rows, y_rows = args[:3]
        attrs = {"rank": fmap.rank, "x_rows": len(x_rows), "y_rows": len(y_rows)}
        if result is not None:
            attrs["bytes"] = int(result[0].nbytes + result[1].nbytes)
        return attrs
    if name in ("retrieve_dense", "retrieve_lowrank"):
        memory, queries = args[:2]
        return {"m": memory.count, "l": queries.count}
    if name == "fixed_point_iterate" and result is not None:
        return {"steps": len(result.points) - 1}
    return {}


class Tracer:
    """In-memory span recorder.  A span is a dict with its id, name, layer,
    start and end (monotonic seconds), parent id, the id of the benchmark
    operation that caused it, the run id, the exception class if the call
    raised, and work counts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []

    def _open(self, name: str, layer: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "start": time.monotonic(),
            "end": None,
            "parent": None if parent is None else parent["id"],
            "op": None if parent is None else parent["op"],
            "run": self.run_id,
            "error": None,
            "attrs": {},
        }
        if span["op"] is None:
            span["op"] = span["id"]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, name: str):
        """One benchmark operation: a root span the layer spans hang from."""
        span = self._open(name, "perfbench")
        try:
            yield span
        except BaseException as exc:
            span["error"] = type(exc).__name__
            raise
        finally:
            self._close(span)

    def wrap(self, fn, layer: str):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
                span["attrs"] = _attrs(name, args, kwargs, result)

        return traced


class NullTracer:
    """Stand-in used with tracing off: operations record nothing."""

    spans: list = []

    def op(self, name: str):
        return contextlib.nullcontext()


def install(tracer: Tracer) -> None:
    """Wrap every public function of the layer modules wherever linhop looks
    it up, and the public ``monomials`` method of the feature map."""
    package = importlib.import_module("linhop")
    modules = {m: importlib.import_module(f"linhop.{m}") for m in LOOKUP_MODULES}
    wrapped = {}
    for layer in LAYERS:
        mod = modules[layer]
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                wrapped[id(obj)] = (obj, tracer.wrap(obj, layer))
    for namespace in [package] + list(modules.values()):
        for name, obj in list(vars(namespace).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(namespace, name, hit[1])
    fmap_cls = modules["feature_map"].MonomialFeatureMap
    fmap_cls.monomials = tracer.wrap(fmap_cls.monomials, "feature_map")


def _children(spans) -> dict:
    kids: dict = {}
    for span in spans:
        if span["parent"] is not None:
            kids.setdefault(span["parent"], []).append(span)
    return kids


def _dur(span) -> float:
    return span["end"] - span["start"]


def add_self_times(spans) -> None:
    """Store each span's self time: its duration minus its children's."""
    kids = _children(spans)
    for span in spans:
        span["self"] = _dur(span) - sum(_dur(k) for k in kids.get(span["id"], ()))


def _other_layer_time(span, kids) -> float:
    """Time covered by the nearest descendants that belong to another layer."""
    total = 0.0
    for kid in kids.get(span["id"], ()):
        if kid["layer"] == span["layer"]:
            total += _other_layer_time(kid, kids)
        else:
            total += _dur(kid)
    return total


def layer_metrics(spans) -> dict:
    """Per-layer figures of a traced run: metric name -> (value, unit)."""
    kids = _children(spans)
    by_id = {s["id"]: s for s in spans}
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def named(name):
        return by_name.get(name, [])

    def under(span, name):
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] == name:
                return True
            parent = by_id[parent]["parent"]
        return False

    fits = named("fit_exp_poly")
    builds = named("build_feature_map")
    factors = named("build_factor_matrices")
    lowrank = named("retrieve_lowrank")
    dense = named("retrieve_dense")
    factor_calls = named("lowrank_factors")
    trajectories = named("fixed_point_iterate")
    fits_in_factors = sum(1 for s in fits if under(s, "lowrank_factors"))
    lowrank_cols = sum(s["attrs"].get("l", 0) for s in lowrank if not s["error"])
    memory_rows = sum(
        s["attrs"].get("x_rows", 0) for s in factors if under(s, "retrieve_lowrank")
    )
    steps = sorted(s["attrs"].get("steps", 0) for s in trajectories)

    def per(total, count):
        return total / count if count else 0.0

    out = {
        # times are seconds per call, so a faster layer reads lower even
        # though the time-budgeted loop then makes more calls
        "poly_approx.fit_s": per(sum(map(_dur, fits)), len(fits)),
        "poly_approx.fit_calls": len(fits),
        "poly_approx.fit_failed": sum(1 for s in fits if s["error"]),
        "poly_approx.degree_max": max((s["attrs"].get("degree", 0) for s in fits), default=0),
        "feature_map.build_s": per(sum(map(_dur, builds)), len(builds)),
        "feature_map.build_calls": len(builds),
        "feature_map.rank_max": max((s["attrs"].get("rank", 0) for s in builds), default=0),
        "feature_map.factor_s": per(sum(map(_dur, factors)), len(factors)),
        # monomial work and bytes per low-rank query column retrieved
        "feature_map.monomial_entries": per(sum(
            (s["attrs"]["x_rows"] + s["attrs"]["y_rows"]) * s["attrs"]["rank"]
            for s in factors
        ), lowrank_cols),
        "feature_map.factor_bytes": per(
            sum(s["attrs"].get("bytes", 0) for s in factors), lowrank_cols
        ),
        "hopfield.lowrank_s": per(sum(map(_dur, lowrank)), len(lowrank)),
        "hopfield.lowrank_self_s": per(
            sum(_dur(s) - _other_layer_time(s, kids) for s in lowrank), len(lowrank)
        ),
        "hopfield.lowrank_factor_calls": len(factor_calls),
        "hopfield.fit_cache_hit_ratio": 1.0 - per(fits_in_factors, len(factor_calls)),
        "hopfield.memory_rows_per_query": per(memory_rows, lowrank_cols),
        "hopfield.dense_s": per(sum(map(_dur, dense)), len(dense)),
        "hopfield.dense_score_entries": per(
            sum(s["attrs"]["m"] * s["attrs"]["l"] for s in dense), len(dense)
        ),
        "hopfield.fp_steps": steps[len(steps) // 2] if steps else 0,
        "capacity.probe_failed": sum(
            1 for s in lowrank
            if s["error"] and by_id.get(s["parent"], {}).get("name") == "run_capacity_experiment"
        ),
        "bench.phase_exhausted": sum(
            1 for s in lowrank
            if s["error"] == "DegreeExhausted"
            and by_id.get(s["parent"], {}).get("name") == "phase_sweep"
        ),
        # totals over the run; zero on workloads that do not run the reduction
        "reduction.solve_s": sum(map(_dur, named("solve_gap_anns_via_ahop"))),
        "reduction.oracle_s": sum(map(_dur, named("classify_queries"))),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            _dur(s) - _other_layer_time(s, kids)
            for s in spans
            if s["layer"] == layer
            and (s["parent"] is None or by_id[s["parent"]]["layer"] != layer)
        )
    return {
        name: (value, UNITS.get(name, "s" if name.endswith("_s") else "count"))
        for name, value in out.items()
    }
