"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public chainsup functions from outside the package:
it replaces every binding of each target in every loaded chainsup module
(``verify`` and ``stochlab`` import several metric and stochlab functions
by name, so patching the defining module alone would miss those calls).
Spans carry a parent id and the index of the config that caused them,
are kept in memory and written out at the end.  Work counters are taken
at the same boundaries from arguments and return values.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import resource
import sys
import time

LAYERS = ("cli", "verify", "gamma", "metric", "stochlab", "dist", "tailkit")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    __slots__ = ("id", "parent", "name", "config", "start", "end",
                 "rss0", "rss1", "error", "counts")

    def to_json(self, self_s: float) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "config": self.config, "start": self.start, "end": self.end,
                "self_s": self_s, "rss_growth_mb": self.rss1 - self.rss0,
                "error": self.error, "counts": self.counts}


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.errors = dict.fromkeys(LAYERS, 0)
        self.bindings: dict[str, int] = {}
        self.config = -1
        self._stack: list[Span] = []
        self._raised: list[BaseException] = []
        self._dm_keys: set = set()
        self._ids = itertools.count()

    def begin_config(self, index: int) -> None:
        """Spans recorded from now on belong to config `index`."""
        self.config = index
        self._dm_keys = set()

    def repeated(self, key) -> int:
        """1 if `key` was seen before within the current config, else 0."""
        if key in self._dm_keys:
            return 1
        self._dm_keys.add(key)
        return 0

    def wrap(self, fn, layer: str, name, counter=None):
        """`name` is a span name or a callable(bound arguments) -> name."""
        sig = inspect.signature(fn)
        needs_args = callable(name) or counter is not None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if needs_args:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
            sp = Span()
            sp.id = next(self._ids)
            sp.parent = self._stack[-1].id if self._stack else None
            sp.name = name(bound.arguments) if callable(name) else name
            sp.config = self.config
            sp.error = None
            sp.counts = {}
            self._stack.append(sp)
            sp.rss0 = _maxrss_mb()
            sp.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                if not any(exc is seen for seen in self._raised):
                    self._raised.append(exc)
                    self.errors[layer] += 1
                sp.error = type(exc).__name__
                raise
            finally:
                sp.end = time.perf_counter()
                sp.rss1 = _maxrss_mb()
                self._stack.pop()
                self.spans.append(sp)
            if counter is not None:
                sp.counts = counter(self, bound.arguments, out)
            return out

        return wrapper

    def patch(self, owner, attr: str, layer: str, name, counter=None) -> None:
        """Wrap `owner.attr` and rebind every chainsup name bound to it."""
        original = getattr(owner, attr)
        wrapper = self.wrap(original, layer, name, counter)
        count = 0
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            count += 1
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "chainsup"
                                   or mod_name.startswith("chainsup.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    count += 1
        self.bindings[f"{owner.__name__}.{attr}"] = count

    # -- aggregation ----------------------------------------------------

    def self_times(self) -> dict:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict = {}
        for sp in self.spans:
            if sp.parent is not None:
                children.setdefault(sp.parent, []).append((sp.start, sp.end))
        out = {}
        for sp in self.spans:
            covered = 0.0
            cur_start = cur_end = None
            for s, e in sorted(children.get(sp.id, ())):
                if cur_end is None or s > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = s, e
                else:
                    cur_end = max(cur_end, e)
            if cur_end is not None:
                covered += cur_end - cur_start
            out[sp.id] = (sp.end - sp.start) - covered
        return out

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, rss growth, counts."""
        self_s = self.self_times()
        by_name: dict = {}
        for sp in self.spans:
            agg = by_name.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                               "rss_growth_mb": 0.0, "counts": {}})
            agg["calls"] += 1
            agg["s"] += sp.end - sp.start
            agg["self_s"] += self_s[sp.id]
            agg["rss_growth_mb"] += sp.rss1 - sp.rss0
            for k, v in sp.counts.items():
                agg["counts"][k] = agg["counts"].get(k, 0) + v
        return by_name

    def write(self, path) -> None:
        self_s = self.self_times()
        with open(path, "w") as fh:
            json.dump({"bindings": self.bindings, "errors": self.errors,
                       "spans": [sp.to_json(self_s[sp.id]) for sp in self.spans]},
                      fh, sort_keys=True)
            fh.write("\n")


# -- counters -------------------------------------------------------------

def _count_distance_matrix(rec: Recorder, args: dict, out) -> dict:
    T = args["T"]
    m = len(T)
    key = (repr(args["proc"].descriptors()),
           hashlib.sha1(T.points.tobytes()).hexdigest(),
           float(args["p"]), args["samples"], args["seed"])
    return {"pairs": m * (m - 1) // 2, "repeats": rec.repeated(key)}


def _count_increment_norm(rec: Recorder, args: dict, out) -> dict:
    return {"mc": int(out.method == "monte_carlo")}


def _count_draws(rec: Recorder, args: dict, out) -> dict:
    return {"draws": int(args["count"])}


def _count_estimate_sup(rec: Recorder, args: dict, out) -> dict:
    return {"samples": int(out.samples)}


def _count_estimate_mean(rec: Recorder, args: dict, out) -> dict:
    return {"samples": int(args["samples"])}


def install(chainsup) -> Recorder:
    """Wrap the public functions of the imported `chainsup` package."""
    cli, verify, gamma = chainsup.cli, chainsup.verify, chainsup.gamma
    metric, stochlab, dist, tailkit = (chainsup.metric, chainsup.stochlab,
                                       chainsup.dist, chainsup.tailkit)
    rec = Recorder()
    rec.patch(cli, "run", "cli", "cli.run")
    rec.patch(cli, "write_report", "cli", "cli.write_report")
    for fn in ("sudakov_experiment", "two_sided_experiment", "weak_strong_experiment",
               "comparison_experiment", "convex_hull_decomposition"):
        rec.patch(verify, fn, "verify", f"verify.{fn}")
    rec.patch(gamma, "compute_gamma", "gamma",
              lambda a: f"gamma.compute_gamma.{a['mode']}")
    rec.patch(gamma, "evaluate_certificate", "gamma", "gamma.evaluate_certificate")
    rec.patch(metric, "distance_matrix", "metric", "metric.distance_matrix",
              _count_distance_matrix)
    rec.patch(metric, "increment_norm", "metric", "metric.increment_norm",
              _count_increment_norm)
    rec.patch(metric.ProcessSpec, "sample_matrix", "metric",
              "metric.ProcessSpec.sample_matrix", _count_draws)
    rec.patch(dist.DistributionModel, "sample_with", "dist", "dist.sample_with",
              _count_draws)
    rec.patch(stochlab, "estimate_sup", "stochlab", "stochlab.estimate_sup",
              _count_estimate_sup)
    rec.patch(stochlab, "estimate_mean", "stochlab", "stochlab.estimate_mean",
              _count_estimate_mean)
    rec.patch(tailkit, "log_concave_envelope", "tailkit", "tailkit.log_concave_envelope")
    rec.patch(tailkit, "regularity_constants", "tailkit", "tailkit.regularity_constants")
    return rec


SPAN_NAMES = (
    "cli.run", "cli.write_report",
    "verify.sudakov_experiment", "verify.two_sided_experiment",
    "verify.weak_strong_experiment", "verify.comparison_experiment",
    "verify.convex_hull_decomposition",
    "gamma.compute_gamma.exact", "gamma.compute_gamma.greedy",
    "gamma.evaluate_certificate",
    "metric.distance_matrix", "metric.increment_norm",
    "metric.ProcessSpec.sample_matrix", "dist.sample_with",
    "stochlab.estimate_sup", "stochlab.estimate_mean",
    "tailkit.log_concave_envelope", "tailkit.regularity_constants",
)


def layer_metrics(rec: Recorder) -> dict:
    """The per-layer metrics of one traced pass, by metric name."""
    summary = rec.summary()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "rss_growth_mb": 0.0, "counts": {}}
    agg = {name: summary.get(name, empty) for name in SPAN_NAMES}
    out = {f"{name}.calls": a["calls"] for name, a in agg.items()}

    dm = agg["metric.distance_matrix"]
    out["metric.distance_matrix.self_s"] = dm["self_s"]
    out["metric.distance_matrix.pairs"] = dm["counts"].get("pairs", 0)
    out["metric.distance_matrix.repeat_frac"] = (
        dm["counts"].get("repeats", 0) / dm["calls"] if dm["calls"] else 0.0)
    out["metric.distance_matrix.rss_growth_mb"] = dm["rss_growth_mb"]
    inc = agg["metric.increment_norm"]
    out["metric.increment_norm.self_s"] = inc["self_s"]
    out["metric.increment_norm.mc_frac"] = (
        inc["counts"].get("mc", 0) / inc["calls"] if inc["calls"] else 0.0)
    for name in ("gamma.compute_gamma.exact", "gamma.compute_gamma.greedy",
                 "gamma.evaluate_certificate", "stochlab.estimate_sup",
                 "stochlab.estimate_mean", "cli.run"):
        out[f"{name}.self_s"] = agg[name]["self_s"]
    sm = agg["metric.ProcessSpec.sample_matrix"]
    out["metric.ProcessSpec.sample_matrix.self_s"] = sm["self_s"]
    out["metric.ProcessSpec.sample_matrix.draws"] = sm["counts"].get("draws", 0)
    sw = agg["dist.sample_with"]
    out["dist.sample_with.s"] = sw["s"]
    out["dist.sample_with.draws"] = sw["counts"].get("draws", 0)
    out["stochlab.samples"] = sum(agg[name]["counts"].get("samples", 0) for name in
                                  ("stochlab.estimate_sup", "stochlab.estimate_mean"))
    out["verify.self_s"] = sum(a["self_s"] for name, a in agg.items()
                               if name.startswith("verify."))
    for name in ("cli.write_report", "tailkit.log_concave_envelope",
                 "tailkit.regularity_constants"):
        out[f"{name}.s"] = agg[name]["s"]
    for layer, count in rec.errors.items():
        out[f"{layer}.errors"] = count
    return out
