"""Experiment runner.

Parses a JSON config, dispatches to the experiment modules, writes a
JSON report plus plot-ready CSV tables.  Reports embed the resolved
config, its hash and every seed, and contain nothing run-dependent, so
identical configs give byte-identical reports.

Exit codes: 0 pass, 2 assertion failure, 1 error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import numbers
import sys
from pathlib import Path

import numpy as np

from . import dist, gamma, metric, stochlab, tailkit, verify
from .metric import IndexSet, ProcessSpec
from .streams import RngStream

VERSION = "0.1.0"

# index-set type -> the fields build_index_set reads
_INDEX_SET_FIELDS = {"explicit": ["points"], "basis": ["n"], "packing": ["m", "n"],
                     "sphere_random": ["count", "n", "seed"],
                     "interleave_of": ["inner"]}


def _when(key: str, value, then: dict) -> dict:
    """Schema rule: an object whose `key` is `value` must also satisfy `then`."""
    return {"if": {"properties": {key: {"const": value}}, "required": [key]},
            "then": then}


MODEL_SCHEMA = {
    "type": "object",
    "properties": {
        "family": {"enum": list(dist.FAMILIES)},
        "shape": {"type": "number", "exclusiveMinimum": 0},
        "a": {"type": "number", "exclusiveMinimum": 1},
    },
    "required": ["family"],
    "additionalProperties": False,
    "allOf": [_when("family", f, {"required": list(fields)})
              for f, (_, fields) in dist.FAMILIES.items() if fields],
}

# branch by type, not oneOf, so that an error inside a model names its field
_PROCESS_SCHEMA = {"if": {"type": "object"}, "then": MODEL_SCHEMA,
                   "else": {"type": "array", "items": MODEL_SCHEMA}}

INDEX_SET_SCHEMA = {
    "type": "object",
    "properties": {
        "type": {"enum": list(_INDEX_SET_FIELDS)},
        "points": {"type": "array", "items": {"type": "array",
                                              "items": {"type": "number"}}},
        "n": {"type": "integer", "minimum": 1},
        "m": {"type": "integer", "minimum": 1},
        "count": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "include_origin": {"type": "boolean"},
        "inner": {"$ref": "#/definitions/index_set"},
    },
    "required": ["type"],
    "allOf": [_when("type", t, {"required": need})
              for t, need in _INDEX_SET_FIELDS.items()],
}

_PARAM_SCHEMAS = {
    "p": {"type": "number", "minimum": 1},
    "p_grid": {"type": "array", "items": {"type": "number", "minimum": 1}, "minItems": 1},
    "u": {"type": "number", "exclusiveMinimum": 0},
    "alpha": {"type": "number", "minimum": 1},
    "samples": {"type": "integer", "minimum": 100},
    "seed": {"type": "integer"},
    "mode": {"enum": ["exact", "greedy"]},
    "functional": {"enum": ["gamma2", "gammaX"]},
    "target": {"enum": list(stochlab.TARGETS)},
    "threshold": {"type": "number"},
}


class ConfigError(ValueError):
    pass


def build_index_set(spec: dict) -> IndexSet:
    kind = spec["type"]
    if kind == "explicit":
        T = IndexSet(np.asarray(spec["points"], dtype=float))
    elif kind == "basis":
        T = IndexSet.basis(spec["n"])
    elif kind == "packing":
        T = verify.packing_set(spec["m"], spec["n"])
    elif kind == "sphere_random":
        rng = np.random.default_rng(spec["seed"])
        pts = rng.standard_normal((spec["count"], spec["n"]))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        T = IndexSet(pts)
    elif kind == "interleave_of":
        T = verify.interleave(build_index_set(spec["inner"]))
    else:
        raise ConfigError(f"unknown index set type {kind!r}")
    if spec.get("include_origin"):
        T = IndexSet.with_origin(T.points)
    return T


def build_process(spec, dimension: int) -> ProcessSpec:
    if isinstance(spec, dict):
        return ProcessSpec.homogeneous(dist.model_from_descriptor(spec), dimension)
    models = [dist.model_from_descriptor(d) for d in spec]
    if len(models) != dimension:
        raise ConfigError(
            f"process lists {len(models)} models but the index set has "
            f"dimension {dimension}")
    return ProcessSpec(models=tuple(models))


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _to_jsonable(obj):
    """JSON-ready copy of `obj`; a PartitionTree serializes as its levels."""
    if isinstance(obj, gamma.PartitionTree):
        return _to_jsonable(obj.levels)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _run_gamma(config, par, T, proc, tables, workers):
    value, tree = gamma.compute_gamma(T, proc, par["functional"], mode=par["mode"],
                                      samples=par["samples"], seed=par["seed"])
    return {"functional": par["functional"], "mode": par["mode"], "value": value,
            "certificate": tree, "passed": True}


def _run_supremum(config, par, T, proc, tables, workers):
    est = stochlab.estimate_sup(
        proc, T, par["samples"], RngStream(par["seed"], 0),
        target=par["target"], workers=workers)
    return {"estimate": est, "passed": True}


def _run_sudakov(config, par, T, proc, tables, workers):
    rep = verify.sudakov_experiment(
        proc, T, par["p"], par["u"], par["samples"], RngStream(par["seed"], 0),
        workers=workers)
    tables["kappa"] = [["p", "u", "kappa_obs"], [rep.p, rep.u, rep.kappa_obs]]
    return {"report": rep,
            "passed": rep.cardinality_ok and rep.separation_ok}


def _run_two_sided(config, par, T, proc, tables, workers):
    rep = verify.two_sided_experiment(
        proc, T, par["samples"], RngStream(par["seed"], 0),
        mode=par["mode"], workers=workers)
    passed = rep.degenerate or rep.ratio_upper <= par["threshold"]
    return {"report": rep, "threshold": par["threshold"], "passed": passed}


def _run_weak_strong(config, par, T, proc, tables, workers):
    rep = verify.weak_strong_experiment(
        proc, T, par["p"], par["samples"], RngStream(par["seed"], 0),
        workers=workers)
    return {"report": rep, "threshold": par["threshold"],
            "passed": rep["C_obs"] <= par["threshold"]}


def _run_compare(config, par, T, proc, tables, workers):
    proc_y = build_process(config["process_y"], T.dimension)
    rep = verify.comparison_experiment(
        proc, proc_y, T, par["p_grid"], par["samples"],
        RngStream(par["seed"], 0), workers=workers)
    tables["tail_curves"] = (
        [["quantile", "u", "c", "p_supY_ge_u", "p_supX_ge_u_over_c", "ratio"]]
        + [[c["quantile"], c["u"], c["c"], c["p_supY_ge_u"],
            c["p_supX_ge_u_over_c"], c["ratio"]] for c in rep["tail_curves"]])
    return {"report": rep, "passed": True}


def _run_tails(config, par, T, proc, tables, workers):
    alpha = par["alpha"]
    model = proc.models[0]
    consts = tailkit.regularity_constants(alpha)
    M = tailkit.log_concave_envelope(model, alpha)
    ts = np.geomspace(consts.T_alpha, 100.0 * consts.T_alpha, 256)
    N = np.asarray(model.tail_value(ts))
    Mv = np.asarray(M(ts))
    Ms = np.asarray(M(consts.L_alpha * ts))
    finite = np.isfinite(N)
    slack = 1e-8 * np.maximum(np.where(finite, N, 0.0), 1.0)
    lower_ok = bool(np.all(Mv[finite] <= N[finite] + slack[finite]))
    upper_ok = bool(np.all(N[finite] <= Ms[finite] + slack[finite]))
    tables["tail_sandwich"] = (
        [["t", "N", "M", "M_shifted"]]
        + [[float(t), float(n), float(mv), float(ms)]
           for t, n, mv, ms in zip(ts, N, Mv, Ms)])
    return {"alpha": alpha, "constants": consts,
            "lower_ok": lower_ok, "upper_ok": upper_ok,
            "passed": lower_ok and upper_ok}


def _run_hull(config, par, T, proc, tables, workers):
    _, tree = gamma.compute_gamma(T, proc, "gammaX", mode=par["mode"],
                                  samples=par["samples"], seed=par["seed"])
    rep = verify.convex_hull_decomposition(T, tree, proc, samples=par["samples"],
                                           seed=par["seed"])
    passed = rep.max_residual <= 1e-9 and rep.max_norm_cap <= 1.0 + 1e-9
    return {"report": rep, "passed": passed}


REQUIRED = object()  # marks a param that the config must give

# sampled experiments draw from an explicit seed; the searches default to 0
_SAMPLED = {"samples": metric.MC_DEFAULT_SAMPLES, "seed": REQUIRED}
_SEARCH = {"mode": "greedy", "samples": metric.MC_DEFAULT_SAMPLES, "seed": 0}

# experiment -> (runner, {every param the runner reads: default or REQUIRED})
EXPERIMENT_TABLE = {
    "gamma": (_run_gamma, {"functional": "gammaX", **_SEARCH}),
    "supremum": (_run_supremum, {"target": "sup_increments", **_SAMPLED}),
    "sudakov": (_run_sudakov, {"p": REQUIRED, "u": REQUIRED, **_SAMPLED}),
    "two-sided": (_run_two_sided, {
        "mode": "greedy", "threshold": verify.UPPER_BOUND_POLICY_CONSTANT, **_SAMPLED}),
    "weak-strong": (_run_weak_strong, {"p": REQUIRED, "threshold": 4.0, **_SAMPLED}),
    "compare": (_run_compare, {"p_grid": [2.0, 4.0], **_SAMPLED}),
    "tails": (_run_tails, {"alpha": 1.0}),
    "hull": (_run_hull, _SEARCH),
}

EXPERIMENTS = tuple(EXPERIMENT_TABLE)


def _experiment_rule(name: str, params: dict) -> dict:
    """params holds every REQUIRED param and no unread one; only compare takes process_y."""
    return _when("experiment", name, {
        "properties": {
            "params": {"properties": {k: _PARAM_SCHEMAS[k] for k in params},
                       "required": [k for k, v in params.items() if v is REQUIRED],
                       "additionalProperties": False},
            "process_y": True if name == "compare" else {"not": {}}},
        "required": ["process_y"] if name == "compare" else []})


CONFIG_SCHEMA = {
    "definitions": {"index_set": INDEX_SET_SCHEMA},
    "type": "object",
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "process": _PROCESS_SCHEMA,
        "process_y": _PROCESS_SCHEMA,
        "index_set": {"$ref": "#/definitions/index_set"},
        "params": {"type": "object"},
    },
    "required": ["experiment"],
    "additionalProperties": False,
    "allOf": [_experiment_rule(name, params)
              for name, (_, params) in EXPERIMENT_TABLE.items()],
}

# JSON Schema (draft 2020-12) type checks: bools are not numbers, and an
# integral float is an integer
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
    "integer": lambda x: ((isinstance(x, int) and not isinstance(x, bool))
                          or (isinstance(x, float) and x.is_integer())),
}

# every keyword _schema_errors reads; "then" and "else" are read by "if"
_SCHEMA_KEYWORDS = frozenset([
    "definitions", "$ref", "type", "enum", "const", "minimum", "exclusiveMinimum",
    "minItems", "required", "properties", "additionalProperties", "items",
    "if", "then", "else", "allOf", "not"])


def _schema_errors(x, schema, path=()):
    """Yield (path, message, type_miss) for each error that jsonschema's
    draft 2020-12 validator reports for `x` against `schema`, in its order
    and with its wording; `type_miss` is its `not error._matches_type()`.

    Only the keywords in _SCHEMA_KEYWORDS are read, `additionalProperties`
    only as false, enums and consts hold strings, and a `$ref` is a JSON
    pointer into CONFIG_SCHEMA.
    """
    if schema is True:
        return
    miss = "type" not in schema or not _TYPES[schema["type"]](x)
    for key, v in schema.items():
        if key == "$ref":
            target = CONFIG_SCHEMA
            for part in v.removeprefix("#/").split("/"):
                target = target[part]
            yield from _schema_errors(x, target, path)
        elif key == "allOf":
            for sub in v:
                yield from _schema_errors(x, sub, path)
        elif key == "if":
            branch = "then" if _schema_valid(x, v) else "else"
            yield from _schema_errors(x, schema.get(branch, True), path)
        elif key == "properties" and isinstance(x, dict):
            for name, sub in v.items():
                if name in x:
                    yield from _schema_errors(x[name], sub, (*path, name))
        elif key == "items" and isinstance(x, list):
            for i, item in enumerate(x):
                yield from _schema_errors(item, v, (*path, i))
        else:
            for message in _keyword_messages(key, v, x, schema):
                yield path, message, miss


def _keyword_messages(key, v, x, schema):
    """jsonschema's message for each way `x` fails the leaf keyword `key: v`."""
    is_num = _TYPES["number"](x)
    if key == "type" and not _TYPES[v](x):
        yield f"{x!r} is not of type {v!r}"
    elif key == "enum" and x not in v:
        yield f"{x!r} is not one of {v!r}"
    elif key == "const" and x != v:
        yield f"{v!r} was expected"
    elif key == "minimum" and is_num and x < v:
        yield f"{x!r} is less than the minimum of {v!r}"
    elif key == "exclusiveMinimum" and is_num and x <= v:
        yield f"{x!r} is less than or equal to the minimum of {v!r}"
    elif key == "minItems" and isinstance(x, list) and len(x) < v:
        yield f"{x!r} {'should be non-empty' if v == 1 else 'is too short'}"
    elif key == "not" and _schema_valid(x, v):
        yield f"{x!r} should not be valid under {v!r}"
    elif key == "required" and isinstance(x, dict):
        yield from (f"{name!r} is a required property" for name in v if name not in x)
    elif key == "additionalProperties" and isinstance(x, dict):
        extras = sorted({k for k in x if k not in schema.get("properties", {})}, key=str)
        if extras:
            yield (f"Additional properties are not allowed "
                   f"({', '.join(map(repr, extras))} {'was' if len(extras) == 1 else 'were'}"
                   f" unexpected)")


def _schema_valid(x, schema) -> bool:
    return next(_schema_errors(x, schema), None) is None


def validate_config(config: dict) -> None:
    """Raise ConfigError naming the error that jsonschema's best_match picks:
    the shallowest, then the greatest path, then one whose schema's type
    the value misses, then the first."""
    # checked with empty params if it has none, so the error names a missing param
    errors = list(_schema_errors({"params": {}, **config}, CONFIG_SCHEMA))
    if errors:
        path, message, _ = max(errors, key=lambda e: (-len(e[0]), e[0], e[2]))
        where = "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)
        raise ConfigError(f"config invalid at {where}: {message}")


def run(config: dict, workers: int = 1) -> dict:
    """Execute one experiment config; returns the report document.

    `workers` parallelizes Monte-Carlo chunk evaluation only; the report
    bytes are identical for every worker count, so it is an execution
    parameter and deliberately not part of the config or its hash.
    """
    validate_config(config)
    T = build_index_set(config.get("index_set", {"type": "basis", "n": 1}))
    proc = build_process(config.get("process", {"family": "gaussian"}), T.dimension)
    runner, defaults = EXPERIMENT_TABLE[config["experiment"]]
    # a new dict, since the report embeds and hashes `config` as given; the
    # schema made the config give every REQUIRED param
    par = {**defaults, **config.get("params", {})}
    tables: dict = {}
    result = runner(config, par, T, proc, tables, workers)
    report = {
        "tool_version": VERSION,
        "config": config,
        "config_hash": config_hash(config),
        "experiment": config["experiment"],
        "index_set_size": len(T),
        "dimension": T.dimension,
        "default_p_grid": list(dist.DEFAULT_P_GRID),
        "result": _to_jsonable(result),
        "passed": bool(result["passed"]),
    }
    report["_tables"] = tables  # stripped before serialization
    return report


def write_report(report: dict, out_dir: Path) -> Path:
    """Write report.json, and one CSV per table with 17-significant-digit values."""
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = report.pop("_tables", {})
    path = out_dir / "report.json"
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    report["_tables"] = tables
    for name, rows in tables.items():
        with open(out_dir / f"{name}.csv", "w") as fh:
            for row in rows:
                fh.write(",".join(
                    f"{v:.17g}" if isinstance(v, (int, float)) and not isinstance(v, bool)
                    else str(v)
                    for v in row) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chainsup",
        description="chaining-functional and canonical-process experiments")
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--mode", choices=["exact", "greedy"], default=None)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    if not isinstance(config, dict):
        print("error: config invalid at $: not a JSON object", file=sys.stderr)
        return 1
    config["experiment"] = args.experiment
    for key in ("samples", "seed", "mode"):
        val = getattr(args, key)
        if val is not None:
            config.setdefault("params", {})[key] = val

    try:
        report = run(config, workers=max(1, args.workers))
    except (ValueError, RuntimeError, MemoryError, ArithmeticError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1

    out_dir = args.out or Path.cwd()
    path = write_report(report, out_dir)
    status = "pass" if report["passed"] else "FAIL"
    print(f"{config['experiment']}: {status} (report: {path})")
    return 0 if report["passed"] else 2


if __name__ == "__main__":
    sys.exit(main())
