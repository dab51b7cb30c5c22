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
import sys
from pathlib import Path

import numpy as np
import jsonschema

from . import dist, gamma, metric, stochlab, tailkit, verify
from .metric import IndexSet, ProcessSpec
from .streams import RngStream

VERSION = "0.1.0"

EXPERIMENTS = ("gamma", "supremum", "sudakov", "two-sided",
               "weak-strong", "compare", "tails", "hull")

MODEL_SCHEMA = {
    "type": "object",
    "properties": {
        "family": {"enum": ["gaussian", "rademacher", "sym_exponential",
                            "sym_weibull", "three_point"]},
        "shape": {"type": "number", "exclusiveMinimum": 0},
        "a": {"type": "number", "exclusiveMinimum": 1},
    },
    "required": ["family"],
    "additionalProperties": False,
}

INDEX_SET_SCHEMA = {
    "type": "object",
    "properties": {
        "type": {"enum": ["explicit", "basis", "packing", "sphere_random",
                          "interleave_of"]},
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
}

CONFIG_SCHEMA = {
    "definitions": {"index_set": INDEX_SET_SCHEMA},
    "type": "object",
    "properties": {
        "experiment": {"enum": list(EXPERIMENTS)},
        "process": {
            "oneOf": [MODEL_SCHEMA, {"type": "array", "items": MODEL_SCHEMA}]
        },
        "process_y": {
            "oneOf": [MODEL_SCHEMA, {"type": "array", "items": MODEL_SCHEMA}]
        },
        "index_set": {"$ref": "#/definitions/index_set"},
        "params": {
            "type": "object",
            "properties": {
                "p": {"type": "number", "minimum": 1},
                "p_grid": {"type": "array", "items": {"type": "number"}},
                "u": {"type": "number", "exclusiveMinimum": 0},
                "alpha": {"type": "number", "minimum": 1},
                "beta": {"type": "number", "exclusiveMinimum": 1},
                "samples": {"type": "integer", "minimum": 100},
                "seed": {"type": "integer"},
                "mode": {"enum": ["exact", "greedy"]},
                "functional": {"enum": ["gamma2", "gammaX"]},
                "target": {"enum": list(stochlab.TARGETS)},
                "threshold": {"type": "number"},
            },
            "additionalProperties": False,
        },
        "output": {
            "type": "object",
            "properties": {"dir": {"type": "string"}},
            "additionalProperties": False,
        },
    },
    "required": ["experiment"],
    "additionalProperties": False,
}

_SAMPLED_EXPERIMENTS = {"supremum", "sudakov", "two-sided", "weak-strong", "compare"}


class ConfigError(ValueError):
    pass


# built once: jsonschema.validate would re-check the constant schema on every call
_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def validate_config(config: dict) -> None:
    exc = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(config))
    if exc is not None:
        raise ConfigError(f"config invalid at {exc.json_path}: {exc.message}") from exc
    if config["experiment"] in _SAMPLED_EXPERIMENTS:
        if "seed" not in config.get("params", {}):
            raise ConfigError("config invalid at $.params.seed: "
                              "sampled experiments require an explicit seed")


def build_index_set(spec: dict) -> IndexSet:
    kind = spec["type"]
    if kind == "explicit":
        return IndexSet(np.asarray(spec["points"], dtype=float))
    if kind == "basis":
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


# ----------------------------------------------------------------------
# experiment dispatch
# ----------------------------------------------------------------------

def _params(config):
    """The config's params with the sample budget and seed defaults filled
    in: a new dict, since the report embeds and hashes `config` as given."""
    return {"samples": metric.MC_DEFAULT_SAMPLES, "seed": 0, **config.get("params", {})}


def _run_gamma(config, T, proc, tables, workers=1):
    par = _params(config)
    mode = par.get("mode", "greedy")
    functional = par.get("functional", "gammaX")
    value, tree = gamma.compute_gamma(T, proc, functional, mode=mode,
                                      samples=par["samples"], seed=par["seed"])
    return {"functional": functional, "mode": mode, "value": value,
            "certificate": tree, "passed": True}


def _run_supremum(config, T, proc, tables, workers=1):
    par = _params(config)
    est = stochlab.estimate_sup(
        proc, T, par["samples"], RngStream(par["seed"], 0),
        target=par.get("target", "sup_increments"), workers=workers)
    return {"estimate": est, "passed": True}


def _run_sudakov(config, T, proc, tables, workers=1):
    par = _params(config)
    rep = verify.sudakov_experiment(
        proc, T, par["p"], par["u"], par["samples"], RngStream(par["seed"], 0),
        workers=workers)
    tables["kappa"] = [["p", "u", "kappa_obs"], [rep.p, rep.u, rep.kappa_obs]]
    return {"report": rep,
            "passed": rep.cardinality_ok and rep.separation_ok}


def _run_two_sided(config, T, proc, tables, workers=1):
    par = _params(config)
    rep = verify.two_sided_experiment(
        proc, T, par["samples"], RngStream(par["seed"], 0),
        mode=par.get("mode", "greedy"), workers=workers)
    threshold = par.get("threshold", verify.UPPER_BOUND_POLICY_CONSTANT)
    passed = rep.degenerate or rep.ratio_upper <= threshold
    return {"report": rep, "threshold": threshold, "passed": passed}


def _run_weak_strong(config, T, proc, tables, workers=1):
    par = _params(config)
    rep = verify.weak_strong_experiment(
        proc, T, par["p"], par["samples"], RngStream(par["seed"], 0),
        workers=workers)
    threshold = par.get("threshold", 4.0)
    return {"report": rep, "threshold": threshold,
            "passed": rep["C_obs"] <= threshold}


def _run_compare(config, T, proc, tables, workers=1):
    par = _params(config)
    proc_y = build_process(config["process_y"], T.dimension)
    rep = verify.comparison_experiment(
        proc, proc_y, T, par.get("p_grid", [2.0, 4.0]), par["samples"],
        RngStream(par["seed"], 0), workers=workers)
    tables["tail_curves"] = (
        [["quantile", "u", "c", "p_supY_ge_u", "p_supX_ge_u_over_c", "ratio"]]
        + [[c["quantile"], c["u"], c["c"], c["p_supY_ge_u"],
            c["p_supX_ge_u_over_c"], c["ratio"]] for c in rep["tail_curves"]])
    return {"report": rep, "passed": True}


def _run_tails(config, T, proc, tables, workers=1):
    par = _params(config)
    alpha = par.get("alpha", 1.0)
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


def _run_hull(config, T, proc, tables, workers=1):
    par = _params(config)
    _, tree = gamma.compute_gamma(T, proc, "gammaX", mode=par.get("mode", "greedy"),
                                  samples=par["samples"], seed=par["seed"])
    rep = verify.convex_hull_decomposition(T, tree, proc, samples=par["samples"],
                                           seed=par["seed"])
    passed = rep.max_residual <= 1e-9 and rep.max_norm_cap <= 1.0 + 1e-9
    return {"report": rep, "passed": passed}


_RUNNERS = {
    "gamma": _run_gamma,
    "supremum": _run_supremum,
    "sudakov": _run_sudakov,
    "two-sided": _run_two_sided,
    "weak-strong": _run_weak_strong,
    "compare": _run_compare,
    "tails": _run_tails,
    "hull": _run_hull,
}


def run(config: dict, workers: int = 1) -> dict:
    """Execute one experiment config; returns the report document.

    `workers` parallelizes Monte-Carlo chunk evaluation only; the report
    bytes are identical for every worker count, so it is an execution
    parameter and deliberately not part of the config or its hash.
    """
    validate_config(config)
    T = build_index_set(config.get("index_set", {"type": "basis", "n": 1}))
    proc = build_process(config.get("process", {"family": "gaussian"}), T.dimension)
    tables: dict = {}
    result = _RUNNERS[config["experiment"]](config, T, proc, tables, workers=workers)
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


def emit_tables(report: dict, out_dir: Path) -> list:
    """One CSV per curve/table; 17-significant-digit values."""
    written = []
    for name, rows in report.get("_tables", {}).items():
        path = out_dir / f"{name}.csv"
        with open(path, "w") as fh:
            for row in rows:
                fh.write(",".join(
                    f"{v:.17g}" if isinstance(v, (int, float)) and not isinstance(v, bool)
                    else str(v)
                    for v in row) + "\n")
        written.append(path)
    return written


def write_report(report: dict, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    tables = report.pop("_tables", {})
    path = out_dir / "report.json"
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    report["_tables"] = tables
    emit_tables(report, out_dir)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chainsup",
        description="chaining-functional and canonical-process experiments")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, type=Path)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--mode", choices=["exact", "greedy"], default=None)
        p.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    config["experiment"] = args.experiment
    for key in ("samples", "seed", "mode"):
        val = getattr(args, key)
        if val is not None:
            config.setdefault("params", {})[key] = val

    try:
        report = run(config, workers=max(1, args.workers))
    except (jsonschema.ValidationError, ValueError, RuntimeError, MemoryError,
            ArithmeticError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1

    out_dir = args.out or Path.cwd()
    path = write_report(report, out_dir)
    status = "pass" if report["passed"] else "FAIL"
    print(f"{config['experiment']}: {status} (report: {path})")
    return 0 if report["passed"] else 2


if __name__ == "__main__":
    sys.exit(main())
