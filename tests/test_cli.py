import copy
import dataclasses
import json
import math
import re

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from jsonschema.validators import validator_for

import chainsup
from chainsup import cli, dist, gamma, metric
from chainsup.metric import IndexSet, ProcessSpec


def test_to_jsonable_keeps_plain_scalars_and_converts_the_rest():
    @dataclasses.dataclass
    class Row:
        flag: bool
        at: tuple

    out = cli._to_jsonable({1: True, "i": np.int64(3), "f": np.float64(0.5), "n": None,
                            "bad": [math.inf, -np.inf, math.nan], "row": Row(False, (2, "x")),
                            "a": np.arange(2)})
    assert out == {"1": True, "i": 3, "f": 0.5, "n": None, "bad": ["inf", "-inf", "nan"],
                   "row": {"flag": False, "at": [2, "x"]}, "a": [0, 1]}
    assert out["1"] is True and out["row"]["flag"] is False
    assert type(out["i"]) is int and type(out["a"][1]) is int
    _, tree = gamma.compute_gamma(IndexSet(np.eye(3)), ProcessSpec.homogeneous(dist.gaussian(), 3),
                                  "gammaX", mode="greedy")
    assert cli._to_jsonable(tree) == cli._to_jsonable(tree.levels)
    json.dumps(cli._to_jsonable(tree), allow_nan=False)


class TestValidation:
    def test_minimal_gamma_config(self):
        cli.validate_config({"experiment": "gamma",
                             "index_set": {"type": "basis", "n": 4}})

    def test_unknown_experiment(self):
        with pytest.raises(cli.ConfigError):
            cli.validate_config({"experiment": "magic"})

    def test_unknown_family(self):
        with pytest.raises(cli.ConfigError):
            cli.validate_config({"experiment": "gamma",
                                 "process": {"family": "cauchy"}})

    def test_sampled_experiment_requires_seed(self):
        with pytest.raises(cli.ConfigError, match="seed"):
            cli.validate_config({"experiment": "supremum",
                                 "index_set": {"type": "basis", "n": 2}})

    def test_extra_keys_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.validate_config({"experiment": "gamma", "bogus": 1})

    def test_error_mentions_path(self):
        with pytest.raises(cli.ConfigError, match=r"\$\.params"):
            cli.validate_config({"experiment": "gamma",
                                 "params": {"samples": 1}})

    def test_config_schema_is_valid(self):
        validator_for(cli.CONFIG_SCHEMA).check_schema(cli.CONFIG_SCHEMA)

    @pytest.mark.parametrize("config", [
        {"experiment": "gamma", "process": {"family": "cauchy"}},
        {"experiment": "gamma", "bogus": 1},
        {"experiment": "gamma", "params": {"mode": "fast"}},
        {"experiment": "gamma",
         "index_set": {"type": "interleave_of", "inner": {"type": "grid"}}},
        {"experiment": "gamma", "params": {"samples": 99}},
        {"experiment": "magic"},
    ])
    def test_same_message_as_jsonschema_validate(self, config):
        with pytest.raises(jsonschema.ValidationError) as ref:
            jsonschema.validate(config, cli.CONFIG_SCHEMA)
        with pytest.raises(cli.ConfigError) as got:
            cli.validate_config(config)
        assert str(got.value) == (
            f"config invalid at {ref.value.json_path}: {ref.value.message}")

    def test_interpreter_reads_every_keyword_of_the_schema(self):
        # validate_config reads only the keywords in _SCHEMA_KEYWORDS, so a
        # schema edit that adds any other must extend the interpreter first
        def walk(schema, where):
            if schema is True:
                return
            assert isinstance(schema, dict), where
            assert set(schema) <= cli._SCHEMA_KEYWORDS, (where, set(schema))
            for key, v in schema.items():
                if key in ("properties", "definitions"):
                    for name, sub in v.items():
                        # jsonschema's json_path writes other property names
                        # as ['name'], validate_config always as .name
                        assert key != "properties" or re.fullmatch(
                            r"[a-zA-Z][a-zA-Z0-9_]*", name), (where, name)
                        walk(sub, f"{where}/{key}/{name}")
                elif key == "allOf":
                    for i, sub in enumerate(v):
                        walk(sub, f"{where}/allOf/{i}")
                elif key in ("items", "if", "then", "else", "not"):
                    walk(v, f"{where}/{key}")
                elif key == "additionalProperties":
                    assert v is False, where
                elif key in ("enum", "const"):
                    assert all(isinstance(e, str) for e in (v if key == "enum" else [v])), where
                elif key == "type":
                    assert v in cli._TYPES, where
                elif key == "$ref":
                    assert v.startswith("#/definitions/"), where

        walk(cli.CONFIG_SCHEMA, "#")


# valid configs that between them reach every branch of CONFIG_SCHEMA:
# every experiment, family, index-set type and param
_VALID_CONFIGS = [
    {"experiment": "gamma", "process": {"family": "sym_weibull", "shape": 1.5},
     "index_set": {"type": "sphere_random", "count": 4, "n": 3, "seed": 0},
     "params": {"mode": "exact", "functional": "gamma2", "samples": 1000, "seed": 1}},
    {"experiment": "two-sided",
     "process": [{"family": "three_point", "a": 3.0}, {"family": "rademacher"}],
     "index_set": {"type": "interleave_of", "include_origin": True,
                   "inner": {"type": "interleave_of",
                             "inner": {"type": "explicit", "points": [[1.0, 0], [0, 1]]}}},
     "params": {"mode": "greedy", "threshold": 3.0, "samples": 100, "seed": 2}},
    {"experiment": "compare", "process": {"family": "sym_exponential"},
     "process_y": [{"family": "gaussian"}, {"family": "sym_weibull", "shape": 2}],
     "index_set": {"type": "packing", "m": 2, "n": 3},
     "params": {"p_grid": [2.0, 4], "seed": 3}},
    {"experiment": "sudakov", "index_set": {"type": "basis", "n": 3},
     "params": {"p": 4.0, "u": 1.5, "samples": 100, "seed": 0}},
    {"experiment": "weak-strong", "params": {"p": 2, "threshold": 4.0, "seed": 0}},
    {"experiment": "supremum", "process": {"family": "rademacher"},
     "params": {"target": "sup_abs", "seed": 0}},
    {"experiment": "tails", "process": {"family": "three_point", "a": 1.5},
     "params": {"alpha": 2.0}},
    {"experiment": "hull", "index_set": {"type": "basis", "n": 2, "include_origin": False}},
]

# replacement values: wrong types, bools, integral floats, out-of-range
# numbers, unknown names and nested sets and process lists
_JUNK = [None, True, False, 0, 1, -1, 0.0, 0.5, 2.0, 99.0, 100, -2.5, 1e300, "",
         "gamma", "basis", "gaussian", "greedy", "sup_abs", [], [1.0], [[1.0], [2]],
         [{}], [{"family": "gaussian"}, {"family": "three_point"}], {},
         {"type": "basis"}, {"type": "basis", "n": 2.0}, {"family": "sym_weibull"},
         {"type": "interleave_of", "inner": {"type": "packing", "m": 1}}]
_KEYS = ["bogus", "experiment", "process", "process_y", "index_set", "params", "type",
         "inner", "points", "n", "m", "count", "seed", "include_origin", "family",
         "shape", "a", "p", "p_grid", "u", "alpha", "samples", "mode", "target"]

_REFERENCE = validator_for(cli.CONFIG_SCHEMA)(cli.CONFIG_SCHEMA)


def _nodes(x):
    """Every dict and list inside `x`, `x` included."""
    if isinstance(x, (dict, list)):
        yield x
        for v in (x.values() if isinstance(x, dict) else x):
            yield from _nodes(v)


@st.composite
def mutated_configs(draw):
    """A valid config after one to three edits: a value replaced, a key or
    item deleted, or a key or item added, anywhere in it."""
    config = copy.deepcopy(draw(st.sampled_from(_VALID_CONFIGS)))
    for _ in range(draw(st.integers(1, 3))):
        node = draw(st.sampled_from(list(_nodes(config))))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(["set", "delete", "add"])) if keys else "add"
        junk = copy.deepcopy(draw(st.sampled_from(_JUNK)))
        if op == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(_KEYS))] = junk
        elif op == "add":
            node.append(junk)
        elif op == "delete":
            del node[draw(st.sampled_from(keys))]
        else:
            node[draw(st.sampled_from(keys))] = junk
    return config


def _reference_messages(config) -> list:
    """validate_config's message for each error jsonschema reports."""
    return [f"config invalid at {e.json_path}: {e.message}"
            for e in _REFERENCE.iter_errors({"params": {}, **config})]


def _message(config):
    try:
        cli.validate_config(config)
    except cli.ConfigError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("config", _VALID_CONFIGS, ids=lambda c: c["experiment"])
def test_unmutated_configs_are_valid(config):
    cli.validate_config(config)
    assert not _reference_messages(config)


# draft 2020-12 edges: bools are not numbers, integral floats are integers,
# and each bound's own wording
@pytest.mark.parametrize("config", [
    {"experiment": "sudakov", "params": {"p": True, "u": 1.0, "seed": 1}},
    {"experiment": "gamma", "params": {"seed": False}},
    {"experiment": "gamma", "index_set": {"type": "basis", "n": 2.0}},
    {"experiment": "gamma", "index_set": {"type": "basis", "n": 2.5}},
    {"experiment": "gamma", "index_set": {"type": "basis", "n": 0.0}},
    {"experiment": "gamma", "index_set": {"type": "explicit", "points": [[1, True]]}},
    {"experiment": "gamma", "params": {"samples": 100.0, "seed": -3.0}},
    {"experiment": "tails", "process": {"family": "sym_weibull", "shape": 0}},
    {"experiment": "tails", "process": {"family": "three_point", "a": 1.0}},
    {"experiment": "sudakov", "params": {"p": 0.5, "u": 1.0, "seed": 1}},
    {"experiment": "sudakov", "params": {"p": 2, "u": 0, "seed": 1}},
    {"experiment": "tails", "index_set": {"type": "basis", "n": 1, "include_origin": 1}},
    {"experiment": "gamma", "process": [{"family": "gaussian"}, {"family": "three_point"}]},
], ids=str)
def test_edge_configs_get_jsonschemas_verdict_and_message(config):
    expected = _reference_messages(config)
    assert len(expected) <= 1
    assert _message(config) == (expected[0] if expected else None)


@given(config=mutated_configs())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_validate_config_accepts_what_jsonschema_accepts(config):
    assert (_message(config) is None) == (not _reference_messages(config))


@given(config=mutated_configs())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_validate_config_message_is_the_best_match(config):
    # the message of the error that jsonschema's best_match picks, on
    # configs with one error and with several
    best = jsonschema.exceptions.best_match(_REFERENCE.iter_errors({"params": {}, **config}))
    expected = None if best is None else f"config invalid at {best.json_path}: {best.message}"
    assert _message(config) == expected


class TestIndexSetBuilders:
    def test_explicit(self):
        T = cli.build_index_set({"type": "explicit", "points": [[1, 0], [0, 1]]})
        assert len(T) == 2 and T.dimension == 2

    def test_explicit_with_origin(self):
        T = cli.build_index_set({"type": "explicit", "points": [[1, 0], [0, 1]],
                                 "include_origin": True})
        assert len(T) == 3
        assert np.allclose(T.points[0], 0.0)

    def test_basis_with_origin(self):
        T = cli.build_index_set({"type": "basis", "n": 3, "include_origin": True})
        assert len(T) == 4
        assert np.allclose(T.points[0], 0.0)

    def test_packing(self):
        T = cli.build_index_set({"type": "packing", "m": 2, "n": 5})
        assert len(T) == 10

    def test_sphere_random_deterministic(self):
        spec = {"type": "sphere_random", "count": 7, "n": 3, "seed": 5}
        a = cli.build_index_set(spec)
        b = cli.build_index_set(spec)
        assert np.array_equal(a.points, b.points)
        assert np.allclose(np.linalg.norm(a.points, axis=1), 1.0)

    def test_interleave_of(self):
        T = cli.build_index_set({"type": "interleave_of",
                                 "inner": {"type": "basis", "n": 2}})
        assert len(T) == 4 and T.dimension == 4


class TestBuildProcess:
    def test_homogeneous(self):
        proc = cli.build_process({"family": "rademacher"}, 3)
        assert proc.dimension == 3 and proc.family == "rademacher"

    def test_per_coordinate(self):
        proc = cli.build_process([{"family": "gaussian"},
                                  {"family": "sym_weibull", "shape": 1.5}], 2)
        assert proc.family is None

    def test_length_mismatch(self):
        with pytest.raises(cli.ConfigError):
            cli.build_process([{"family": "gaussian"}], 2)


class TestRun:
    def test_gamma_exact_two_point(self):
        report = cli.run({
            "experiment": "gamma",
            "process": {"family": "gaussian"},
            "index_set": {"type": "basis", "n": 1, "include_origin": True},
            "params": {"mode": "exact"},
        })
        assert report["passed"]
        assert report["result"]["value"] == pytest.approx(
            math.sqrt(2.0 / math.pi), rel=1e-9)
        assert report["config_hash"] == cli.config_hash(report["config"])

    def test_supremum(self):
        report = cli.run({
            "experiment": "supremum",
            "process": {"family": "rademacher"},
            "index_set": {"type": "basis", "n": 8},
            "params": {"seed": 3, "samples": 50_000},
        })
        est = report["result"]["estimate"]
        assert abs(est["mean"] - 2.0 * 254.0 / 256.0) <= 3 * est["stderr"]

    def test_two_sided_pass(self):
        report = cli.run({
            "experiment": "two-sided",
            "process": {"family": "gaussian"},
            "index_set": {"type": "sphere_random", "count": 6, "n": 3, "seed": 1},
            "params": {"seed": 2, "samples": 20_000},
        })
        assert report["passed"]
        assert report["result"]["report"]["gamma_exact"] is not None

    def test_sudakov_cardinality_failure(self):
        report = cli.run({
            "experiment": "sudakov",
            "process": {"family": "gaussian"},
            "index_set": {"type": "basis", "n": 4},
            "params": {"seed": 1, "p": 4.0, "u": 1.0, "samples": 1_000},
        })
        assert not report["passed"]

    def test_tails_tables(self):
        report = cli.run({
            "experiment": "tails",
            "process": {"family": "sym_exponential"},
            "index_set": {"type": "basis", "n": 1},
            "params": {"alpha": 1.0},
        })
        assert report["passed"]
        rows = report["_tables"]["tail_sandwich"]
        assert rows[0] == [["t", "N", "M", "M_shifted"]][0]
        assert len(rows) == 257

    def test_hull(self):
        report = cli.run({
            "experiment": "hull",
            "process": {"family": "gaussian"},
            "index_set": {"type": "sphere_random", "count": 8, "n": 3, "seed": 4},
        })
        assert report["passed"]
        assert report["result"]["report"]["max_residual"] <= 1e-9

    def test_hull_repeated_points(self):
        report = cli.run({
            "experiment": "hull",
            "process": {"family": "gaussian"},
            "index_set": {"type": "explicit", "points": [
                [0, 0], [0, 0], [1, 0], [0, 1], [1, 1], [2, 0]]},
            "params": {"mode": "exact"},
        })
        assert report["passed"]
        rep = report["result"]["report"]
        assert all(math.isfinite(cp["norm_cap"]) for cp in rep["chain_points"])
        assert rep["max_residual"] <= 1e-12

    @pytest.fixture
    def pair_norm_samples(self, monkeypatch):
        """The sample count of every metric.distance_matrix call, in order."""
        seen = []
        pair_norms = metric.distance_matrix

        def spy(proc, T, p, samples=metric.MC_DEFAULT_SAMPLES, seed=0, blocks=None):
            seen.append(samples)
            return pair_norms(proc, T, p, samples, seed, blocks)

        monkeypatch.setattr(metric, "distance_matrix", spy)
        return seen

    def test_hull_samples_reach_every_pair_norm_pass(self, pair_norm_samples):
        # the tree search and the decomposition both draw params.samples
        cli.run({
            "experiment": "hull",
            "process": {"family": "sym_exponential"},
            "index_set": {"type": "sphere_random", "count": 6, "n": 3, "seed": 4},
            "params": {"seed": 3, "samples": 1_000},
        })
        assert len(pair_norm_samples) > 1 and set(pair_norm_samples) == {1_000}

    def test_greedy_hull_makes_no_level_zero_pass(self, monkeypatch):
        # the hull reads the greedy tree alone; only the certificate's value,
        # which the hull does not report, reads d_1
        passes = []
        uncached = metric._uncached_pair_norms

        def spy(proc, pts, p, *args):
            passes.append(p)
            return uncached(proc, pts, p, *args)

        monkeypatch.setattr(metric, "_uncached_pair_norms", spy)
        report = cli.run({
            "experiment": "hull",
            "process": {"family": "sym_weibull", "shape": 1.5},
            "index_set": {"type": "sphere_random", "count": 16, "n": 8, "seed": 5},
            "params": {"mode": "greedy", "seed": 5, "samples": 2_000},
        })
        assert report["passed"]
        assert 2.0 in passes and 1.0 not in passes

    def test_sudakov_samples_reach_the_separation_pass(self, pair_norm_samples):
        cli.run({
            "experiment": "sudakov",
            "process": {"family": "sym_exponential"},
            "index_set": {"type": "packing", "m": 2, "n": 6},
            "params": {"p": 4.0, "u": 1.0, "seed": 3, "samples": 1_000},
        })
        assert pair_norm_samples == [1_000]

    def test_weak_strong_samples_reach_every_increment_norm(self, pair_norm_samples):
        cli.run({
            "experiment": "weak-strong",
            "process": {"family": "sym_exponential"},
            "index_set": {"type": "basis", "n": 3},
            "params": {"p": 4.0, "seed": 3, "samples": 1_000},
        })
        assert pair_norm_samples == [1_000] * 3


def _minimal(experiment):
    """The smallest valid config of `experiment`: only what it must give."""
    given = {"p": 4.0, "u": 1.0, "seed": 1}
    params = cli.EXPERIMENT_TABLE[experiment][1]
    config = {"experiment": experiment, "process": {"family": "gaussian"},
              "index_set": {"type": "basis", "n": 2},
              "params": {k: given[k] for k, v in params.items() if v is cli.REQUIRED}}
    if experiment == "compare":
        config["process_y"] = {"family": "gaussian"}
    return config


# every param each experiment reads, with the default it had before the
# experiment table declared them
_DEFAULTS = {
    "gamma": {"mode": "greedy", "functional": "gammaX", "samples": 100_000, "seed": 0},
    "supremum": {"target": "sup_increments", "samples": 100_000},
    "sudakov": {"samples": 100_000},
    "two-sided": {"mode": "greedy", "threshold": 40.0, "samples": 100_000},
    "weak-strong": {"threshold": 4.0, "samples": 100_000},
    "compare": {"p_grid": [2.0, 4.0], "samples": 100_000},
    "tails": {"alpha": 1.0},
    "hull": {"mode": "greedy", "samples": 100_000, "seed": 0},
}


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_defaults_written_out_give_the_same_result(experiment):
    params = cli.EXPERIMENT_TABLE[experiment][1]
    defaults = {k: v for k, v in params.items() if v is not cli.REQUIRED}
    assert defaults == _DEFAULTS[experiment]
    config = _minimal(experiment)
    written = {**config, "params": {**defaults, **config["params"]}}
    assert cli.run(written)["result"] == cli.run(config)["result"]


def _without(experiment, param):
    config = _minimal(experiment)
    del config["params"][param]
    return config


def _with(experiment, **params):
    config = _minimal(experiment)
    config["params"].update(params)
    return config


def _index_set_without(spec, field):
    return {"index_set": {k: v for k, v in spec.items() if k != field}}


_INDEX_SETS = [{"type": "explicit", "points": [[1.0]]},
               {"type": "basis", "n": 1},
               {"type": "packing", "m": 1, "n": 1},
               {"type": "sphere_random", "count": 2, "n": 1, "seed": 0},
               {"type": "interleave_of", "inner": {"type": "basis", "n": 1}}]

# (experiment, config, extra argv, path of the error, field it names)
_BAD_CONFIGS = (
    [(e, _without(e, k), [], "$.params", k)
     for e, params in cli.EXPERIMENT_TABLE.items()
     for k, v in params[1].items() if v is cli.REQUIRED]
    + [("gamma", _with("gamma", beta=2.0), [], "$.params", "beta"),
       ("supremum", _minimal("supremum"), ["--mode", "exact"], "$.params", "mode"),
       ("tails", _with("tails", samples=1_000), [], "$.params", "samples"),
       ("tails", {"output": {"dir": "o"}}, [], "$", "output"),
       ("gamma", {"process_y": {"family": "gaussian"}}, [], "$.process_y", "process_y"),
       ("compare", {"params": {"seed": 1}}, [], "$", "process_y")]
    + [("tails", _index_set_without(spec, field), [], "$.index_set", field)
       for spec in _INDEX_SETS for field in spec if field != "type"]
    + [("tails", {"index_set": {"type": "interleave_of", "inner": {"type": "basis"}}},
        [], "$.index_set.inner", "n"),
       ("tails", {"process": {"family": "sym_weibull"}}, [], "$.process", "shape"),
       ("tails", {"process": {"family": "three_point"}}, [], "$.process", "a"),
       ("two-sided", {"process": [{"family": "three_point"}], "params": {"seed": 1}},
        [], "$.process[0]", "a"),
       ("compare", {"process_y": {"family": "three_point"}, "params": {"seed": 1}},
        [], "$.process_y", "a")])


class TestEndToEnd:
    @pytest.mark.parametrize("experiment, config, argv, path, field", _BAD_CONFIGS)
    def test_invalid_config_named_without_traceback(self, tmp_path, capsys, experiment,
                                                    config, argv, path, field):
        cfg = self._write_config(tmp_path, config)
        assert cli.main([experiment, "--config", str(cfg),
                         "--out", str(tmp_path / "o"), *argv]) == 1
        err = capsys.readouterr().err
        prefix = f"error: config invalid at {path}: "
        assert err.startswith(prefix) and err.count("\n") == 1, err
        assert f"'{field}'" in err or path.endswith(field), err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("p_grid, path, message", [
        ([], "$.params.p_grid", "should be non-empty"),
        ([0.5], "$.params.p_grid[0]", "less than the minimum of 1"),
    ], ids=["empty", "below_one"])
    def test_compare_p_grid_empty_or_below_one_rejected(self, tmp_path, capsys,
                                                        p_grid, path, message):
        # an empty grid checked no pair and passed; p = 0.5 stopped mid-run
        config = {"process_y": {"family": "gaussian"},
                  "params": {"seed": 1, "p_grid": p_grid}}
        cfg = self._write_config(tmp_path, config)
        assert cli.main(["compare", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: config invalid at {path}: ") and message in err, err
        assert not (tmp_path / "o").exists()

    def test_monte_carlo_overflow_exit_one(self, tmp_path, capsys):
        # Monte-Carlo d_127 of these two points overflows in the sum of
        # |d|^(2p): the error was NaN; now the run stops before writing a
        # report (at the even p = 128 the even moments give d_p exactly)
        pts = np.random.default_rng(3).standard_normal((2, 5)).tolist()
        cfg = self._write_config(tmp_path, {
            "process": {"family": "sym_exponential"},
            "index_set": {"type": "explicit", "points": pts},
            "params": {"seed": 0, "p": 127, "u": 1.0, "samples": 21_234},
        })
        assert cli.main(["sudakov", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Monte-Carlo d_p at p = 127 ") and \
            err.count("\n") == 1, err
        assert "sym_exponential" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_greedy_past_the_pass_limit_exit_one(self, tmp_path, capsys):
        # 10,000 sym_exponential points in R^16: the Monte-Carlo pass would
        # build 50 million pair differences (6.4 GB) and copy them for its
        # stream key; the run stops before it allocates them
        cfg = self._write_config(tmp_path, {
            "process": {"family": "sym_exponential"},
            "index_set": {"type": "sphere_random", "count": 10_000, "n": 16, "seed": 1},
            "params": {"mode": "greedy"},
        })
        assert cli.main(["gamma", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: monte_carlo pair norms of 10000 points in R^16 "
                              "under the sym_exponential process need about ") and \
            err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_overflowed_increment_exit_one(self, tmp_path, capsys):
        # 1e308 - (-1e308) overflows to inf, whose enumerated d_p was NaN:
        # the exact search passed on it and wrote "nan"; three_point's d_3,
        # which Sudakov reads, is enumerated too
        for experiment, process, params in (
                ("gamma", {"family": "rademacher"}, {"mode": "exact"}),
                ("sudakov", {"family": "three_point", "a": 3.0},
                 {"p": 3.0, "u": 1.0, "samples": 100, "seed": 1})):
            cfg = self._write_config(tmp_path, {
                "index_set": {"type": "explicit",
                              "points": [[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]]},
                "process": process,
                "params": params,
            })
            with np.errstate(over="ignore"):
                assert cli.main([experiment, "--config", str(cfg),
                                 "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert re.fullmatch(r"error: enumeration d_p at p = \S+ of an increment that is "
                                r"not finite\n", err), err
            assert not (tmp_path / "o").exists()

    def test_config_not_an_object_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("[]")
        assert cli.main(["gamma", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: config invalid at $: not a JSON object\n"

    @pytest.mark.parametrize("experiment, text, constant, message", [
        ("gamma", '{"index_set": {"type": "explicit", "points": [[NaN, 1.0], [0.0, 1.0], '
                  '[1.0, 0.0]]}, "params": {"mode": "greedy"}}',
         "NaN", "index set points must be finite"),
        ("supremum", '{"process": {"family": "rademacher"}, "index_set": {"type": '
                     '"explicit", "points": [[Infinity, 1.0], [0.0, 1.0]]}, '
                     '"params": {"seed": 1, "samples": 1000}}',
         "Infinity", "index set points must be finite"),
        ("supremum", '{"process": {"family": "three_point", "a": NaN}, "index_set": '
                     '{"type": "basis", "n": 2}, "params": {"seed": 1, "samples": 1000}}',
         "NaN", "three_point requires atom a > 1"),
        # json reads 1e309 as inf: ||g||_inf was NaN, and weak-strong passed
        # with exit 0 on a NaN constant
        ("weak-strong", '{"process": {"family": "gaussian"}, "index_set": {"type": '
                        '"basis", "n": 2}, "params": {"p": 1e309, "seed": 1, '
                        '"samples": 1000}}',
         "1e309", "p must be a finite number >= 1, got inf"),
        ("sudakov", '{"process": {"family": "gaussian"}, "index_set": {"type": '
                    '"basis", "n": 2}, "params": {"p": -1e309, "u": 1.0, "seed": 1, '
                    '"samples": 1000}}',
         "-1e309", "is less than the minimum"),
    ], ids=["greedy_nan_point", "infinite_point", "nan_three_point_atom",
            "overflowing_weak_strong_p", "overflowing_sudakov_p"])
    def test_non_finite_constant_exit_one(self, tmp_path, capsys, experiment, text,
                                          constant, message):
        # Python's json reads NaN and Infinity, and 1e309 as inf: a NaN
        # point crashed the greedy split with a traceback, and an infinite
        # point or a NaN atom passed with exit 0
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert cli.main([experiment, "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: cannot read config: {constant} is not a finite number\n"
        assert not (tmp_path / "o").exists()
        # a config handed over as a dict, as the bench does, is refused too
        config = json.loads(text)
        config["experiment"] = experiment
        with pytest.raises(ValueError, match=message):
            cli.run(config)

    def _write_config(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    def test_pass_exit_zero_and_report(self, tmp_path, run_cli):
        cfg = self._write_config(tmp_path, {
            "process": {"family": "rademacher"},
            "index_set": {"type": "basis", "n": 6},
            "params": {"seed": 9, "samples": 5_000},
        })
        out = tmp_path / "out"
        r = run_cli(["supremum", "--config", str(cfg), "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["passed"]
        assert report["experiment"] == "supremum"
        assert report["tool_version"] == chainsup.__version__

    def test_fail_exit_two(self, tmp_path, run_cli):
        cfg = self._write_config(tmp_path, {
            "process": {"family": "gaussian"},
            "index_set": {"type": "basis", "n": 3},
            "params": {"seed": 1, "p": 4.0, "u": 1.0, "samples": 1_000},
        })
        r = run_cli(["sudakov", "--config", str(cfg), "--out",
                     str(tmp_path / "o")], tmp_path)
        assert r.returncode == 2

    @pytest.mark.parametrize("process", [
        [{"family": "gaussian"}, {"family": "three_point", "a": 100}],
        [{"family": "three_point", "a": 100}, {"family": "gaussian"}],
    ], ids=["gaussian_first", "three_point_first"])
    def test_tails_mixed_laws_exit_one(self, tmp_path, capsys, process):
        # one verdict per law: neither order of two laws may pass or fail on
        # its first coordinate alone
        cfg = self._write_config(tmp_path, {
            "process": process, "index_set": {"type": "basis", "n": 2}})
        assert cli.main(["tails", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err == ('error: tails checks one coordinate law, but the process lists 2: '
                       '{"a": 100.0, "family": "three_point"}, {"family": "gaussian"}\n')
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("process", [
        {"family": "sym_weibull", "shape": 1.5},
        [{"family": "sym_weibull", "shape": 1.5}, {"family": "sym_weibull", "shape": 1.5}],
    ], ids=["dict", "equal_list"])
    def test_tails_one_law_passes(self, tmp_path, process):
        cfg = self._write_config(tmp_path, {
            "process": process, "index_set": {"type": "basis", "n": 2}})
        assert cli.main(["tails", "--config", str(cfg),
                         "--out", str(tmp_path / "o")]) == 0

    def test_sudakov_int_and_float_p_write_equal_results(self, tmp_path, run_cli):
        outs = []
        for p in (4, 4.0):
            out = tmp_path / repr(p)
            out.mkdir()
            cfg = self._write_config(out, {
                "process": {"family": "sym_exponential"},
                "index_set": {"type": "packing", "m": 2, "n": 6},
                "params": {"seed": 3, "p": p, "u": 1.0, "samples": 2_000},
            })
            r = run_cli(["sudakov", "--config", str(cfg), "--out", str(out)], tmp_path)
            assert r.returncode in (0, 2), r.stderr
            outs.append(out)
        reports = [json.loads((o / "report.json").read_text()) for o in outs]
        # the configs, and so their hashes, differ in the literal 4 against 4.0
        assert reports[0]["config_hash"] != reports[1]["config_hash"]
        for rep in reports:
            del rep["config"], rep["config_hash"]
        assert reports[0] == reports[1]
        assert (outs[0] / "kappa.csv").read_bytes() == (outs[1] / "kappa.csv").read_bytes()

    def test_sudakov_past_float_exp_exits_two(self, tmp_path, run_cli):
        # e^800 overflows a float; |T| = 4 < e^800 must fail, not crash
        cfg = self._write_config(tmp_path, {
            "process": {"family": "gaussian"},
            "index_set": {"type": "basis", "n": 4},
            "params": {"seed": 1, "p": 800, "u": 1.0, "samples": 1_000},
        })
        out = tmp_path / "o"
        r = run_cli(["sudakov", "--config", str(cfg), "--out", str(out)], tmp_path)
        assert r.returncode == 2, r.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["result"]["report"]["cardinality_ok"] is False

    def test_arithmetic_error_exit_one(self, tmp_path, run_cli):
        # a Weibull shape too small for its moments to fit a float
        cfg = self._write_config(tmp_path, {
            "process": {"family": "sym_weibull", "shape": 0.001},
            "index_set": {"type": "basis", "n": 1},
            "params": {"alpha": 1.0},
        })
        r = run_cli(["tails", "--config", str(cfg), "--out", str(tmp_path / "o")],
                    tmp_path)
        assert r.returncode == 1
        assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr, r.stderr

    def test_tiny_weibull_shape_named_in_the_error(self, tmp_path, run_cli):
        cfg = self._write_config(tmp_path, {
            "process": {"family": "sym_weibull", "shape": 0.001},
            "index_set": {"type": "basis", "n": 1},
            "params": {"alpha": 1.0},
        })
        r = run_cli(["tails", "--config", str(cfg), "--out", str(tmp_path / "o")],
                    tmp_path)
        assert r.returncode == 1
        assert r.stderr.strip() == (
            "error: sym_weibull shape 0.001 is out of range: it must be at least 0.012, "
            "below which the moments up to p = 128 overflow a float"), r.stderr

    def test_invalid_config_exit_one(self, tmp_path, run_cli):
        cfg = self._write_config(tmp_path, {"process": {"family": "nope"}})
        r = run_cli(["gamma", "--config", str(cfg)], tmp_path)
        assert r.returncode == 1
        assert r.stderr.startswith("error: config invalid at $.process.family"), \
            r.stderr

    @pytest.mark.parametrize("exc", [RuntimeError("failed to bracket the root"),
                                     MemoryError(), OverflowError("math range error")])
    def test_runtime_failure_exit_one(self, tmp_path, monkeypatch, capsys, exc):
        cfg = self._write_config(tmp_path, {"index_set": {"type": "basis", "n": 2}})

        def fail(config, workers=1):
            raise exc

        monkeypatch.setattr(cli, "run", fail)
        assert cli.main(["gamma", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(exc) in err

    def test_missing_config_exit_one(self, tmp_path, run_cli):
        r = run_cli(["gamma", "--config", str(tmp_path / "none.json")], tmp_path)
        assert r.returncode == 1
        assert r.stderr.startswith("error: cannot read config"), r.stderr

    def test_byte_identical_reports(self, tmp_path, run_cli):
        cfg = self._write_config(tmp_path, {
            "process": {"family": "sym_exponential"},
            "index_set": {"type": "sphere_random", "count": 5, "n": 3, "seed": 2},
            "params": {"seed": 11, "samples": 5_000},
        })
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            r = run_cli(["supremum", "--config", str(cfg), "--out", str(out)],
                        tmp_path)
            assert r.returncode == 0, r.stderr
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_cli_overrides_recorded(self, tmp_path, run_cli):
        cfg = self._write_config(tmp_path, {
            "process": {"family": "rademacher"},
            "index_set": {"type": "basis", "n": 4},
            "params": {"seed": 1},
        })
        out = tmp_path / "o"
        r = run_cli(["supremum", "--config", str(cfg), "--out", str(out),
                     "--samples", "6000", "--seed", "42"], tmp_path)
        assert r.returncode == 0, r.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["params"]["samples"] == 6000
        assert report["config"]["params"]["seed"] == 42
        assert report["result"]["estimate"]["seed"] == 42

    def test_csv_emitted(self, tmp_path, run_cli):
        cfg = self._write_config(tmp_path, {
            "process": {"family": "gaussian"},
            "index_set": {"type": "basis", "n": 1},
            "params": {"alpha": 1.0},
        })
        out = tmp_path / "o"
        r = run_cli(["tails", "--config", str(cfg), "--out", str(out)], tmp_path)
        assert r.returncode == 0, r.stderr
        csv = (out / "tail_sandwich.csv").read_text().strip().splitlines()
        assert csv[0] == "t,N,M,M_shifted"
        assert len(csv) == 257


@pytest.mark.parametrize("spec", [
    {"type": "grid", "n": 2},
    {"type": "interleave_of", "inner": {"type": "grid", "n": 2}},
], ids=["top", "nested"])
def test_build_index_set_refuses_an_unknown_type(spec):
    with pytest.raises(cli.ConfigError, match="^unknown index set type 'grid'$"):
        cli.build_index_set(spec)
