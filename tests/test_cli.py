import json
import math

import numpy as np
import pytest

from chainsup import cli


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


class TestIndexSetBuilders:
    def test_explicit(self):
        T = cli.build_index_set({"type": "explicit", "points": [[1, 0], [0, 1]]})
        assert len(T) == 2 and T.dimension == 2

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


class TestEndToEnd:
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
        assert report["tool_version"] == cli.VERSION

    def test_fail_exit_two(self, tmp_path, run_cli):
        cfg = self._write_config(tmp_path, {
            "process": {"family": "gaussian"},
            "index_set": {"type": "basis", "n": 3},
            "params": {"seed": 1, "p": 4.0, "u": 1.0, "samples": 1_000},
        })
        r = run_cli(["sudakov", "--config", str(cfg), "--out",
                     str(tmp_path / "o")], tmp_path)
        assert r.returncode == 2

    def test_invalid_config_exit_one(self, tmp_path, run_cli):
        cfg = self._write_config(tmp_path, {"process": {"family": "nope"}})
        r = run_cli(["gamma", "--config", str(cfg)], tmp_path)
        assert r.returncode == 1
        assert r.stderr.startswith("error: config invalid at $.process.family"), \
            r.stderr

    @pytest.mark.parametrize("exc", [RuntimeError("failed to bracket the root"),
                                     MemoryError()])
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
