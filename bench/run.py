"""chainsup benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run repeats passes over the
workload's config list until `--seconds` have elapsed (at least
MIN_PASSES).  Each pass is a fresh worker process with one BLAS thread,
so set-up time and peak RSS belong to that pass.  Before each pass,
PROBES_PER_PASS workers only import chainsup and build the configs, so
set-up time is sampled all through the run.  With ``--trace 0`` every
pass is untraced and the end-to-end metrics are medians over passes
(``setup_s`` over probes and passes).  With ``--trace 1`` passes alternate
untraced and traced; the per-layer metrics are medians over the traced
passes and ``trace.overhead_s`` is the traced minus the untraced median
wall time.

The last line of standard output is the result JSON.  Pass details, the
failures and ``src_loc`` (lines under src/chainsup, informational) go to
``.bench_out/<workload>/result.json``.  Exit code 1, without a result,
means the checkout lacks the chainsup source or a reference.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 3
MIN_TRACED_PASSES = 4        # two untraced, two traced
PROBES_PER_PASS = 2          # set-up-only workers before each pass
DEADLINE_S = 165.0           # start no pass that would end past this


def _worker_env() -> dict:
    # One BLAS thread: no slower than two on these matrix shapes, and far
    # less sensitive to other load on the machine.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, flags: list, out_dir: Path, timeout: float):
    """Run one worker; returns its result dict, or None when it failed."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--out", str(out_dir), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: pass exceeded {timeout:.0f} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_loc() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src" / "chainsup").rglob("*.py")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chainsup" / "__init__.py").is_file():
        print(f"error: no chainsup source under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if not (BENCH / "reference" / f"{args.workload}.json").is_file():
        print(f"error: no reference for workload {args.workload}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    min_passes = MIN_TRACED_PASSES if args.trace else MIN_PASSES
    start = time.monotonic()
    passes, broken = [], False
    while not broken:
        elapsed = time.monotonic() - start
        longest = max((p["pass_s"] for p in passes), default=0.0)
        if passes and (elapsed + longest > DEADLINE_S
                       or (elapsed >= args.seconds and len(passes) >= min_passes)):
            break
        t = time.monotonic()
        probes = [run_worker(args, ["--setup-only"], out_dir, 60.0)
                  for _ in range(PROBES_PER_PASS)]
        if None in probes:
            broken = True
            break
        trace_pass = bool(args.trace) and len(passes) % 2 == 1
        result = run_worker(args, ["--trace"] if trace_pass else [], out_dir,
                            DEADLINE_S + 10.0 - elapsed)
        if result is None:
            broken = True
            break
        result["pass_s"] = time.monotonic() - t
        result["probe_setup_s"] = [p["setup_s"] for p in probes]
        passes.append(result)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    failures = [f for p in passes for f in p["failures"]]
    failures += [f"span {name} never fired" for p in traced for name in p["missing_spans"]]
    n_configs = len(workloads.build(args.workload, args.seed))
    attempted = sum(p["attempted"] for p in passes) + broken * n_configs
    failed = sum(p["failed"] for p in passes) + broken * n_configs
    correct = not failures and not broken and bool(untraced) and (
        not args.trace or bool(traced))

    def median(key, rows):
        return statistics.median(p[key] for p in rows) if rows else 0.0

    values = {}
    if args.trace:
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace.overhead_s":
                values[name] = median("wall_s", traced) - median("wall_s", untraced)
            else:
                values[name] = median(name, [p["layers"] for p in traced])
        metric_specs = spec["per_layer"]
    else:
        setups = [s for p in passes for s in p["probe_setup_s"] + [p["setup_s"]]]
        values = {"wall_s": median("wall_s", untraced),
                  "setup_s": statistics.median(setups) if setups else 0.0,
                  "peak_rss_mb": median("peak_rss_mb", untraced)}
        metric_specs = spec["end_to_end"]

    with open(out_dir / "result.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "variant": workloads.variant_of(args.seed), "src_loc": src_loc(),
                   "passes": passes, "failures": failures},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
