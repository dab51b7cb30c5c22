"""Print every benchmark metric by name, with its unit and a verdict.

    python3 bench/report.py [--workload NAME ...] [--runs N] [--seed N] [--trace]

Runs ``bench/run.py`` N times per workload (seeds N0, N0+1, ...), then
prints per metric the median, the quartile spread as a share of the
median, and a verdict.  The correctness line passes when every run was
correct and no config failed.  An end-to-end metric is ``ok`` when its
median is within the BENCHMARK.json bound of the median in
``bench/baseline.json``, ``WORSE`` or ``better`` beyond it, and
``no-baseline`` when the baseline lacks it.  ``--trace`` prints the
per-layer metrics instead (no verdict).  Exits 1 when any verdict is
FAIL or WORSE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BASELINE = BENCH / "baseline.json"


def spread(values: list) -> float:
    """Quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads(BASELINE.read_text())["metrics"] if BASELINE.is_file() else {}
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    bad = False
    print(f"{'workload':<14} {'metric':<42} {'median':>12} {'unit':<6} "
          f"{'spread':>7} {'baseline':>10}  verdict")
    for workload in args.workload or workloads.WORKLOADS:
        results = []
        for run in range(args.runs):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(args.seed + run), "--seconds", str(spec["run_seconds"]),
                 "--trace", "1" if args.trace else "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        ok = failed == 0 and all(r["correct"] for r in results)
        bad |= not ok
        print(f"{workload:<14} {'correct':<42} {str(ok).lower():>12} {'':<6} "
              f"{'':>7} {'':>10}  {'PASS' if ok else 'FAIL'} "
              f"({failed}/{attempted} configs failed)")
        for m in metric_specs:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            med = statistics.median(values)
            base = baseline.get(workload, {}).get(m["name"])
            verdict = ""
            if "bound" in m:
                if base is None:
                    verdict = "no-baseline"
                else:
                    change = (med - base) / base if m["better"] == "lower" \
                        else (base - med) / base
                    verdict = ("WORSE" if change > m["bound"] else
                               "better" if change < -m["bound"] else "ok")
                    verdict += f" ({change:+.1%} against bound {m['bound']:.0%})"
                    bad |= verdict.startswith("WORSE")
            print(f"{workload:<14} {m['name']:<42} {med:>12.6g} {m['unit']:<6} "
                  f"{spread(values):>7.1%} "
                  f"{'-' if base is None else format(base, '.6g'):>10}  {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
