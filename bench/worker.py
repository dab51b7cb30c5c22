"""One benchmark pass, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --out DIR
                            [--trace | --setup-only]

Imports chainsup from ``src/`` of the checkout holding this file, builds
the workload's configs, runs each through ``chainsup.cli.run`` and
``chainsup.cli.write_report`` (one client, closed loop, ``workers=1``),
then checks every report against the committed reference.  Prints one
JSON object as its last line of standard output.  Exit code 3 means that
the chainsup source is missing.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import refcheck
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
NO_PROGRAM = 3


def import_chainsup():
    """Import chainsup from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "chainsup" / "__init__.py").is_file():
        print(f"error: no chainsup package under {src}", file=sys.stderr)
        raise SystemExit(NO_PROGRAM)
    sys.path.insert(0, str(src))
    import chainsup
    import chainsup.cli
    if Path(chainsup.__file__).resolve().parent != (src / "chainsup").resolve():
        print(f"error: chainsup imported from {chainsup.__file__}", file=sys.stderr)
        raise SystemExit(NO_PROGRAM)
    return chainsup


def run_configs(chainsup, configs: list, out_dir: Path, rec=None) -> list:
    """Run each config; returns one (report path, error text) per config."""
    results = []
    for i, (label, _kind, config) in enumerate(configs):
        if rec is not None:
            rec.begin_config(i)
        try:
            report = chainsup.cli.run(config, workers=1)
            path = chainsup.cli.write_report(report, out_dir / f"{i:02d}-{label}")
            results.append((path, None))
        except Exception as exc:  # a failing config is counted, not fatal
            results.append((None, f"{type(exc).__name__}: {exc}"))
    return results


def check(configs: list, results: list, reference: list) -> list:
    """One failure message per config that raised, failed or mismatched."""
    failures = []
    for (label, kind, _config), (path, error), ref in zip(configs, results, reference,
                                                           strict=True):
        if ref["label"] != label:
            failures.append(f"{label}: reference holds {ref['label']!r} at this index")
        elif error is not None:
            failures.append(f"{label}: raised {error}")
        else:
            report = json.loads(Path(path).read_text())
            problems = refcheck.compare(ref["leaves"], report, kind)
            if not report["passed"]:
                failures.append(f"{label}: report says passed: false")
            elif problems:
                failures.append(f"{label}: {len(problems)} leaves differ from the "
                                f"reference, first: {problems[0]}")
    return failures


def load_reference(workload: str, seed: int) -> list:
    data = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
    return data["variants"][workloads.variant_of(seed)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after measuring set-up time")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    chainsup = import_chainsup()
    configs = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rec = tracer.install(chainsup) if args.trace else None
    t1 = time.perf_counter()
    results = run_configs(chainsup, configs, args.out, rec)
    wall_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = check(configs, results, load_reference(args.workload, args.seed))
    out = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
           "attempted": len(configs),
           "failed": len(failures),
           "failures": failures, "traced": rec is not None}
    if rec is not None:
        rec.write(args.out / "trace.json")
        layers = tracer.layer_metrics(rec)
        out["layers"] = layers
        out["missing_spans"] = [name for name in workloads.EXPECTED_SPANS[args.workload]
                                if layers[f"{name}.calls"] == 0]
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
