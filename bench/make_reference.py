"""Write the committed reference reports of every workload.

    python3 bench/make_reference.py [--workload NAME ...]

Run it from the root of a checkout of the commit that defines the
reference.  For each workload and each of its ``workloads.VARIANTS`` input
variants it runs the configs once and stores their flattened reports in
``bench/reference/<workload>.json``.  It refuses to write a reference for
a config that raises or reports ``passed: false``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import refcheck
import workloads
from worker import REFERENCE_DIR, ROOT, import_chainsup, run_configs


def reference_for(chainsup, workload: str, variant: int) -> list:
    configs = workloads.build(workload, variant)
    out_dir = ROOT / ".bench_out" / "reference" / workload / str(variant)
    entries = []
    for (label, kind, _config), (path, error) in zip(
            configs, run_configs(chainsup, configs, out_dir)):
        if error is not None:
            raise SystemExit(f"{workload} variant {variant} {label}: raised {error}")
        report = json.loads(Path(path).read_text())
        if not report["passed"]:
            raise SystemExit(f"{workload} variant {variant} {label}: passed is false")
        entries.append({"label": label, "kind": kind,
                        "leaves": refcheck.flatten(report, kind)})
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    chainsup = import_chainsup()
    for workload in args.workload or workloads.WORKLOADS:
        variants = []
        for variant in range(workloads.VARIANTS):
            variants.append(reference_for(chainsup, workload, variant))
            print(f"{workload}: variant {variant} done", file=sys.stderr, flush=True)
        path = REFERENCE_DIR / f"{workload}.json"
        with open(path, "w") as fh:
            json.dump({"command": "python3 bench/make_reference.py",
                       "variants": variants}, fh, sort_keys=True, indent=0)
            fh.write("\n")
        print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
