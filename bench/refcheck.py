"""Reference check for benchmark reports.

A report is flattened to ``{path: scalar}`` leaves and compared with the
committed reference of the same config (see make_reference.py).

* ``exact`` configs: every leaf must match.  Floats agree to 1e-12
  relative (1e-14 absolute, for round-off-level values such as hull
  residuals); ints, bools, strings and nulls are equal; certificates are
  compared through the SHA-256 of their canonical JSON.
* ``mc`` configs: structural leaves (config, seeds, sample counts, flags)
  are equal.  A float with a stated error bar must lie within 3 standard
  errors of the difference: ``mean``/``stderr`` and
  ``numerator``/``numerator_stderr`` pairs, and the tail-curve
  probabilities and ratios of ``compare`` (binomial errors, doubled
  variance for the noise of the quantile ``u`` they are taken at).
  Floats without an error bar, such as greedy Monte-Carlo certificate
  values, must agree to ``MC_REL_TOL`` relative.  The partitions a
  greedy search picks on Monte-Carlo distances (``certificate``,
  ``chain_points``, ``skipped_steps``) are not compared: a backend change
  that moves distances by about 1% may legitimately pick another tree.

``tool_version`` is left out of the leaves of both kinds, so a version
bump alone does not fail the check.
"""

from __future__ import annotations

import hashlib
import json
import math

EXACT_REL_TOL = 1e-12
EXACT_ABS_TOL = 1e-14
MC_REL_TOL = 0.05
MC_ABS_TOL = 1e-12
N_SIGMA = 3.0

_METADATA = ("tool_version",)
_DIGESTED = ("certificate",)
_MC_SKIPPED = ("certificate", "chain_points", "skipped_steps")
_ERROR_SIBLING = {"mean": "stderr", "numerator": "numerator_stderr"}


def flatten(report: dict, kind: str) -> dict:
    leaves: dict = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key in sorted(node):
                if key in _METADATA or (kind == "mc" and key in _MC_SKIPPED):
                    continue
                sub = f"{path}.{key}" if path else key
                if kind == "exact" and key in _DIGESTED:
                    canon = json.dumps(node[key], sort_keys=True, separators=(",", ":"))
                    leaves[f"{sub}#sha256"] = hashlib.sha256(canon.encode()).hexdigest()
                else:
                    walk(node[key], sub)
        elif isinstance(node, list):
            for i, item in enumerate(node):
                walk(item, f"{path}[{i}]")
        else:
            leaves[path] = node

    walk(report, "")
    return leaves


def _is_float_pair(x, r) -> bool:
    def num(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)
    return num(x) and num(r) and (isinstance(x, float) or isinstance(r, float))


def _mc_tolerance(path: str, got: dict, ref: dict) -> float:
    parent, _, name = path.rpartition(".")
    r = float(ref[path])
    if name in _ERROR_SIBLING:
        err = f"{parent}.{_ERROR_SIBLING[name]}"
        if err in ref and err in got:
            return N_SIGMA * math.hypot(float(got[err]), float(ref[err])) + MC_ABS_TOL
    if ".tail_curves[" in path:
        n = float(ref["config.params.samples"])

        def var(prob):  # binomial variance of an empirical probability
            prob = min(max(float(prob), 1.0 / n), 1.0)
            return prob * (1.0 - prob) / n

        if name.startswith("p_"):
            return N_SIGMA * math.sqrt(2.0 * (var(got[path]) + var(r))) + 1.0 / n
        if name == "ratio":
            py = ref[f"{parent}.p_supY_ge_u"]
            px = ref[f"{parent}.p_supX_ge_u_over_c"]
            rel_var = (var(py) / max(py, 1.0 / n) ** 2
                       + var(px) / max(px, 1.0 / n) ** 2)
            return N_SIGMA * math.sqrt(4.0 * rel_var) * abs(r) + MC_ABS_TOL
    return MC_REL_TOL * abs(r) + MC_ABS_TOL


def compare(ref: dict, report: dict, kind: str) -> list:
    """Mismatches of `report` against the reference leaves `ref`."""
    got = flatten(report, kind)
    problems = [f"{p}: missing" for p in sorted(ref.keys() - got.keys())]
    problems += [f"{p}: not in reference" for p in sorted(got.keys() - ref.keys())]
    for path in sorted(ref.keys() & got.keys()):
        x, r = got[path], ref[path]
        if _is_float_pair(x, r):
            if kind == "exact":
                ok = math.isclose(x, r, rel_tol=EXACT_REL_TOL, abs_tol=EXACT_ABS_TOL)
                tol = EXACT_REL_TOL
            else:
                tol = _mc_tolerance(path, got, ref)
                ok = abs(x - r) <= tol
            if not ok:
                problems.append(f"{path}: {x!r} vs reference {r!r} (tolerance {tol:.3g})")
        elif type(x) is not type(r) or x != r:
            problems.append(f"{path}: {x!r} vs reference {r!r}")
    return problems
