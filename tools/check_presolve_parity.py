#!/usr/bin/env python
"""CI gate: presolved and direct solves must agree.

Compares two run reports produced by
``python -m repro alloc FILE --backend branch-bound --report-json``::

    python tools/check_presolve_parity.py WITH.json WITHOUT.json

``WITH.json`` / ``WITHOUT.json`` come from runs with presolve on and
off (``--no-presolve``).  Use a backend our pipeline runs in front of
(``branch-bound``; the ``scipy`` backend hands the setting to HiGHS and
records no presolve stats) and a program it proves within the time
limit.  Fails unless every function appears in both
reports with the same status, objectives match to a relative
tolerance, the presolved run reduced something, and every presolved
function records pre/post model sizes.

Exit code 0 on parity, 1 with a diagnostic on any mismatch.
"""

import argparse
import json
import sys

REL_TOL = 1e-6


def load(path):
    with open(path) as handle:
        report = json.load(handle)
    out = {}
    for fn in report.get("functions", []):
        solver = fn.get("solver") or {}
        key = (fn.get("benchmark", ""), fn["function"])
        out[key] = {
            "status": solver.get("status", fn.get("status", "")),
            "objective": solver.get("objective"),
            "presolve": solver.get("presolve"),
        }
    return report, out


def close(a, b):
    if a is None or b is None:
        return a == b
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check_on_off(with_path, without_path):
    """Presolved vs direct solves agree."""
    with_report, with_fns = load(with_path)
    _, without_fns = load(without_path)
    failures = []

    if set(with_fns) != set(without_fns):
        failures.append(
            f"function sets differ: "
            f"{sorted(set(with_fns) ^ set(without_fns))}"
        )
    for key in sorted(set(with_fns) & set(without_fns)):
        w, wo = with_fns[key], without_fns[key]
        name = "/".join(filter(None, key))
        if w["status"] != wo["status"]:
            failures.append(
                f"{name}: status {wo['status']} -> {w['status']} "
                f"with presolve"
            )
            continue
        if not close(w["objective"], wo["objective"]):
            failures.append(
                f"{name}: objective {wo['objective']} -> "
                f"{w['objective']} with presolve"
            )
        if wo["presolve"] is not None:
            failures.append(
                f"{name}: --no-presolve run still carries presolve "
                f"stats"
            )
        p = w["presolve"]
        if p is None:
            failures.append(f"{name}: presolved run has no presolve "
                            f"stats")
        elif not all(
            k in p for k in ("pre_variables", "pre_constraints",
                             "post_variables", "post_constraints")
        ):
            failures.append(f"{name}: presolve stats miss pre/post "
                            f"model sizes: {sorted(p)}")

    totals = with_report.get("totals", {})
    dropped = totals.get("presolve_cons_dropped", 0)
    if not dropped:
        failures.append(
            "presolve dropped no constraints across the whole run "
            f"(totals: {totals})"
        )
    if failures:
        return failures
    n = len(with_fns)
    print(
        f"presolve parity OK: {n} functions, objectives identical, "
        f"{dropped:.0f} constraints dropped, "
        f"{totals.get('n_constraints', 0)} -> "
        f"{totals.get('n_presolved_constraints', 0)} constraints, "
        f"{totals.get('n_variables', 0)} -> "
        f"{totals.get('n_presolved_variables', 0)} variables"
    )
    return []


def main(argv):
    parser = argparse.ArgumentParser(
        description="presolve on/off parity gate (see module docstring)"
    )
    parser.add_argument("first", help="report of the presolved run")
    parser.add_argument("second", help="report of the --no-presolve run")
    args = parser.parse_args(argv[1:])

    failures = check_on_off(args.first, args.second)
    if failures:
        print("presolve parity check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
