#!/usr/bin/env python
"""CI gate: the paper's Table 2/3 numbers must not regress.

Usage::

    python tools/check_table_regression.py REPORT.json
        [--tolerances tools/table_tolerances.json] [--update]

``REPORT.json`` is a run report produced by ``python -m repro exp ...
--report-json`` (its ``tables`` key carries the Table 2/3 summaries).
The tolerances file records, per metric, the expected value, an
allowed slack, and which direction counts as *worse*::

    {
      "metrics": {
        "table2.solved_pct": {"expected": 100.0, "tol": 0.0,
                              "worse": "lower"},
        "table3.overhead_reduction": {"expected": 0.45, "tol": 0.05,
                                      "worse": "lower"},
        "table2.rows[Total].optimal": {"expected": 7, "tol": 0,
                                       "worse": "lower"}
      }
    }

A metric fails only when it moves past ``expected`` in the ``worse``
direction by more than ``tol`` (absolute); improvements never fail.
``"worse": "either"`` pins a deterministic count: a move in either
direction is a slip.
Metric paths are dotted keys into the ``tables`` dict; a ``rows[X]``
component selects the row whose ``benchmark``/``name`` equals ``X``.

``--update`` rewrites the ``expected`` values (keeping each metric's
``tol``/``worse``) from the given report — run it deliberately, after
a change that legitimately moves the tables, and commit the diff.

Exit code 0 when every metric holds, 1 with a diagnostic otherwise.
"""

import argparse
import json
import re
import sys

DEFAULT_TOLERANCES = "tools/table_tolerances.json"

_ROW = re.compile(r"^(?P<field>\w+)\[(?P<key>[^\]]+)\]$")


def resolve(tables, path):
    """Look up a dotted metric path, e.g. ``table2.rows[Total].solved``."""
    node = tables
    for part in path.split("."):
        row = _ROW.match(part)
        if row is not None:
            field, key = row.group("field"), row.group("key")
            if not isinstance(node, dict) or field not in node:
                raise KeyError(f"no key {field!r} in {path!r}")
            matches = [
                r for r in node[field]
                if r.get("benchmark", r.get("name")) == key
            ]
            if not matches:
                raise KeyError(f"no row {key!r} in {path!r}")
            node = matches[0]
            continue
        if not isinstance(node, dict) or part not in node:
            raise KeyError(f"no key {part!r} in {path!r}")
        node = node[part]
    if not isinstance(node, (int, float)) or isinstance(node, bool):
        raise KeyError(f"{path!r} is not a number: {node!r}")
    return float(node)


def check(value, spec, path):
    """None if the metric holds, else a diagnostic string."""
    expected = float(spec["expected"])
    tol = float(spec.get("tol", 0.0))
    worse = spec.get("worse", "lower")
    if worse not in ("lower", "higher", "either"):
        return f"{path}: bad 'worse' direction {worse!r}"
    slip = {
        "lower": expected - value,
        "higher": value - expected,
        "either": abs(value - expected),
    }[worse]
    if slip > tol:
        return (
            f"{path}: {value:g} is {slip:g} {worse} than the recorded "
            f"{expected:g} (tolerance {tol:g})"
        )
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="gate Table 2/3 report numbers against recorded "
                    "tolerances",
    )
    parser.add_argument("report", help="run report JSON (from "
                                       "--report-json)")
    parser.add_argument("--tolerances", default=DEFAULT_TOLERANCES,
                        metavar="PATH")
    parser.add_argument("--update", action="store_true",
                        help="rewrite expected values from this report")
    args = parser.parse_args(argv)

    with open(args.report) as handle:
        tables = json.load(handle).get("tables") or {}
    if not tables:
        print(f"error: {args.report} has no 'tables' summaries "
              f"(produced by a bench-suite run?)", file=sys.stderr)
        return 2
    with open(args.tolerances) as handle:
        recorded = json.load(handle)
    metrics = recorded.get("metrics", {})
    if not metrics:
        print(f"error: {args.tolerances} records no metrics",
              file=sys.stderr)
        return 2

    failures = []
    for path, spec in sorted(metrics.items()):
        try:
            value = resolve(tables, path)
        except KeyError as exc:
            failures.append(str(exc))
            continue
        if args.update:
            spec["expected"] = round(value, 6)
            continue
        problem = check(value, spec, path)
        if problem is not None:
            failures.append(problem)
        else:
            print(f"ok: {path} = {value:g} (expected "
                  f"{float(spec['expected']):g}, "
                  f"tol {float(spec.get('tol', 0.0)):g}, "
                  f"worse={spec.get('worse', 'lower')})")

    if args.update and not failures:
        with open(args.tolerances, "w") as handle:
            json.dump(recorded, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"updated {len(metrics)} expected values in "
              f"{args.tolerances}")
        return 0
    if failures:
        for failure in failures:
            print(f"TABLE REGRESSION: {failure}", file=sys.stderr)
        return 1
    print(f"table regression gate passed ({len(metrics)} metrics)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
