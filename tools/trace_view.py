#!/usr/bin/env python
"""Render a request trace as a flame-style text tree.

Usage::

    python tools/trace_view.py trace.json [--width 40] [--no-meta]
    python -m repro submit --verb trace --json | python tools/trace_view.py -

Accepts any of the shapes the stack produces:

* a raw span dict (``Span.to_dict()``);
* a ``trace`` verb response (``{"result": {"trace": ..., "ids":
  [...]}}``) as printed by ``python -m repro submit --verb trace
  --json``;
* a list of span dicts (a span forest).

The tree is drawn by :func:`repro.obs.render_trace`, the renderer
behind ``submit --show-trace`` and ``submit --verb trace``: each line
shows the span name, its duration, a bar proportional to the share of
the root span's wall-clock, and the span's annotations.  Background
subtrees (a service's optimal upgrade) are drawn with ``~`` bars.
"""

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
)

from repro.obs import Span, render_trace  # noqa: E402


def _extract(doc):
    """Dig the span forest out of whatever JSON shape we were given."""
    if isinstance(doc, list):
        return [s for s in doc if isinstance(s, dict) and "name" in s]
    if not isinstance(doc, dict):
        return []
    if "name" in doc:
        return [doc]
    for key in ("trace", "spans"):
        if key in doc and doc[key]:
            return _extract(doc[key])
    if "result" in doc:
        return _extract(doc["result"])
    return []


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="render a request/phase trace JSON as a "
                    "flame-style text tree",
    )
    parser.add_argument("trace", help="trace JSON file, or '-' for "
                                      "stdin")
    parser.add_argument("--width", type=int, default=40,
                        help="bar width in characters (default 40)")
    parser.add_argument("--no-meta", action="store_true",
                        help="hide span annotations")
    args = parser.parse_args(argv)

    if args.trace == "-":
        doc = json.load(sys.stdin)
    else:
        with open(args.trace) as handle:
            doc = json.load(handle)
    spans = _extract(doc)
    if not spans:
        print("error: no spans found in the input (expected a span "
              "dict, a span list, or a 'trace' verb response)",
              file=sys.stderr)
        return 1
    print(render_trace([Span.from_dict(s) for s in spans],
                       width=args.width, show_meta=not args.no_meta))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
