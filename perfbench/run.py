#!/usr/bin/env python3
"""The repository benchmark: three workloads, end-to-end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload suite-cold --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` measures the same window untraced, then again with every
layer wrapped in spans; it prints the per-layer metrics and writes the
span ledger to ``.perfbench-out/<workload>-seed<seed>.json``.  The last
line of standard output is always one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  NOTES.md says why each
workload exists and what it loads.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("suite-cold", "replay-warm", "serve-mixed")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_engine_workload(args, run_dir: Path, calibration):
    """suite-cold / replay-warm: returns (metrics, windows, trace)."""
    import engine_workloads as ew
    import layers
    from common import Quality, end_to_end, rss_peak_mb
    from ledger import Ledger
    from repro.target import x86_target

    rng = random.Random(args.seed)
    target = x86_target()
    programs = ew.prepare_programs()
    if args.workload == "suite-cold":
        def measure(ledger=None, quality=None):
            return ew.suite_cold_window(programs, target, rng, args.seconds,
                                        calibration, ledger=ledger,
                                        quality=quality)
    else:
        cache_dir = str(run_dir / "cache")
        reference = ew.warm_cache(programs, cache_dir)

        def measure(ledger=None, quality=None):
            return ew.replay_warm_window(
                programs, target, rng, args.seconds, cache_dir, reference,
                calibration, ledger=ledger, quality=quality)
    setup_s = time.perf_counter() - T_START

    quality = Quality()
    window, checks = measure(quality=quality)
    calibration.sample(3)
    checks()
    windows = [window]
    metrics = end_to_end(setup_s, window, quality, rss_peak_mb(),
                         calibration.speed)
    if not args.trace:
        return metrics, windows, None

    ledger = Ledger()
    layers.install(ledger, extra_modules=[ew])
    try:
        traced, checks = measure(ledger=ledger)
    finally:
        ledger.unpatch()
    checks()
    windows.append(traced)
    per_layer = layers.layer_metrics(ledger, traced.passes)
    per_layer.update({
        "latency.samples": window.attempted,
        "trace.throughput_ops_s": traced.throughput,
        "trace.throughput_ratio": traced.throughput / window.throughput,
    })
    return per_layer, windows, ledger


def run_serve_mixed(args, run_dir: Path):
    """serve-mixed: returns (metrics, windows, trace).

    Its times are reported raw: a request's latency is mostly socket
    round trips and work in the gateway and shard processes, which the
    in-process calibration slice does not track (scaling made the
    spread across runs four times wider).
    """
    import layers
    import serve
    from common import Measurement, end_to_end, rss_peak_mb
    from ledger import Ledger

    hot = serve.hot_set()
    fleet = serve.Fleet(run_dir / "cache")
    try:
        serve.warm_up(fleet, hot)
        setup_s = time.perf_counter() - T_START
        window, samples = serve.window(fleet, hot, args.seed, args.seconds,
                                       "u")
        windows = [window]
        if args.trace:
            ledger = Ledger()
            layers.install(ledger)
            try:
                traced, traced_samples = serve.window(
                    fleet, hot, args.seed, args.seconds, "t", traced=True)
            finally:
                ledger.unpatch()
            windows.append(traced)
            hop = serve.hop_ms(fleet, hot)
        rss_mb = rss_peak_mb(fleet.pids())
    finally:
        fleet.stop()
    check = Measurement()
    quality = serve.run_allocated(hot, check)
    window.failed += check.failed
    window.failures += check.failures
    if not args.trace:
        return end_to_end(setup_s, window, quality, rss_mb), windows, None

    per_layer = layers.layer_metrics(ledger, traced.passes)
    per_layer.update(serve.tree_metrics(traced_samples, traced.passes))
    per_layer.update(serve.reply_metrics(samples))
    per_layer.update({
        "gateway.hop_ms": hop,
        "latency.samples": window.attempted,
        "trace.throughput_ops_s": traced.throughput,
        "trace.throughput_ratio": traced.throughput / window.throughput,
    })
    return per_layer, windows, ledger


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: {ROOT / 'src' / 'repro'} is missing; run the "
              "benchmark from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The benchmark fixes every setting itself; REPRO_* knobs in the
    # caller's environment (jobs, presolve, faults, tracing) must not
    # reach this process or the fleet it spawns.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    import layers
    from common import END_TO_END, OUT_DIR, TMP_DIR, Calibration, stop_children

    calibration = Calibration()
    calibration.sample(3)
    scaled = args.workload != "serve-mixed"
    run_dir = TMP_DIR / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve-mixed":
            metrics, windows, ledger = run_serve_mixed(args, run_dir)
        else:
            metrics, windows, ledger = run_engine_workload(
                args, run_dir, calibration)
    finally:
        stop_children()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            TMP_DIR.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = sum(w.attempted for w in windows)
    failed = sum(min(w.failed, w.attempted) for w in windows)
    for w in windows:
        for failure in w.failures:
            print(f"FAILED CHECK: {failure}", file=sys.stderr)
    units = dict(layers.PER_LAYER if args.trace else END_TO_END)
    if ledger is not None:
        path = OUT_DIR / f"{args.workload}-seed{args.seed}.json"
        ledger.write(path, {
            "workload": args.workload, "seed": args.seed,
            "per_layer": metrics, "paper_exponents": layers.PAPER_EXPONENTS,
        })
        print(f"span ledger: {path.relative_to(ROOT)}")
    scaling = "end-to-end times scaled by it" if scaled else "raw times"
    print(f"{args.workload} seed={args.seed}: {attempted} ops, "
          f"{failed} failed, passes={[w.passes for w in windows]}, "
          f"machine speed {calibration.speed:.3f}x reference ({scaling})")
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:14.4f} {unit}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
