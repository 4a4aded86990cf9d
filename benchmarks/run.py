"""Benchmark entry point: one workload, one seed, one process.

    python3 benchmarks/run.py --workload {suite-run,transfer-sweep,cb-norms} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src``.  With
``--trace 0`` the last line of stdout is the result with every end-to-end
metric.  With ``--trace 1`` the workload runs twice with the same seed, first
untraced and then traced, and the result holds every per-layer metric plus
the tracing overhead.  The line before the result is a detail record
(provenance, failures with their messages, latency sample counts, item_p90_ms
where a run holds enough items); it is also written to ``.bench_out/``
together with the traced run's spans.
"""

import argparse
import json
import math
import os
import statistics
import sys

import env


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(harness, workload, seed, seconds):
    gauge = harness.SpeedGauge()
    state, raw_setup, setup_times = harness.timed_setup(workload, seed, env.SRC, gauge)
    records, measured = harness.measure(workload, state, seed, seconds, gauge)
    latency = harness.latency_summary(records)
    values = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": harness.items_per_s(records),
        "item_p50_ms": latency["p50_ms"],
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    if not math.isfinite(values["item_p50_ms"]):
        values["item_p50_ms"] = measured * 1000.0
    metrics = {name: _metric(values[name], unit) for name, unit in harness.END_TO_END.items()}
    failures = harness.failure_summary(records)
    detail = {
        "setup_s_samples": setup_times,
        "raw_setup_s_samples": raw_setup,
        "measured_s": measured,
        "raw_items_per_s": sum(r.failure is None for r in records) / measured,
        "rounds": records[-1].round + 1,
        "latency": latency,
        "reference_s": [ref for _, ref in gauge.points],
        "items": [[r.name, r.round, r.latency_s, r.nominal_s] for r in records],
        **failures,
    }
    correct = failures["unexpected"] == 0 and math.isfinite(latency["p50_ms"])
    return metrics, detail, correct


def run_traced(harness, tracing, workload, seed, seconds):
    gauge = harness.SpeedGauge()
    state = workload.setup(seed)
    plain, plain_s = harness.measure(workload, state, seed, seconds, gauge)
    tracer = tracing.Tracer()
    tracer.install(harness.TARGETS)
    try:
        with tracer.span("bench.setup"):
            state = workload.setup(seed)
        traced, traced_s = harness.measure(workload, state, seed, seconds, gauge, tracer=tracer)
    finally:
        tracer.uninstall()
    values, stats = harness.layer_metrics(tracer.spans)
    missing = harness.missing_calls(workload.name, stats)
    if missing:
        raise RuntimeError(
            f"traced run of {workload.name}: no calls recorded into {', '.join(missing)}"
        )
    plain_rate = harness.items_per_s(plain)
    traced_rate = harness.items_per_s(traced)
    values["trace.items_per_s"] = traced_rate
    values["trace.untraced_items_per_s"] = plain_rate
    values["trace.overhead_ratio"] = plain_rate / traced_rate if traced_rate else 0.0
    values["trace.spans"] = len(tracer.spans)
    metrics = {name: _metric(values[name], unit) for name, unit in harness.PER_LAYER.items()}
    # Tracing must not change a single output bit for the same inputs.
    mismatched = [
        a.name for a, b in zip(plain, traced) if (a.outputs, a.failure) != (b.outputs, b.failure)
    ]
    failures = harness.failure_summary(plain + traced)
    detail = {
        "measured_s": {"untraced": plain_s, "traced": traced_s},
        "latency": {
            "untraced": harness.latency_summary(plain),
            "traced": harness.latency_summary(traced),
        },
        "trace_mismatches": mismatched,
        **failures,
    }
    os.makedirs(env.OUT, exist_ok=True)
    tracer.write(os.path.join(env.OUT, f"spans-{workload.name}-seed{seed}.jsonl"))
    return metrics, detail, failures["unexpected"] == 0 and not mismatched


def main(argv=None):
    args = parse_args(argv)
    try:
        env.prepare()
    except (FileNotFoundError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness
    import tracer as tracing
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, env.OUT)
    if args.trace:
        try:
            metrics, detail, correct = run_traced(
                harness, tracing, workload, args.seed, args.seconds
            )
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    else:
        metrics, detail, correct = run_untraced(
            harness, workload, args.seed, args.seconds
        )
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": harness.provenance(env.ROOT, env.SRC, args.seed),
        **detail,
    }
    os.makedirs(env.OUT, exist_ok=True)
    path = os.path.join(env.OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({**detail, "metrics": metrics}, fh, indent=1)
    result = {
        "correct": bool(correct),
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }
    detail.pop("items", None)  # per-item latencies go to the file only
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
