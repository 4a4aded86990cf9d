"""Measurement loop, metrics and provenance for the benchmark.

Import only after ``env.prepare()`` has pinned the thread pools.
"""

import bisect
import contextlib
import hashlib
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import tracer as tracing
import workloads
from env import THREAD_VARS

# setup_s is the median of this many set-ups, each paying a fresh import.
SETUP_REPEATS = 5
# The speed of this kind of shared VM flips between a fast and a slow state
# (about 1.7x apart) within a second or two, which swamps the changes the
# benchmark must resolve.  A fixed reference kernel is timed right before
# every item and every SAMPLE_EVERY_S inside long ones, and every time metric
# is rescaled to the machine speed at which that kernel takes REFERENCE_S.
# Raw times stay in the detail record.
REFERENCE_S = 0.0013
SAMPLE_EVERY_S = 0.25
# item_p90_ms needs ten samples beyond the 90th percentile.
P90_MIN_ITEMS = 100

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def _layer(spec):
    """Expand "module.callable:stat,stat" into (metric name, unit) pairs."""
    base, stats = spec.split(":")
    units = {"calls": "count", "total_s": "s", "self_s": "s"}
    return [(f"{base}.{stat}", units[stat]) for stat in stats.split(",")]


SOLVER = "cbnorm.sdp_solve"
_LAYER_SPECS = (
    "crossed.CrossedProductModel:calls,total_s",
    "crossed.takai_duality:calls,total_s,self_s",
    "crossed.word_extension:total_s",
    "crossed.DoubleSpan.coeffs_with_residual:calls,total_s",
    "crossed.DoubleSpan.matrix:calls,total_s",
    "crossed.DualityIso.validate:total_s",
    "algebras.CbMap:calls,total_s",
    "algebras.CbMap.from_coords:calls,total_s",
    "algebras.GroupAction:total_s",
    "numerics.choi_matrix:calls,total_s",
    "numerics.DenseSpan.coeffs:calls,total_s",
    *(
        f"transference.{name}:calls,total_s,self_s"
        for name in (
            "transfer_symbol", "schur_extension", "position_symbol", "restrict_to_crossed",
            "check_invariance", "invariant_average", "ambient_map_of_symbol",
        )
    ),
    *(
        f"herzschur.{name}:calls,total_s,self_s"
        for name in ("multiplier_map", "verify_multiplier", "extract_fiber_symbol")
    ),
    *(f"schur.{name}:calls,total_s,self_s" for name in ("schur_map", "verify_bimodule", "extract_symbol")),
    f"{SOLVER}:calls,total_s",
    "cbnorm.grid_cb_solution:self_s",
    "cbnorm.hs_cb_norm:total_s",
    "cbnorm.cb_norm:total_s",
    "cbnorm.schur_cb_norm:total_s",
    "schur.dilation_factorize:self_s",
    "pontryagin.simultaneous_multiplier:total_s",
    "pontryagin.verify_simultaneous:total_s",
    "scenarios.parse_scenario:total_s",
    "scenarios.run_suites:self_s",
    "scenarios.write_report:total_s",
)
PER_LAYER = dict(pair for spec in _LAYER_SPECS for pair in _layer(spec))
# The callables the traced run wraps.
TARGETS = tuple(spec.split(":")[0] for spec in _LAYER_SPECS)
PER_LAYER.update(
    {
        f"{SOLVER}.iterations": "count",
        f"{SOLVER}.s_per_iter": "s",
        f"{SOLVER}.params": "count",
        f"{SOLVER}.input_mb": "MB",
        f"{SOLVER}.optimal_ratio": "ratio",
        "trace.items_per_s": "1/s",
        "trace.untraced_items_per_s": "1/s",
        "trace.overhead_ratio": "ratio",
        "trace.spans": "count",
    }
)

_CROSSED = (
    "crossed.CrossedProductModel", "crossed.takai_duality", "crossed.word_extension",
    "crossed.DoubleSpan.coeffs_with_residual", "crossed.DoubleSpan.matrix",
    "crossed.DualityIso.validate",
)
_MODEL = (
    "algebras.CbMap", "algebras.CbMap.from_coords", "algebras.GroupAction",
    "numerics.DenseSpan.coeffs",
)
_TRANSFER = (
    "transference.transfer_symbol", "transference.schur_extension",
    "transference.position_symbol", "transference.restrict_to_crossed",
    "transference.check_invariance", "transference.invariant_average",
    "transference.ambient_map_of_symbol", "herzschur.multiplier_map",
    "herzschur.verify_multiplier", "herzschur.extract_fiber_symbol", "schur.schur_map",
    "schur.verify_bimodule", "schur.extract_symbol",
)
# Callables each workload must reach; the traced run aborts when one records
# no call, so a rename cannot silently turn its metrics into zeros.
EXPECTED_CALLS = {
    "suite-run": _CROSSED + _MODEL + _TRANSFER + (
        "numerics.choi_matrix", SOLVER, "cbnorm.grid_cb_solution", "cbnorm.cb_norm",
        "cbnorm.schur_cb_norm", "pontryagin.simultaneous_multiplier",
        "pontryagin.verify_simultaneous", "scenarios.parse_scenario",
        "scenarios.run_suites", "scenarios.write_report",
    ),
    "transfer-sweep": _CROSSED + _MODEL + _TRANSFER,
    "cb-norms": (
        "numerics.choi_matrix", SOLVER, "cbnorm.grid_cb_solution", "cbnorm.hs_cb_norm",
        "cbnorm.cb_norm", "cbnorm.schur_cb_norm", "schur.dilation_factorize",
        "pontryagin.simultaneous_multiplier", "pontryagin.verify_simultaneous",
    ),
}


class SpeedGauge:
    """Tracks machine speed by timing a fixed reference kernel before every item.

    The kernel mixes what the package spends its time on: dense complex
    products, a linear solve, and small-array work driven from Python.  It
    never touches the package, so no change to the program can move it.
    """

    def __init__(self):
        rng = np.random.default_rng(0xCA11B)
        self._a = (rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))) / 10
        self._shifted = self._a + 5.0 * np.eye(48)
        self._rows = rng.standard_normal((13, 64))
        self.points = []  # (perf_counter at the end, best kernel time)
        self.paused = 0.0  # seconds spent in samples taken inside items
        self._kernel()  # the first run pays for warming caches and BLAS

    def _kernel(self):
        x = self._a.copy()
        acc = 0.0
        for _ in range(8):
            x = x @ self._a
            x /= np.abs(x).max()
            acc += float(np.abs(np.linalg.solve(self._shifted, x[:, :4])).sum())
            for row in range(12):
                acc += float(np.abs(x[row, :6]).sum())
                acc += float((self._rows[row] * self._rows[row + 1]).sum())
        return acc

    def measure(self):
        """Best of three kernel runs, so one interrupt does not count."""
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - start)
        self.points.append((time.perf_counter(), best))

    @contextlib.contextmanager
    def sampling(self):
        """Also time the kernel every SAMPLE_EVERY_S, from a timer signal.

        The samples land inside long items; the time they take is added to
        ``paused`` so that the item's latency can leave it out.
        """
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.measure()
        self.paused += time.perf_counter() - start

    def nominal(self, seconds, start, end):
        """Raw ``seconds`` spent in [start, end], rescaled to the nominal speed.

        Uses the mean of the reference times taken inside the interval, the
        last one before ``start`` and the first one after ``end``.
        """
        times = [t for t, _ in self.points]
        lo = max(bisect.bisect_right(times, start) - 1, 0)
        hi = bisect.bisect_left(times, end) + 1
        refs = [ref for _, ref in self.points[lo:hi]]
        return seconds * REFERENCE_S * len(refs) / sum(refs)


@dataclass
class ItemRecord:
    name: str
    round: int
    start: float
    latency_s: float
    outputs: dict
    failure: str
    end: float = math.nan
    nominal_s: float = math.nan


def run_item(name, index, fn):
    start = time.perf_counter()
    try:
        outputs, failure = fn()
    except Exception as exc:  # an item that raises is a failed item, not a crash
        outputs, failure = {}, f"{type(exc).__name__}: {exc}"
    return ItemRecord(name, index, start, time.perf_counter() - start, outputs, failure)


def measure(workload, state, seed, seconds, gauge, tracer=None):
    """Run whole rounds, one item at a time, for about ``seconds``.

    Measured time is the sum of item latencies: input generation and speed
    calibration between items fall outside it.  Another round starts only if
    the measured time plus half the last round stays below ``seconds``, so
    rounds are never cut and the mix stays exact.  Returns the records, each
    with its latency rescaled by ``gauge``, and the raw measured time.
    Latencies leave out the gauge's samples taken inside items.
    """
    records = []
    measured = 0.0
    index = 0
    with gauge.sampling():
        while True:
            spent = 0.0
            for name, fn in workload.round(state, seed, index):
                gauge.measure()
                paused = gauge.paused
                if tracer is None:
                    record = run_item(name, index, fn)
                else:
                    tracer.item = len(records)
                    with tracer.span("bench.item"):
                        record = run_item(name, index, fn)
                record.end = record.start + record.latency_s
                record.latency_s -= gauge.paused - paused
                records.append(record)
                spent += record.latency_s
            measured += spent
            if measured + spent / 2 >= seconds:
                break
            index += 1
        gauge.measure()
    for r in records:
        r.nominal_s = gauge.nominal(r.latency_s, r.start, r.end)
    return records, measured


def import_seconds(src):
    """Time ``import multlab.cli`` in a fresh interpreter with this environment."""
    code = "import time; t = time.perf_counter(); import multlab.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(done.stdout.strip())


def timed_setup(workload, seed, src, gauge, repeats=SETUP_REPEATS):
    """Set up ``repeats`` times; each time is a fresh import plus every input.

    Returns the state and the raw and rescaled set-up times.
    """
    spans = []
    state = None
    for _ in range(repeats):
        gauge.measure()
        start = time.perf_counter()
        imported = import_seconds(src)
        built = time.perf_counter()
        state = workload.setup(seed)
        end = time.perf_counter()
        spans.append((imported + end - built, start, end))
    gauge.measure()
    raw = [seconds for seconds, _, _ in spans]
    return state, raw, [gauge.nominal(*span) for span in spans]


def latency_summary(records):
    """Rescaled median, 90th percentile (with enough samples), raw median and
    per-item medians, over the items that passed; failures are counted apart."""
    passed = [r for r in records if r.failure is None]
    lat = sorted(r.nominal_s for r in passed) or [math.inf]
    raw = [r.latency_s for r in passed] or [math.inf]
    out = {
        "samples": len(passed),
        "p50_ms": statistics.median(lat) * 1000.0,
        "raw_p50_ms": statistics.median(raw) * 1000.0,
    }
    if len(passed) >= P90_MIN_ITEMS:
        out["p90_ms"] = lat[math.ceil(0.9 * len(lat)) - 1] * 1000.0
    by_item = {}
    for r in records:
        by_item.setdefault(r.name, []).append(r.nominal_s * 1000.0)
    out["by_item_p50_ms"] = {name: statistics.median(v) for name, v in by_item.items()}
    return out


def failure_summary(records):
    failed = [r for r in records if r.failure is not None]
    unexpected = [r for r in failed if workloads.KNOWN_FAILURES.get(r.name) != r.failure]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "failed_ratio": len(failed) / len(records),
        "failures": sorted({(r.name, r.failure) for r in failed}),
        "unexpected": len(unexpected),
    }


def items_per_s(records):
    """Passed items per second of rescaled measured time."""
    return sum(r.failure is None for r in records) / sum(r.nominal_s for r in records)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(spans):
    """Every per-layer metric from the traced run's spans."""
    stats = tracing.span_stats(spans)
    metrics = {}
    for name in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat in ("calls", "total_s", "self_s"):
            metrics[name] = stats.get(base, {}).get(stat, 0)
    solves = [s.attrs for s in spans if s.name == SOLVER and s.attrs is not None]
    calls = metrics[f"{SOLVER}.calls"]
    iterations = sum(a["iterations"] for a in solves)
    metrics[f"{SOLVER}.iterations"] = iterations
    metrics[f"{SOLVER}.s_per_iter"] = metrics[f"{SOLVER}.total_s"] / iterations if iterations else 0.0
    metrics[f"{SOLVER}.params"] = sum(a["params"] for a in solves)
    metrics[f"{SOLVER}.input_mb"] = max((a["input_bytes"] for a in solves), default=0) / 1e6
    optimal = sum(a["status"] == "optimal" for a in solves)
    metrics[f"{SOLVER}.optimal_ratio"] = optimal / calls if calls else 0.0
    return metrics, stats


def missing_calls(workload_name, stats):
    return [name for name in EXPECTED_CALLS[workload_name] if stats.get(name, {}).get("calls", 0) == 0]


def _git_revision(root):
    try:
        done = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(root):
        return None
    return lines[1]


def _source_digest(src):
    digest = hashlib.sha256()
    package = os.path.join(src, "multlab")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance(root, src, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": _git_revision(root),
        "source_sha256": _source_digest(src),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "seed": seed,
    }
