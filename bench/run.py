"""Benchmark of the twosquares engine, timed from outside it.

    python3 bench/run.py --workload prove-large --seed 1 --seconds 16 --trace 0

--trace 0 measures the end-to-end metrics with nothing wrapped.
--trace 1 alternates untraced and traced passes over the same inputs and
reports the per-layer metrics (see layers.py).  Every output is checked
(see workloads.py).  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  A run record (the inputs and
why each was chosen, failures, latency samples) and the spans of a traced
run are written to .bench_out/ at the repository root.

Exits 2 without a result when the engine cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import time
import tracemalloc
import traceback
from dataclasses import dataclass

from layers import SRC, LayerTrace, import_engine
from spans import NO_SPANS, Tracer
from workloads import OUT_DIR, WORKLOADS

# set-up is repeated and its median reported, so one slow import or a
# scheduling hiccup does not move setup_s
SETUP_REPEATS = 3
MIB = 1024 * 1024

# The speed of the shared 2-core machine this benchmark was built on swings
# by tens of percent from second to second, more than a run can average
# out.  So the timed loop runs a fixed probe between operations and scales
# each operation's time by the mean of the probes just before and just
# after it, to a nominal machine on which the probe takes PROBE_NOMINAL_S.
# Raw values are printed and kept in the run record.
PROBE_ROWS = 4000
PROBE_NOMINAL_S = 0.005
# A fast operation reuses the last probe, so probing costs at most ~10%.
PROBE_INTERVAL_S = 0.05


@dataclass(frozen=True)
class _ProbeRow:
    t: int
    value: int


def probe_seconds() -> float:
    """Time a fixed loop shaped like the engine's scan: per row a big-int
    subtraction, a small frozen dataclass and a mod-8 prefilter."""
    start = time.perf_counter()
    value, diff, rows = 10**12 + 12345, 1001, []
    for t in range(PROBE_ROWS):
        value -= diff
        diff += 50
        rows.append(_ProbeRow(t, value))
        if value & 7 == 1 and math.isqrt(value) ** 2 == value:
            rows.append(None)
    return time.perf_counter() - start


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.probes: list[float] = []  # seconds of every probe, in order
        self.probed_at = -math.inf

    def probe(self, spans=NO_SPANS) -> None:
        spans.begin("bench.probe")
        self.probes.append(probe_seconds())
        spans.finish()
        self.probed_at = time.perf_counter()

    def run(self, op, spans=NO_SPANS) -> tuple[float, int]:
        """Probe the machine, run one operation and check its output.

        Returns (seconds of the call, index of the probe before it).
        """
        self.attempted += 1
        spans.current_request = op.rid
        if time.perf_counter() - self.probed_at >= PROBE_INTERVAL_S:
            self.probe(spans)
        spans.begin("bench.call")
        start = time.perf_counter()
        try:
            result = op.call()
            error = None
        except Exception:
            error = f"{op.rid}: raised {traceback.format_exc().strip().splitlines()[-1]}"
        elapsed = time.perf_counter() - start
        spans.finish()
        spans.begin("bench.check")
        if error is None:
            try:
                error = op.check(result)
            except Exception:
                error = f"{op.rid}: output unreadable: {traceback.format_exc().strip().splitlines()[-1]}"
        spans.finish()
        if error is not None:
            self.failures.append(error)
        return elapsed, len(self.probes) - 1

    def scaled(self, calls: list[tuple[float, int]]) -> list[float]:
        """Seconds of each (call, probe index) from run() on the nominal
        machine, by the mean of the probes before and after the call."""
        if calls and calls[-1][1] == len(self.probes) - 1:
            self.probe()  # the probe after the last call
        probes = self.probes
        return [elapsed * 2 * PROBE_NOMINAL_S / (probes[i] + probes[i + 1])
                for elapsed, i in calls]


def latencies(samples: list[float], ops_per_pass: int, by_input: bool) -> tuple[float, float]:
    """(p50, tail) of call times taken in whole passes over the inputs.

    Over single calls, the tail is the highest percentile with at least
    ten samples beyond it.  With by_input, each input's calls are first
    reduced to their median, and the tail is the slowest input.
    """
    if by_input:
        medians = [statistics.median(samples[i::ops_per_pass]) for i in range(ops_per_pass)]
        return statistics.median(medians), max(medians)
    return statistics.median(samples), sorted(samples)[max(0, len(samples) - 11)]


def latency_tail_note(count: int, ops_per_pass: int, by_input: bool) -> str:
    if by_input:
        return (f"the slowest of {ops_per_pass} inputs, each at the median of its "
                f"{count // ops_per_pass} calls")
    k = max(0, count - 11)
    return f"p{100.0 * (k + 1) / count:.1f} of {count} samples"


def end_to_end(ops, seconds: float, tally: Tally, setup_s: float,
               by_input: bool) -> tuple[dict, dict]:
    calls: list[tuple[float, int]] = []
    numbers = 0
    nominal = 0.0
    start = time.perf_counter()
    # Whole passes, so every input carries the same weight, until the
    # operations have taken `seconds` on the nominal machine (counted by
    # the probe before each call, as the one after is not timed yet).
    # Counting scaled time keeps the number of passes, and so the rank of
    # the tail percentile, the same when the machine runs slower or
    # faster.  The wall-clock cap keeps a run short on a very slow machine.
    while nominal < seconds and time.perf_counter() - start < 3 * seconds:
        for op in ops:
            failed = len(tally.failures)
            elapsed, probe = tally.run(op)
            calls.append((elapsed, probe))
            nominal += elapsed * PROBE_NOMINAL_S / tally.probes[probe]
            numbers += op.numbers if len(tally.failures) == failed else 0
    samples = [elapsed for elapsed, _ in calls]
    scaled = tally.scaled(calls)
    tail_note = latency_tail_note(len(samples), len(ops), by_input)

    memory_start = time.perf_counter()
    tracemalloc.start()  # own pass, untimed: tracemalloc slows every allocation
    peaks = []
    for op in ops:
        if op.in_memory_pass:
            # the engine leaves reference cycles for the collector; starting
            # each op from a clean heap makes the collector run at the same
            # points, so identical calls give identical peaks
            gc.collect()
            tracemalloc.reset_peak()
            op.call()
            peaks.append(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
    memory_s = time.perf_counter() - memory_start

    raw_p50, raw_tail = latencies(samples, len(ops), by_input)
    p50, tail = latencies(scaled, len(ops), by_input)
    raw = {
        "latency_p50_ms": raw_p50 * 1e3,
        "latency_tail_ms": raw_tail * 1e3,
        "throughput_n_per_s": numbers / sum(samples),
        "probe_p50_ms": statistics.median(tally.probes) * 1e3,
    }
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "throughput_n_per_s": (numbers / sum(scaled), "1/s"),
        "peak_mem_mib": (statistics.median(peaks) / MIB, "MiB"),
    }
    record = {"latency_samples_s": samples, "probe_index": [i for _, i in calls],
              "probe_samples_s": tally.probes, "raw": raw,
              "latency_tail": tail_note, "numbers": numbers,
              "memory_pass_s": memory_s}
    return metrics, record


def per_layer(ops, seconds: float, tally: Tally, workload: str) -> tuple[dict, dict]:
    tracer = Tracer()
    layer = LayerTrace(tracer)
    untraced: list[tuple[float, int]] = []  # (call seconds, probe index)
    traced: list[tuple[float, int]] = []
    traced_wall = 0.0
    passes = 0
    start = time.perf_counter()
    while True:  # pairs of passes over the same inputs: untraced, then traced
        t0 = time.perf_counter()
        for op in ops:
            untraced.append(tally.run(op))
        t1 = time.perf_counter()
        layer.install()
        try:
            for op in ops:
                traced.append(tally.run(op, tracer))
        finally:
            layer.uninstall()
        t2 = time.perf_counter()
        traced_wall += t2 - t1
        passes += 1
        if t2 - start + (t2 - t0) > seconds:
            break
    scaled = tally.scaled(untraced + traced)
    overhead = sum(scaled[len(untraced):]) / sum(scaled[:len(untraced)])
    metrics = layer.metrics(passes * len(ops), traced_wall, overhead)
    rows, returned = metrics["scan.rows"][0], metrics["scan.rows_returned"][0]
    if rows is not None and returned is not None and rows != returned:
        tally.failures.append(f"analytic rows {rows} != rows returned {returned} per op")
    spans_path = OUT_DIR / f"{workload}.spans.csv"
    tracer.write_csv(spans_path)
    record = {"passes": passes, "ops_per_pass": len(ops), "spans": len(tracer.names),
              "spans_file": str(spans_path.name), "absent": layer.absent}
    return metrics, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    # (raw seconds, seconds scaled by the mean of the probes before and
    # after: a set-up can take seconds, during which the machine drifts)
    setups = []
    probe = probe_seconds()
    for _ in range(1 if args.trace else SETUP_REPEATS):
        start = time.perf_counter()
        try:
            cli, certify = import_engine()
        except ImportError as exc:
            print(f"error: cannot import the engine from {SRC}: {exc}", file=sys.stderr)
            return 2
        ops, notes = workload.build(args.seed, cli, certify)
        elapsed = time.perf_counter() - start
        probe, before = probe_seconds(), probe
        setups.append((elapsed, elapsed * 2 * PROBE_NOMINAL_S / (before + probe)))
    OUT_DIR.mkdir(exist_ok=True)

    print(f"# {args.workload}: {workload.why}")
    for note in notes:
        print(f"# input {note}")
    try:  # warm-up, untimed and unchecked; a failure shows in the measured ops
        ops[0].call()
    except Exception:
        pass
    tally = Tally()
    if args.trace:
        metrics, record = per_layer(ops, args.seconds, tally, args.workload)
    else:
        metrics, record = end_to_end(ops, args.seconds, tally,
                                     statistics.median(scaled for _, scaled in setups),
                                     workload.latency_by_input)
        record["raw"]["setup_s"] = statistics.median(raw for raw, _ in setups)
        print(f"# latency_tail_ms is {record['latency_tail']}")
        print(f"# times scaled to a {PROBE_NOMINAL_S * 1e3:g} ms probe; raw: "
              + ", ".join(f"{k} = {v:.6g}" for k, v in record["raw"].items()))
    failed = len(tally.failures)
    for error in tally.failures[:10]:
        print(f"FAILED {error}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {'absent' if value is None else f'{value:.6g}'} {unit}")
    for name, why in record.get("absent", {}).items():
        print(f"# absent: {name}: {why}")
    print(f"error_rate = {failed / tally.attempted:.6g} ({failed} of {tally.attempted} ops)")

    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_s=setups, inputs=notes,
                  attempted=tally.attempted, failures=tally.failures[:100],
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (OUT_DIR / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
