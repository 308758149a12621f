"""Benchmark runner for qsheaf.

    python3 perfbench/run.py --workload series-tangent --seed 0 --seconds 20 --trace 0

Runs one workload in this process as a closed loop with one client: every
query is sent only after the previous one returned.  A cycle is one set-up
(build every input from the seed) followed by one pass over the workload's
queries.  Each cycle rebuilds its models, so the per-deformation memos start
empty and are shared only by the queries of that cycle, as in one research
script.  A run makes a fixed number of cycles, sized from the cycle times
in ``workloads.WORKLOADS`` so that it measures about --seconds; a run that
is far slower stops early.

--trace 0 reports the end-to-end metrics (see ``end_to_end``).  --trace 1
alternates untraced and traced cycles and reports per-layer metrics from
the traced ones plus the tracing overhead.  Human-readable lines go first;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The package is imported from ``src/`` of
the checkout that holds this file; without it the script exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

QUERY_CAP_S = 30.0     # a query running longer counts as failed
RUN_SLACK_S = 100.0    # past --seconds, queries still to run get this much in total
MIN_CYCLES = 2
OVERRUN = 1.5          # stop starting cycles after OVERRUN * --seconds
SETUP_REPEATS = 3      # set-ups per untraced cycle; set-up time is their median
TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9, 99.99)


class QueryTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise QueryTimeout("query exceeded its time cap")


def beyond(n: int, p: float) -> int:
    """Samples of n that lie beyond the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100 * n))


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten of n samples beyond it."""
    return max([p for p in TAIL_PERCENTILES if beyond(n, p) >= 10],
               default=TAIL_PERCENTILES[0])


def percentile(ordered, p: float):
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def _in_span(tracer, name: str, qid, fn):
    if tracer is None:
        return fn()
    tracer.begin(name, qid=qid)
    try:
        return fn()
    finally:
        tracer.end()


class Runner:
    """Runs cycles of one workload and keeps what they measured."""

    def __init__(self, setup, seed: int, seconds: float):
        self.setup = setup
        self.seed = seed
        self.hard_deadline = time.perf_counter() + seconds + RUN_SLACK_S
        self.attempted = 0
        self.failures = []
        self.speed = speed.Speedometer()
        self.setup_times = []      # (start, end, seconds) of each set-up
        self.cycle_latencies = []  # per cycle, {query index: (start, end, seconds)}

    def _capped(self, label: str, fn) -> tuple:
        """(ok, result, (start, end, seconds)) of fn() under the time cap.

        `seconds` leaves out the speed marks taken meanwhile.  An exception,
        or running past the cap, is recorded as a failure.
        """
        cap = min(QUERY_CAP_S, self.hard_deadline - time.perf_counter())
        if cap <= 0:
            self.failures.append(f"{label}: not run, the run's deadline passed")
            return False, None, None
        signal.setitimer(signal.ITIMER_REAL, cap)
        marking = self.speed.marking_s
        start = time.perf_counter()
        try:
            result = fn()
            end = time.perf_counter()
        except QueryTimeout:
            self.failures.append(f"{label}: exceeded the {cap:.0f} s cap")
            return False, None, None
        except Exception as exc:  # any exception is a counted failure of this step
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return False, None, None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return True, result, (start, end, end - start - (self.speed.marking_s - marking))

    def cycle(self, tracer=None):
        """Set-ups and one pass; call inside ``self.speed.marking()``.

        Returns (wall seconds from the last set-up on, reference seconds per
        second over them, extra measurements), or None when set-up failed.  A traced cycle
        sets up once, so its spans cover exactly one set-up and one pass.
        """
        plan = None
        for _ in range(1 if tracer else SETUP_REPEATS):
            if plan is not None:
                plan.close()
            start = time.perf_counter()
            ok, plan, timing = self._capped(
                "setup", lambda: _in_span(tracer, "setup", None,
                                          lambda: self.setup(self.seed, ROOT)))
            if not ok:
                self.attempted += 1
                return None
            self.setup_times.append(timing)
        latencies = {}
        self.cycle_latencies.append(latencies)
        try:
            for qid, query in enumerate(plan.queries):
                self.attempted += 1
                if tracer:
                    tracer.phase = query.phase
                ok, result, timing = self._capped(
                    query.label, lambda: _in_span(tracer, "query", qid, query.call))
                if not ok:
                    continue
                latencies[qid] = timing
                try:
                    problem = query.check(result)
                except Exception as exc:  # a check that cannot run is a failed check
                    problem = f"check raised {type(exc).__name__}: {exc}"
                if problem:
                    self.failures.append(f"{query.label}: {problem}")
        finally:
            extra = plan.close()
        end = time.perf_counter()
        return end - start, self.speed.scale(start, end), extra


def end_to_end(runner: Runner) -> dict:
    """The end-to-end metrics of an untraced run, in reference seconds.

    Each timing is rescaled by the machine's speed around it (see
    ``speed.py``).  A query of the pass is timed by the median of its
    rescaled latencies across cycles; throughput is the pass's queries over
    the sum of those, the median latency is theirs, and the tail is their
    value at the highest ladder percentile that has at least ten of the
    run's samples beyond it.  Set-up time is the median rescaled set-up.
    """
    def rescaled(start, end, seconds):
        return seconds * runner.speed.scale(start, end)

    per_query, raw = {}, {}
    for cycle in runner.cycle_latencies:
        for qid, timing in cycle.items():
            per_query.setdefault(qid, []).append(rescaled(*timing))
            raw.setdefault(qid, []).append(timing[2])
    if not per_query:
        raise RuntimeError("no query completed")
    typical = sorted(statistics.median(v) for v in per_query.values())
    samples = sum(len(v) for v in per_query.values())
    pct = tail_percentile(samples)
    raw_typical = [statistics.median(v) for v in raw.values()]
    print(f"latencies: median of {len(runner.cycle_latencies)} cycles for each of "
          f"{len(typical)} queries; query_ms.tail is p{pct}, which has "
          f"{beyond(samples, pct)} of {samples} samples beyond it")
    print(f"raw (not rescaled): {len(raw_typical) / sum(raw_typical):.4g} queries/s, "
          f"p50 {statistics.median(raw_typical) * 1e3:.4g} ms; machine speed "
          f"{speed.REFERENCE_KERNEL_S / statistics.median(runner.speed.kernel):.3f} "
          "of reference")
    return {
        "setup_s": (statistics.median(rescaled(*t) for t in runner.setup_times), "s"),
        "queries_per_s": (len(typical) / sum(typical), "1/s"),
        "query_ms.p50": (statistics.median(typical) * 1e3, "ms"),
        "query_ms.tail": (percentile(typical, pct) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "qsheaf", "__init__.py")):
        print(f"error: no qsheaf package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import qsheaf.cache
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup, reference_cycle_s = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    qsheaf.cache.set_store(None)  # library workloads never touch a disk store
    signal.signal(signal.SIGALRM, _alarm)

    runner = Runner(setup, args.seed, args.seconds)
    planned = max(MIN_CYCLES, round(args.seconds / reference_cycle_s))
    started = time.perf_counter()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    walls = {False: [], True: []}
    extras = []
    cycles = 0
    with runner.speed.marking():
        while cycles < planned and (cycles < MIN_CYCLES or time.perf_counter() - started
                                    < OVERRUN * args.seconds):
            traced = tracer is not None and cycles % 2 == 1
            if traced:
                try:
                    tracer.install()
                except tracing.TraceBindingError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 3
            try:
                done = runner.cycle(tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            cycles += 1
            if done is None:
                break
            wall, scale, extra = done
            walls[traced].append(wall * scale)
            if traced:
                tracer.cycle_done(scale)
                extras.append(extra)

    if not any(runner.cycle_latencies) or not walls[tracer is not None]:
        metrics = {}  # nothing completed to time; `failed` carries the outcome
    elif tracer:
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(path)
        untraced = statistics.median(walls[False])
        overhead = statistics.median(walls[True]) - untraced
        metrics = tracer.metrics(len(walls[True]), extras, overhead)
        print(f"trace: {len(walls[True])} traced and {len(walls[False])} untraced cycles, "
              f"overhead {overhead:+.3f} reference s per cycle ({overhead / untraced:+.1%}); "
              f"spans in {os.path.relpath(path, ROOT)}")
    else:
        metrics = end_to_end(runner)
        metrics["fail_ratio"] = (len(runner.failures) / runner.attempted, "ratio")

    failed = len(runner.failures)
    for problem in runner.failures[:20]:
        print(f"FAILED {problem}")
    print(f"workload {args.workload}, seed {args.seed}: {cycles} cycles in "
          f"{time.perf_counter() - started:.1f} s, {runner.attempted} queries attempted, "
          f"{failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}")
    metrics.pop("fail_ratio", None)  # zero when healthy; carried by `failed` below
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
