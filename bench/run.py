"""Benchmark for ramseylift: one workload per run, closed loop, one thread.

    python3 bench/run.py --workload {arrow,factorize,pipeline} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ``src/``.  Set-up
(importing ramseylift and building the workload's inputs from the seed) is
timed in this process and, with ``--trace 0``, in four fresh child processes,
one at a time.  Then whole rounds of the workload run for about ``--seconds``
(at least three rounds); each operation's result is checked.  With
``--trace 0`` every round is untraced and the end-to-end metrics are
printed.  With ``--trace 1`` rounds alternate between untraced and traced,
spans go to ``bench/out/`` and the per-layer metrics are printed, per traced
round.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("arrow", "factorize", "pipeline")
SETUP_PROBES = 4  # child processes; with this process, set-up is the median of five
SHOWN_FAILURES = 5
MIN_ROUNDS = 3  # an operation's latency is taken over at least this many repetitions

LAYERS = ("oracle", "structures", "words", "graph_encoding", "poset_encoding",
          "ultrametric_encoding", "metric_encoding", "cli", "bench")
SPANS = (
    "oracle.decide", "oracle.check_coloring", "oracle.gr",
    "structures.enumerate", "structures.compose",
    "words.enumerate", "words.compose",
    *(f"{enc}.{call}" for enc in ("graph_encoding", "poset_encoding",
                                  "ultrametric_encoding", "metric_encoding")
      for call in ("encode", "phi", "witness")),
    *(f"cli.{verb}" for verb in ("word", "structure", "encode", "phi", "witness", "pa-check",
                                 "spectrum", "arrow", "transfer-demo", "fixture")),
    "bench.op",
)
COUNTS = (  # recorded by the workloads
    "oracle.colorings_checked", "oracle.gr_colorings_checked", "structures.embeddings",
    "words.words", "cli.stdout_bytes", "harness.transfer_colorings",
)
CALLS = {  # counted from the spans: metric -> span name prefix
    "words.compose_calls": "words.compose",
    **{f"{enc}.calls": f"{enc}." for enc in ("graph_encoding", "poset_encoding",
                                             "ultrametric_encoding", "metric_encoding")},
    "cli.calls": "cli.",
}
END_TO_END = (("wall_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def per_layer_metrics():
    """(name, unit) of every per-layer metric; values are per traced round."""
    return ([(f"{span}_s", "s/round") for span in SPANS]
            + [("cli.main_s", "s/round")]
            + [(f"{layer}.self_s", "s/round") for layer in LAYERS]
            + [(name, "count/round") for name in (*COUNTS, *CALLS)]
            + [("oracle.colorings_per_s", "1/s"), ("trace.spans", "count/round"),
               ("trace.overhead_s", "s/round")])


class Meter:
    """Times each operation and counts the ones that raise."""

    def __init__(self):
        self.tracer = NullTracer()
        self.rounds: list[list[float]] = []  # per round, each operation's latency
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.rounds)

    def run(self, workload, tracer) -> None:
        """One round, with every call going through ``tracer``."""
        self.tracer = tracer
        self.rounds.append([])
        workload.run_round(self)

    def op(self, label, fn, *args):
        tr = self.tracer
        tr.start_op(self.attempted)
        start = time.perf_counter()
        try:
            result = tr.call("bench.op", fn, tr, *args)
        except Exception as exc:  # a wrong result or an unexpected error: count it, go on
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            result = None
        self.rounds[-1].append(time.perf_counter() - start)
        return result


def op_latencies(rounds) -> list[float]:
    """Each operation's latency, in round order: the 90th percentile of its
    repetitions across the rounds.

    A shared VM alternates between its usual speed and bursts about 1.5x
    faster, in spells from under a second to minutes, so a median or a
    minimum over a run depends on how much of the run fell in fast spells.
    Each operation repeats deterministic work, and the usual speed recurs in
    every spell, so the slow end of its repetitions is steady; the 90th
    percentile rather than the maximum keeps one stray hiccup out once
    there are ten or more rounds.  A change to the program moves every
    repetition, this one too."""
    return [statistics.quantiles(op, n=10, method="inclusive")[8] if len(op) > 1 else op[0]
            for op in zip(*rounds)]


def round_wall(rounds) -> float:
    """Wall time of one round: the sum of its operations' latencies."""
    return sum(op_latencies(rounds))


def set_up(name, seed):
    """Import ramseylift and build the inputs; returns (workload, seconds)."""
    start = time.perf_counter()
    import workloads  # imports ramseylift

    workload = workloads.WORKLOADS[name](seed)
    return workload, time.perf_counter() - start


def probe_setup(name, seed) -> float:
    """Set-up time measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def measure(workload, seconds, tracer=None):
    """Run whole rounds while the next one is expected to end, at least half
    of it, within ``seconds``; with a tracer every second round is traced.
    Returns the meter and whether each round was traced."""
    meter, traced = Meter(), []
    untraced = NullTracer()
    deadline, longest = time.perf_counter() + seconds, 0.0
    while len(traced) < MIN_ROUNDS or time.perf_counter() + longest / 2 < deadline:
        traced.append(tracer is not None and len(traced) % 2 == 1)
        began = time.perf_counter()
        meter.run(workload, tracer if traced[-1] else untraced)
        longest = max(longest, time.perf_counter() - began)
    return meter, traced


def end_to_end(meter, setup_times):
    ms = [t * 1000 for t in op_latencies(meter.rounds)]
    return {
        "wall_s": round_wall(meter.rounds),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10)[8],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, meter, traced):
    n = sum(traced)
    durations, counts, self_times = tracer.durations(), tracer.counts, tracer.self_times()
    values = {f"{span}_s": durations[span] / n for span in SPANS}
    values["cli.main_s"] = sum(v for k, v in durations.items() if k.startswith("cli.")) / n
    values.update({f"{layer}.self_s": self_times[layer] / n for layer in LAYERS})
    values.update({name: counts[name] / n for name in COUNTS})
    values.update({name: sum(1 for span in tracer.spans if span[0].startswith(prefix)) / n
                   for name, prefix in CALLS.items()})
    decide = durations["oracle.decide"]
    values["oracle.colorings_per_s"] = counts["oracle.colorings_checked"] / decide if decide else 0.0
    values["trace.spans"] = len(tracer.spans) / n
    # as many untraced rounds as traced ones, so that both estimates rest on
    # the same number of repetitions
    traced_rounds = [r for r, t in zip(meter.rounds, traced) if t]
    untraced_rounds = [r for r, t in zip(meter.rounds, traced) if not t][:n]
    values["trace.overhead_s"] = round_wall(traced_rounds) - round_wall(untraced_rounds)
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=32.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ramseylift" / "__init__.py").is_file():
        print(f"error: no ramseylift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload, first_setup = set_up(args.workload, args.seed)
    try:
        if args.setup_probe:
            print(first_setup)
            return 0
        setup_times = [first_setup]
        if not args.trace:
            setup_times += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        tracer = Tracer() if args.trace else None
        meter, traced = measure(workload, args.seconds, tracer)
    finally:
        workload.close()

    failed = len(meter.failures)
    print(f"workload {args.workload} seed {args.seed}: {len(traced)} rounds, "
          f"{meter.attempted} ops, {failed} failed (failed_ops {failed / meter.attempted} ratio)")
    for line in meter.failures[:SHOWN_FAILURES]:
        print(f"  failed: {line}")
    if tracer is None:
        values = end_to_end(meter, setup_times)
        units = dict(END_TO_END)
        print(f"  each operation's p90 latency over {len(traced)} rounds; wall_s: their sum; "
              f"op percentiles over the {len(meter.rounds[0])} operations of a round; "
              f"setup_s: median of {len(setup_times)} set-ups")
    else:
        values = per_layer(tracer, meter, traced)
        units = dict(per_layer_metrics())
        from workloads import OUT_DIR

        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans)
        print(f"  {sum(traced)} traced rounds of {len(traced)}; "
              f"spans in {spans.relative_to(ROOT)}")
    for name, value in values.items():
        print(f"  {name} {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": meter.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
