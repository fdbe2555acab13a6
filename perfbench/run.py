"""The ptasynth benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and from nowhere else.  One process, one thread.

A run sets up (fresh import of the library, corpus generation,
rendering to text) SETUP_REPEATS times before the first pass and once
after every pass, and reports their ``usual`` figure as ``setup_s``.  It
passes over the corpus until ``S`` seconds have gone since the run
started, and at least MIN_PASSES times.  Each answer of the first pass is checked against an
independent oracle right after its item, outside the timing (the
correctness gate); later passes must reproduce the first pass's answers.

With ``--trace 0`` the last line of output holds the end-to-end metrics.
With ``--trace 1`` the passes after the first run every item twice in a
row, once plain and once with every layer wrapped (see ``spans.py``), and
the last line holds the per-layer metrics.  The line before it is an
``info`` object with the environment and the details behind the
metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 5
MIN_PASSES = 3
WORKLOADS = ("synth-dense", "synth-nat", "run-region", "analyze2-shipped")
TAIL_BEYOND = 10                 # samples beyond the reported tail percentile


class BenchError(Exception):
    pass


def _load(workload: str, seed: int):
    """One set-up: a fresh import of the library and of the workloads, then
    the corpus for the seed.  Returns the workloads module and the corpus."""
    for name in _own_modules():
        del sys.modules[name]
    workloads = importlib.import_module("workloads")
    return workloads, workloads.CORPORA[workload](seed)


def _own_modules():
    return [name for name in sys.modules
            if name in ("ptasynth", "workloads") or name.startswith("ptasynth.")]


def time_setup(workload: str, seed: int) -> float:
    """Seconds one more set-up takes.  The modules it imports are then
    dropped again: the library imports some names inside functions, which
    would otherwise mix classes of two imports in one call."""
    kept = {name: sys.modules[name] for name in _own_modules()}
    start = time.perf_counter()
    _load(workload, seed)
    elapsed = time.perf_counter() - start
    for name in _own_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    gc.collect()                 # so that the next pass does not pay for the drop
    return elapsed


def _setup(workload: str, seed: int):
    """Set up SETUP_REPEATS times; returns the last set-up and the times."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workloads, corpus = _load(workload, seed)
        times.append(time.perf_counter() - start)
    import ptasynth

    if Path(ptasynth.__file__).resolve().parent != (SRC / "ptasynth").resolve():
        raise BenchError("ptasynth was imported from %s, not from %s"
                         % (ptasynth.__file__, SRC))
    return workloads, corpus, times


def _digest(answer) -> str:
    return hashlib.sha256(repr(answer).encode()).hexdigest()


def _failure(item, exc) -> str:
    """One line naming the item, the exception and where it was raised."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return "%s: %s: %s (%s:%d)" % (item.label, type(exc).__name__, exc,
                                   Path(frame.filename).name, frame.lineno)


def _first_pass(workloads, corpus):
    """Time every item once and check each answer right after it, outside
    the timing, so that no answer outlives its check.

    Returns per-item latencies (None for an item that raised), digests of
    the answers, the failures, the wrong answers, the calls into traced
    layers the answers imply, and the time the checks took."""
    latencies, digests, failed, wrong, calls, gate_s = [], [], [], [], Counter(), 0.0
    for item in corpus:
        start = time.perf_counter()
        try:
            answer, detail = workloads.run_item(item)
        except Exception as exc:               # refused or crashed: a failed item
            failed.append(_failure(item, exc))
            latencies.append(None)
            digests.append(None)
            continue
        latencies.append(time.perf_counter() - start)
        digests.append(_digest(answer))
        start = time.perf_counter()
        try:
            workloads.check(item, answer, detail)
        except workloads.GateError as exc:
            wrong.append(str(exc))
        except Exception as exc:               # e.g. a schema violation
            wrong.append("gate: " + _failure(item, exc))
        calls.update(workloads.expected_calls(item, answer, detail))
        gate_s += time.perf_counter() - start
    return latencies, digests, failed, wrong, calls, gate_s


def _timed(call, item, want, failed, wrong):
    """Seconds ``call(item)`` took, or None if it raised.  The answer must
    have the digest ``want``."""
    start = time.perf_counter()
    try:
        answer, _ = call(item)
    except Exception as exc:
        failed.append(_failure(item, exc))
        return None
    elapsed = time.perf_counter() - start
    if _digest(answer) != want:
        wrong.append("%s: answer differs from the first pass" % item.label)
    return elapsed


def _repeat_pass(workloads, corpus, digests, failed, wrong):
    """Timings of one more pass over the corpus, a list per item.  An item
    runs back to back until it has taken ``workloads.REPEAT_FLOOR_S`` for
    its kind (once, for most kinds), or until it fails."""
    out = []
    for item, want in zip(corpus, digests):
        floor = workloads.REPEAT_FLOOR_S.get(item.kind, 0.0)
        times = []
        while not times or sum(times) < floor:
            elapsed = _timed(workloads.run_item, item, want, failed, wrong)
            if elapsed is None:
                break
            times.append(elapsed)
        out.append(times)
    return out


def _tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def usual(times):
    """The 90th percentile (nearest rank) of repeated timings of the same
    work: the slowest of up to nine, the second slowest of ten to nineteen.

    The machine this benchmark was tuned on alternates between two speeds
    about 1.7x apart, in spells of a fraction of a second to a minute, and
    spends most of its time at the slower one.  The fastest of a few
    timings, or their median, then depends on how many of them caught a
    fast spell, and moves by up to the full 1.7x from run to run; a high
    percentile reads the usual, slower speed as long as one timing in ten
    does.  With many timings it still leaves out the rarest stalls."""
    ordered = sorted(times)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _more(passes: int, last_s: float, deadline: float) -> bool:
    """Whether to make another pass: always up to MIN_PASSES, then as long
    as one more, as long as the last one, ends before the deadline."""
    return passes < MIN_PASSES or time.perf_counter() + last_s <= deadline


def end_to_end(workloads, corpus, deadline, between=lambda: None):
    """Pass over the corpus until the deadline, calling ``between()``
    after each pass.

    An item's latency is the ``usual`` of all its timings in all passes;
    the percentiles are taken over the items."""
    start = time.perf_counter()
    first, digests, failed, wrong, _, gate_s = _first_pass(workloads, corpus)
    per_pass = [[[] if x is None else [x] for x in first]]
    last_s = time.perf_counter() - start - gate_s
    between()
    while _more(len(per_pass), last_s, deadline):
        start = time.perf_counter()
        per_pass.append(_repeat_pass(workloads, corpus, digests, failed, wrong))
        last_s = time.perf_counter() - start
        between()
    per_item = [[x for times in item for x in times] for item in zip(*per_pass)]
    samples = [usual(times) for times in per_item if times]
    if not samples:
        raise BenchError("every item failed")
    attempted = sum(map(len, per_item)) + len(failed)
    tail, percentile, n = _tail(samples)
    metrics = {
        "items_per_s": _metric(len(samples) / sum(samples), "1/s"),
        "latency_p50_ms": _metric(1000 * statistics.median(samples), "ms"),
        "latency_tail_ms": _metric(1000 * tail, "ms"),
        "completed_frac": _metric((attempted - len(failed)) / attempted, "frac"),
    }
    info = {"passes": len(per_pass), "fewest_timings": min(map(len, per_item)),
            "tail_percentile": round(percentile, 2),
            "tail_samples": n, "failed_frac": len(failed) / attempted, "gate_s": gate_s}
    return metrics, info, attempted, failed, wrong


def per_layer(workloads, corpus, deadline):
    """After one checked plain pass, make rounds until the deadline (at
    least two) in which every item runs plain and traced back to back, in
    an order that alternates between items, so that a change of machine
    speed hits both sides alike.  Every round must repeat the first
    round's counts exactly, and the spans must match the calls the
    checked answers imply."""
    from spans import ITEM, LAYERS, Tracer

    _, digests, failed, wrong, calls, _ = _first_pass(workloads, corpus)
    plain_s = traced_s = last_s = 0.0
    self_s, counts, rounds = Counter(), None, 0
    while rounds < 2 or time.perf_counter() + last_s <= deadline:
        start = time.perf_counter()
        tracer = Tracer()
        for n, (item, want) in enumerate(zip(corpus, digests)):
            for traced in ((False, True) if (n + rounds) % 2 else (True, False)):
                if not traced:
                    plain_s += _timed(workloads.run_item, item, want, failed, wrong) or 0.0
                    continue
                tracer.install()
                try:
                    traced_s += _timed(lambda i: tracer.span(ITEM, workloads.run_item, i),
                                       item, want, failed, wrong) or 0.0
                finally:
                    tracer.uninstall()
        self_s.update(tracer.self_s)
        snapshot = tracer.snapshot_counts()
        if counts is None:
            counts = snapshot
        elif snapshot != counts:
            wrong.append("trace counts differ between two rounds over the same corpus")
        rounds += 1
        last_s = time.perf_counter() - start
    for layer, n in calls.items():
        if counts.get(layer + ".calls", 0) != n:
            wrong.append("%s: %d spans for %d calls made"
                         % (layer, counts.get(layer + ".calls", 0), n))

    def count(name):
        return counts.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {}
    for layer in LAYERS:
        metrics[layer + ".calls"] = _metric(count(layer + ".calls"), "count")
        metrics[layer + ".self_s"] = _metric(self_s[layer] / rounds, "s")
    for name in ("decomposition.linear.planes", "decomposition.linear.cells",
                 "decomposition.cad1.projected", "decomposition.cad1.cells",
                 "semantics.reach_discrete.states"):
        metrics[name] = _metric(count(name), "count")
    metrics["decomposition.integer_point.found_frac"] = _metric(
        ratio(count("decomposition.integer_point.found"),
              count("decomposition.integer_point.calls")), "frac")
    metrics["feasibility.feasible_frac"] = _metric(
        ratio(count("feasibility.feasible"), count("feasibility.calls")), "frac")
    metrics["semantics.reach_discrete.states_per_s"] = _metric(
        ratio(rounds * count("semantics.reach_discrete.states"),
              self_s["semantics.reach_discrete"]), "1/s")
    metrics["trace.overhead_frac"] = _metric(traced_s / plain_s - 1.0, "frac")
    info = {"trace_rounds": rounds, "plain_pass_s": plain_s / rounds,
            "traced_pass_s": traced_s / rounds,
            "self_frac": {k: v / traced_s for k, v in sorted(self_s.items())},
            "counts_per_pass": counts}
    return metrics, info, (1 + 2 * rounds) * len(corpus), failed, wrong


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + args.seconds

    # Pin the environment: the library's optional thread pools must not
    # change the numbers.
    os.environ.pop("PTASYNTH_THREADS", None)
    if not (SRC / "ptasynth" / "__init__.py").is_file():
        raise BenchError("no library source at %s" % SRC)
    sys.path[:0] = [str(SRC), str(HERE)]

    workloads, corpus, setup_times = _setup(args.workload, args.seed)

    if args.trace:
        metrics, info, attempted, failed, wrong = per_layer(workloads, corpus, deadline)
    else:
        # Set-ups spread over the run, so that their figure does not rest
        # on the machine's speed in the run's first second.
        metrics, info, attempted, failed, wrong = end_to_end(
            workloads, corpus, deadline,
            lambda: setup_times.append(time_setup(args.workload, args.seed)))
        metrics["setup_s"] = _metric(usual(setup_times), "s")
        metrics["peak_rss_mb"] = _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    info.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "items_per_pass": len(corpus), "setup_s": setup_times,
        "wrong": wrong[:5], "failures": failed[:5],
    })
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
