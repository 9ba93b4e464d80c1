"""End-to-end benchmark of the JIT-checkpointing simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``oracle_sweep``, ``campaign_grid``,
``ckpt_store`` or ``all`` (the three, one after another, in this
process).  ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` is the separate traced run that prints the per-layer
metrics and the tracing overhead.  A run makes a fixed number of ops,
sized from ``--seconds``, so a seed always runs, and fails, the same ops.
Every time it reports is rescaled to a nominal host speed measured by a
reference loop (:class:`Calibrated`).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

The benchmark imports ``repro`` from the checkout's own ``src`` and exits
non-zero, printing no result, when that is missing.  See README.md in
this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: Fresh set-ups a timed run makes; ``setup_s`` is their median.  The
#: first builds the state the ops run on; the others are spread evenly
#: through the timed phase, between ops, so that like the ops they sample
#: the host's speed over the whole run rather than at its start.
SETUP_REPEATS = 7
#: Share of ``--seconds`` whose ops the traced run profiles; it then
#: re-runs as many ops untraced to measure the tracing overhead.
TRACE_SHARE = 0.35

#: Reference chunks timed before and after every timed window.
REF_CHUNKS = 5
#: Seconds one reference chunk takes on the nominal host.  Every reported
#: time is rescaled to it: elapsed x REF_NOMINAL_S / (median chunk time
#: around the window).  Set near the average of a shared 2-vCPU Xeon
#: (README.md).
REF_NOMINAL_S = 4.0e-4
#: Interval of the reference chunks timed inside a window.
TICK_S = 0.025

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
    "sim_goodput": "ratio",
}

#: Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in (
        "sim", "cuda", "nccl", "hardware", "framework", "parallel",
        "workloads", "core", "cluster", "failures", "storage", "obs",
        "oracle", "campaign")},
    "sim.events": "count",
    "cuda.launches": "count",
    "cuda.mallocs": "count",
    "nccl.collectives": "count",
    "nccl.p2p": "count",
    "nccl.wait_sim_s": "sim_s",
    "parallel.train_steps": "count",
    "workloads.reference_runs": "count",
    "workloads.reference_s": "s",
    "core.replays": "count",
    "core.replay_s": "s",
    "core.detect_sim_s": "sim_s",
    "core.restart_sim_s": "sim_s",
    "core.resume_sim_s": "sim_s",
    "core.rework_share": "ratio",
    "cluster.restarts": "count",
    "failures.injected": "count",
    "storage.commits": "count",
    "storage.commit_s": "s",
    "storage.plans": "count",
    "storage.plan_s": "s",
    "storage.list_calls": "count",
    "storage.listed_paths": "count",
    "storage.quarantined": "count",
    "storage.objects": "count",
    "obs.ledger_s": "s",
    "obs.metrics_s": "s",
    "obs.trace_records": "count",
    "oracle.invariants_s": "s",
    "trace_overhead": "ratio",
}

#: Fingerprint fields: window totals that must repeat for a seed.
FINGERPRINT = ("sim.events", "storage.commits", "failures.injected",
               "cluster.restarts")


def load_repro():
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    sys.path.insert(0, SRC)
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {SRC}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(os.path.join(SRC, "")):
        sys.exit(f"perfbench: repro came from {repro.__file__}, not {SRC}")


def _ref_chunk() -> None:
    table = {}
    for i in range(2000):
        table[i & 255] = i * i % 7
        table.get((i * 7) & 255, 0)


def ref_times() -> list[float]:
    """Times of :data:`REF_CHUNKS` runs of a fixed pure-Python loop."""
    times = []
    for _ in range(REF_CHUNKS):
        start = time.perf_counter()
        _ref_chunk()
        times.append(time.perf_counter() - start)
    return times


class Calibrated:
    """Times one window and rescales it to the nominal host speed.

    The host's CPU speed drifts by up to 1.8x within seconds and between
    minutes (README.md).  A fixed reference chunk is timed right before
    and right after the window and, when ``sample`` is set, every
    :data:`TICK_S` inside it from a ``SIGALRM`` handler; the handler's own
    time is taken out of the window.  ``scaled`` is the elapsed time
    multiplied by ``REF_NOMINAL_S`` over the median chunk time, so a slow
    phase of the host stretches both and cancels out.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        _ref_chunk()
        now = time.perf_counter()
        self.chunks.append(now - start)
        self.stolen += now - start

    def start(self) -> None:
        self.chunks = ref_times()
        self.stolen = 0.0
        if self.sample:
            self.previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        self.started = time.perf_counter()

    def stop(self) -> None:
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        if self.sample:
            signal.signal(signal.SIGALRM, self.previous)
        self.elapsed = end - self.started - self.stolen
        speed = statistics.median(self.chunks + ref_times())
        self.scaled = self.elapsed * REF_NOMINAL_S / speed


class OpLoop:
    """Runs a fixed number of ops through a workload's ``drive``.

    Each op window covers the op alone: the ``idle`` hook, the workload's
    between-op work, ``gc.collect()`` and the output check happen outside
    it, and the reference-loop timings inside it are taken out.  The loop ends after ``ops`` ops,
    so a seed always runs the same ops and fails the same ones.
    Simulated-goodput parts are kept for the first
    ``workload.goodput_window`` ops and per-op counts for the first
    ``workload.window``: fixed windows, so both are deterministic.
    """

    def __init__(self, workload, ops: int, profiler=None, on_window=None,
                 idle=None):
        self.workload = workload
        self.ops = ops
        self.profiler = profiler
        self.on_window = on_window
        self.idle = idle
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.failed: list[tuple[str, str]] = []
        self.window_failed = 0
        self.counts: list[dict] = []
        self.goodput: list[tuple] = []
        self.clock = Calibrated(sample=profiler is None)

    def run(self, start: int = 0) -> "OpLoop":
        self.workload.drive(start, self)
        return self

    def before(self, i: int) -> None:
        if self.idle is not None:
            self.idle(len(self.latencies))
        self.workload.between(i)
        gc.collect()
        self.clock.start()
        if self.profiler is not None:
            self.profiler.enable()

    def after(self, i: int, result, error) -> bool:
        if self.profiler is not None:
            self.profiler.disable()
        self.clock.stop()
        self.latencies.append(self.clock.elapsed)
        self.scaled.append(self.clock.scaled)
        done = len(self.latencies)
        in_window = done <= self.workload.window
        if error is not None:
            reason = f"raised {type(error).__name__}: {error}"
        else:
            if in_window:
                self.counts.append(self.workload.counts(i, result))
            if done <= self.workload.goodput_window:
                self.goodput.append(self.workload.goodput_parts(i, result))
            reason = self.workload.check(i, result)
        if reason is not None:
            self.failed.append((self.workload.op_id(i), reason))
            self.window_failed += in_window
        if done == self.workload.window and self.on_window is not None:
            self.on_window()
        return done < self.ops

    # -- summaries ----------------------------------------------------------------

    def total(self, name: str):
        return sum((c.get(name, 0) for c in self.counts), 0)

    def sim_goodput(self) -> float:
        productive = sum((p for p, _t in self.goodput), Fraction(0))
        total = sum((t for _p, t in self.goodput), Fraction(0))
        return float(productive / total) if total else 0.0


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """(value, percentile, ops beyond): the highest percentile with at
    least ten ops beyond it (the maximum when there are ten or fewer)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, 0
    return ordered[n - 11], (100 * (n - 10)) // n, 10


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- the timed run --------------------------------------------------------------------


def planned_ops(cls, seconds: float, least: int) -> int:
    """Ops a run of ``seconds`` makes: a fixed count, whole blocks of the
    workload's op mix, sized at its nominal rate and never below ``least``
    (the deterministic window the run reports over)."""
    blocks = max(1, round(seconds * cls.ops_per_second / cls.block))
    return max(blocks * cls.block, least)


def timed_run(cls, seed: int, seconds: float):
    setups = []

    def fresh_setup():
        gc.collect()
        workload = cls(seed)
        clock = Calibrated()
        clock.start()
        workload.setup()
        clock.stop()
        setups.append(clock)
        return workload

    workload = fresh_setup()
    workload.prepare()
    ops = planned_ops(cls, seconds, max(cls.goodput_window, cls.window))
    due = [round(k * ops / SETUP_REPEATS) for k in range(1, SETUP_REPEATS)]

    def idle(done: int):
        if done in due:
            fresh_setup()

    loop = OpLoop(workload, ops, idle=idle).run()
    lat = loop.scaled
    attempted = len(lat)
    tail_value, tail_pct, beyond = tail(lat)
    setup_times = [clock.scaled for clock in setups]
    raw_setup = statistics.median(clock.elapsed for clock in setups)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": attempted / sum(lat),
        "op_s.p50": statistics.median(lat),
        "op_s.tail": tail_value,
        "ok_share": 1.0 - len(loop.failed) / attempted,
        "peak_rss_mb": peak_rss_mb(),
        "sim_goodput": loop.sim_goodput(),
    }
    notes = {
        "setup_s": (f"median of {len(setup_times)} set-ups, "
                    f"{min(setup_times):.4f}-{max(setup_times):.4f} s; "
                    f"unscaled {raw_setup:.4f} s"),
        "ops_per_s": (f"unscaled {attempted / sum(loop.latencies):.6g} 1/s, "
                      f"host at {loop_speed(loop):.3f}x nominal"),
        "op_s.p50": f"unscaled {statistics.median(loop.latencies):.6g} s",
        "op_s.tail": f"p{tail_pct}, {beyond} of {attempted} ops beyond",
        "ok_share": (f"fail_share {len(loop.failed) / attempted:.4f} "
                     f"({len(loop.failed)} of {attempted})"),
        "sim_goodput": f"over the first {workload.goodput_window} ops",
    }
    report(cls.name, seed, seconds, loop, metrics, END_TO_END, notes)
    return attempted, loop.failed, metrics


def loop_speed(loop: OpLoop) -> float:
    """Host speed over a loop's op windows relative to the nominal host."""
    return sum(loop.scaled) / sum(loop.latencies)


# -- the traced run -------------------------------------------------------------------


def traced_run(cls, seed: int, seconds: float):
    import layers

    workload = cls(seed)
    workload.setup()
    workload.prepare()
    calls, times = layers.entry_points()
    profiler = cProfile.Profile()
    window = {}
    with layers.ListCounter() as lister:
        def on_window():
            profiler.create_stats()
            window.update(layers.call_counts(profiler.stats, calls))
            window["storage.listed_paths"] = lister.paths

        traced = OpLoop(workload,
                        planned_ops(cls, seconds * TRACE_SHARE, cls.window),
                        profiler=profiler, on_window=on_window).run()
    profiler.create_stats()
    stats = profiler.stats
    n = len(traced.latencies)
    untraced = OpLoop(workload, n).run(
        start=0 if workload.replayable else n)

    k = min(n, workload.window)
    metrics = {name: 0.0 for name in PER_LAYER}
    own = layers.self_times(stats, os.path.join(SRC, "repro"))
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = own.get(layer, 0.0) / n
    for name, seconds_in in layers.inclusive_times(stats, times).items():
        metrics[name] = seconds_in / n
    for name, count in window.items():
        metrics[name] = count / k
    for name in ("sim.events", "cluster.restarts", "storage.objects",
                 "obs.trace_records"):
        metrics[name] = traced.total(name) / k
    for phase in ("detect", "restart", "resume"):
        observed = traced.total(f"phase.{phase}_count")
        metrics[f"core.{phase}_sim_s"] = (
            float(traced.total(f"phase.{phase}_sum") / observed)
            if observed else 0.0)
    ledger_total = traced.total("ledger_total")
    metrics["core.rework_share"] = (
        float(traced.total("rework") / ledger_total) if ledger_total else 0.0)
    metrics["nccl.wait_sim_s"] = float(traced.total("nccl.wait_sum")) / k
    metrics["trace_overhead"] = sum(untraced.scaled) / sum(traced.scaled)

    fingerprint = {name: (window[name] if name in window
                          else traced.total(name)) for name in FINGERPRINT}
    fingerprint["failed_ops"] = traced.window_failed
    fingerprint = {name: int(value) for name, value in fingerprint.items()}
    unattributed = own.get("unattributed", 0.0) + own.get("repro", 0.0)
    notes = {
        "trace_overhead": (f"traced {n / sum(traced.scaled):.3f} ops/s / "
                           f"untraced {n / sum(untraced.scaled):.3f} ops/s"
                           " (lower = more overhead)"),
        "sim.events": f"counts are per op over the first {k} ops",
        "sim.self_s": (f"self times are per op over {n} traced ops; "
                       f"{unattributed / n:.4f} s/op outside the layers"),
    }
    report(cls.name, seed, seconds, traced, metrics, PER_LAYER, notes)
    print(f"fingerprint {cls.name} seed={seed}: "
          + json.dumps(fingerprint, sort_keys=True))
    return n + len(untraced.latencies), traced.failed + untraced.failed, metrics


# -- output -----------------------------------------------------------------------------


def report(name, seed, seconds, loop, metrics, units, notes) -> None:
    print(f"{name} seed={seed} seconds={seconds:g}: "
          f"{len(loop.latencies)} ops, {len(loop.failed)} failed")
    for op_id, reason in loop.failed:
        print(f"  FAILED op {op_id}: {reason}")
    for metric, unit in units.items():
        note = f"   ({notes[metric]})" if metric in notes else ""
        print(f"  {metric:<26} {metrics[metric]:>14.6g} {unit}{note}")


def result_line(attempted: int, failed: list, metrics: dict, units: dict,
                correct: bool) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name.split("/")[-1]]}
                    for name, value in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_repro()
    from workloads import WORKLOADS, WRONG

    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)} or all")
    units = PER_LAYER if args.trace else END_TO_END
    attempted, failed, metrics = 0, [], {}
    silent_wrong = False
    for cls in chosen:
        run = traced_run if args.trace else timed_run
        n, bad, values = run(cls, args.seed, args.seconds)
        attempted += n
        failed += bad
        silent_wrong |= any(reason.startswith(WRONG) for _op, reason in bad)
        prefix = "" if len(chosen) == 1 else f"{cls.name}/"
        metrics.update({prefix + k: v for k, v in values.items()})
    print(result_line(attempted, failed, metrics, units, not silent_wrong))
    return 0


if __name__ == "__main__":
    sys.exit(main())
