"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload study_campaign --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` repeats seeded workload units until ``--seconds`` of timed
window have passed and prints the end-to-end metrics.  Every time
reported is read on the paced clock of ``pace.py``: wall time with each
25 ms slice rescaled by how fast a fixed reference kernel ran in it, so
that a shared processor running slower for a while does not move the
figures; the run's length is counted in plain wall time.  ``--trace 1``
runs the seed's first unit in pairs, once untraced and once with every
public function in ``tracing.SPAN_TARGETS`` wrapped in a span, at least
two pairs and until ``--seconds`` of traced window have passed; it
prints the per-layer metrics and the tracing overhead (traced minus
untraced end-to-end figures), checks that every count repeats exactly,
and writes the first traced unit's spans to ``.perfbench_work/``.

Human-readable lines come first; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` whose
metrics are the ``end_to_end`` (or, traced, ``per_layer``) entries of
``BENCHMARK.json``.  The exit code is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".perfbench_work")
#: Set-up is timed at least MIN_SETUPS times per run, and more (up to
#: MAX_SETUPS) while the set-ups took under SETUP_BUDGET_S; the median
#: is reported.
MIN_SETUPS = 5
MAX_SETUPS = 25
SETUP_BUDGET_S = 1.0
#: No new unit starts after this much wall time, to stay within limits.
WALL_CAP_S = 120.0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def percentile_ms(samples: List[float], q: float) -> float:
    return float(np.percentile(samples, q)) * 1e3


@dataclass
class UnitResult:
    """What is kept of one finished unit; the unit itself is freed."""

    setup_s: float
    samples: Dict[str, List[float]]
    ops: int
    window: Any
    outcome: Any


def run_unit(cls, seed: int, *, size: str, recorder=None) -> UnitResult:
    """Set up, run, check and close one unit."""
    from perfbench import pace

    unit = cls(seed, WORKDIR, size=size)
    try:
        start = pace.now()
        unit.setup()
        setup_s = pace.now() - start
        unit.run(recorder=recorder)
        outcome = unit.check()
    finally:
        unit.close()
    result = UnitResult(setup_s, unit.samples, unit.ops, unit.window, outcome)
    del unit
    gc.collect()  # the next unit starts on a clean heap
    return result


def pooled(units: List[UnitResult], kind: str) -> List[float]:
    return [s for u in units for s in u.samples[kind]]


def throughput(units: List[UnitResult]) -> float:
    """Median over units of operations per second of timed window, so
    that one unit slowed by other load on the machine does not move it."""
    return statistics.median(u.ops / u.window.wall_s for u in units)


def end_to_end(units: List[UnitResult], setups: List[float]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms_p50": percentile_ms(pooled(units, "op"), 50),
        "ops_per_s": throughput(units),
    }


def named(cls, units) -> List[Tuple[str, float, str, int]]:
    """The workload's own figures: (name, value, unit, sample count)."""
    out = []
    for name, kind, q, scale, unit_name in cls.REPORT:
        if kind == "throughput":
            n = sum(u.ops for u in units)
            value = throughput(units)
        else:
            samples = pooled(units, kind)
            n = len(samples)
            value = percentile_ms(samples, q) / 1e3 * scale
        out.append((name, value, unit_name, n))
    return out


def measure(cls, seed: int, seconds: float, size: str):
    """Untraced units until ``seconds`` of timed window have passed."""
    from perfbench import pace
    from perfbench.workloads import unit_seed

    start = time.perf_counter()
    units: List[UnitResult] = []
    setups: List[float] = []
    timed_s = 0.0
    while not units or (
        timed_s < seconds and time.perf_counter() - start < WALL_CAP_S
    ):
        unit = run_unit(cls, unit_seed(seed, len(setups)), size=size)
        units.append(unit)
        setups.append(unit.setup_s)
        timed_s += unit.window.raw_s
    while len(setups) < MIN_SETUPS or (
        sum(setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS
    ):
        unit = cls(unit_seed(seed, len(setups)), WORKDIR, size=size)
        try:
            t0 = pace.now()
            unit.setup()
            setups.append(pace.now() - t0)
        finally:
            unit.close()
        del unit
        gc.collect()
    return units, setups


def trace(cls, seed: int, seconds: float, size: str, spans_path: str):
    """Pairs of untraced and traced runs of unit 0, at least two pairs.

    Returns the untraced units and the traced (unit, counts, times)
    triples.
    """
    from perfbench.tracing import SpanRecorder, per_layer
    from perfbench.workloads import unit_seed

    seed0 = unit_seed(seed, 0)
    bases: List[UnitResult] = []
    reps = []
    timed_s = 0.0
    start = time.perf_counter()
    while len(reps) < 2 or (
        timed_s < seconds and time.perf_counter() - start < WALL_CAP_S
    ):
        bases.append(run_unit(cls, seed0, size=size))
        recorder = SpanRecorder()
        with recorder.installed():
            unit = run_unit(cls, seed0, size=size, recorder=recorder)
        if not reps:
            recorder.write_jsonl(spans_path)
        reps.append((unit, *per_layer(recorder, unit.window)))
        timed_s += unit.window.raw_s
    return bases, reps


def traced_metrics(bases, reps) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics (median times over repetitions) + problems."""
    problems = []
    counts = reps[0][1]
    for _, other, _ in reps[1:]:
        for name, value in counts.items():
            if other[name] != value:
                problems.append(
                    f"{name} differs between two runs of one seed: "
                    f"{value} vs {other[name]}"
                )
    traced_units = [unit for unit, _, _ in reps]
    if any(u.window.counters != bases[0].window.counters for u in bases + traced_units):
        problems.append("program counters differ between runs of one seed")
    metrics = dict(counts)
    for name in reps[0][2]:
        metrics[name] = statistics.median(times[name] for _, _, times in reps)
    for name in ("op_ms_p50", "ops_per_s"):
        traced = statistics.median(end_to_end([u], [0.0])[name] for u in traced_units)
        untraced = statistics.median(end_to_end([u], [0.0])[name] for u in bases)
        metrics[f"trace.overhead.{name}"] = traced - untraced
    return metrics, problems


def result_line(spec_metrics, values, *, correct, attempted, failed) -> str:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in spec_metrics
            },
        }
    )


def main(argv: Optional[List[str]] = None, *, size: str = "full") -> int:
    """The command; ``size="tiny"`` shrinks every unit (smoke test only)."""
    args = parse_args(argv)
    sys.path[:0] = [ROOT]
    from perfbench import pace

    pace.CLOCK.start()
    try:
        return _main(args, size, pace.CLOCK)
    finally:
        pace.CLOCK.stop()


def _main(args: argparse.Namespace, size: str, clock) -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: program sources not found under src/repro", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path[:0] = [os.path.join(ROOT, "src")]
    from perfbench.workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(WORKDIR, exist_ok=True)
    print(f"workload {cls.name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")

    if args.trace:
        spans_path = os.path.join(WORKDIR, f"spans-{cls.name}.jsonl")
        bases, reps = trace(cls, args.seed, args.seconds, size, spans_path)
        units = bases + [unit for unit, _, _ in reps]
        values, problems = traced_metrics(bases, reps)
        spec_metrics = spec["per_layer"]
        print(f"units: {len(reps)} traced, {len(bases)} untraced; spans of the first "
              f"in {os.path.relpath(spans_path, ROOT)}")
        print_layers(values)
    else:
        units, setups = measure(cls, args.seed, args.seconds, size)
        values, problems = end_to_end(units, setups), []
        spec_metrics = spec["end_to_end"]
        print(f"units: {len(units)}  set-ups timed: {len(setups)}")
        for name, value, unit_name, n in named(cls, units):
            print(f"  {name:34s} {value:14.4f} {unit_name:8s} (n={n})")

    attempted = sum(u.outcome.attempted for u in units)
    failed = sum(u.outcome.failed for u in units)
    for unit in units:
        problems.extend(unit.outcome.problems)
    print(f"  {'failed_ratio':34s} {failed / max(1, attempted):14.4f} "
          f"{'fraction':8s} ({failed} of {attempted})")
    for metric in spec_metrics:
        if not metric["name"].endswith((".calls", ".self_s")):  # in the table
            print(f"  {metric['name']:34s} {values[metric['name']]:14.4f} "
                  f"{metric['unit']}")
    print(f"  pace: {clock.summary()}")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    correct = not problems and failed == 0
    print(result_line(spec_metrics, values, correct=correct,
                      attempted=attempted, failed=failed))
    return 0 if correct else 1


def print_layers(values: Dict[str, Any]) -> None:
    """Self time per span, largest first, with its share of the window."""
    wall = values["trace.wall_s"]
    rows = sorted(
        (name[: -len(".self_s")] for name in values if name.endswith(".self_s")),
        key=lambda n: -values[n + ".self_s"],
    )
    print(f"  {'span':28s} {'calls':>9s} {'self s':>10s} {'share':>7s}")
    for name in rows:
        self_s = values[name + ".self_s"]
        print(f"  {name:28s} {values[name + '.calls']:9d} {self_s:10.4f} "
              f"{self_s / wall:7.1%}")
    print(f"  {'(no listed span)':28s} {'':9s} "
          f"{values['trace.uncovered_share'] * wall:10.4f} "
          f"{values['trace.uncovered_share']:7.1%}")


if __name__ == "__main__":
    sys.exit(main())
