"""Smoke test of the benchmark itself, at a tiny size.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric BENCHMARK.json names is emitted with its
unit, that traced self times add up, that the intent checks catch a
stale answer, and that the command fails cleanly without the program.
"""

from __future__ import annotations

import fnmatch
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import pace, run  # noqa: E402
from perfbench.tracing import SPAN_NAMES  # noqa: E402
from perfbench.workloads import WORKLOADS, BestPathIntents  # noqa: E402
from repro.suite.config import PATHS_COLLECTION  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
with open(os.path.join(ROOT, "perfbench", "spec.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(capsys, workload: str, trace: int):
    code = run.main(
        ["--workload", workload, "--seed", "7", "--seconds", "0.01",
         "--trace", str(trace)],
        size="tiny",
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_emitted(capsys, workload):
    code, lines, result = _run(capsys, workload, 0)
    assert code == 0, "\n".join(lines)
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # The workload's own figures are printed by name and unit too.
    for name, _, _, _, unit in WORKLOADS[workload].REPORT:
        assert any(line.split()[:1] == [name] and unit in line for line in lines)
    assert any(line.split()[:1] == ["failed_ratio"] for line in lines)


_OPERATION = {
    "study_campaign": "suite.measure_path",
    "best_path_intents": "upin.apply_intent",
    "monitor_1000": "monitor.after_round",
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run(capsys, workload):
    code, lines, result = _run(capsys, workload, 1)
    assert code == 0, "\n".join(lines)
    metrics = result["metrics"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    values = {k: v["value"] for k, v in metrics.items()}
    self_times = [v for k, v in values.items() if k.endswith(".self_s")]
    assert all(v >= -1e-9 for v in self_times)
    assert sum(self_times) <= values["trace.wall_s"] + 1e-9
    assert 0.0 <= values["trace.uncovered_share"] <= 1.0
    assert values[f"{_OPERATION[workload]}.calls"] > 0


def test_intent_checks_catch_stale_answers(tmp_path):
    unit = BestPathIntents(11, str(tmp_path), size="tiny")
    try:
        unit.setup()
        unit.run()
        assert unit.check().failed == 0
        every = unit.size["check_every"]
        # A checked answer replaced by another path of its destination:
        # what a cache serving a pre-ingest selection would return.
        i = next(
            i for i in range(unit.size["ingest_every"], len(unit.answers), every)
            if unit.answers[i] is not None
        )
        sid = unit.pool[unit.draws[i]].server_id
        other = next(
            str(d["_id"]) for d in unit.snapshot[PATHS_COLLECTION]
            if d["server_id"] == sid and str(d["_id"]) != unit.answers[i]
        )
        stale = list(unit.answers)
        stale[i] = other
        outcome = unit.check(stale)
        assert outcome.failed == 1
        assert any(p.startswith(f"intent {i}:") for p in outcome.problems)
        refused = list(unit.answers)
        refused[1] = None
        assert unit.check(refused).failed == 1
    finally:
        unit.close()


def test_paced_clock_scales_slices_and_skips_ticks(monkeypatch):
    clock = pace.Pacer()
    # A tick from wall 10.0 to 10.004 whose kernel runs took 1, 1 and
    # 2 ms, then a read of the clock at 10.104.
    times = iter([10.0, 10.0, 10.001, 10.001, 10.002, 10.002, 10.004, 10.004,
                  10.104])
    monkeypatch.setattr(pace, "REPS", 3)
    monkeypatch.setattr(pace.time, "perf_counter", lambda: next(times))
    clock._state = (9.0, 100.0, 1.0)
    clock._tick(None, None)
    assert clock.paces == [pytest.approx(0.001)]
    # The second before the tick counts at weight 1, the tick not at
    # all, and the 0.1 s after it at REFERENCE_S / 1 ms.
    assert clock.now() == pytest.approx(101.0 + 0.1 * pace.REFERENCE_S / 0.001)


def test_paced_clock_ticks_while_running():
    clock = pace.Pacer()
    clock.start()
    try:
        t0 = clock.now()
        deadline = pace.time.perf_counter() + 0.2
        while pace.time.perf_counter() < deadline:
            pace.kernel()
        elapsed = clock.now() - t0
    finally:
        clock.stop()
    assert len(clock.paces) >= 2
    assert elapsed > 0


#: The end-to-end figures the benchmark prints, across its workloads.
END_TO_END_NAMES = {
    "setup_s", "peak_rss_mb", "failed_ratio", "campaign_samples_per_s",
    "path_measure_ms_p50", "path_measure_ms_p99", "flush_ms_p50",
    "flush_ms_p95", "intent_ms_p50", "intent_ms_p99", "intents_per_s",
    "monitor_pass_s_p50", "monitor_flow_checks_per_s",
}
#: The per-layer counts reported besides each span's calls and self time.
LAYER_COUNTS = {
    "netsim.probe_packets", "netsim.sampler_hit_ratio", "docdb.docs_written",
    "docdb.docs_returned", "docdb.examined_per_returned",
    "docdb.query_cache_hit_ratio", "docdb.wal_bytes_written",
    "docdb.wal_fsyncs", "upin.selection_cache_hit_ratio",
    "monitor.failover_swap_ratio", "monitor.journal_events",
}


def test_every_named_metric_is_covered():
    printed = {m["name"] for m in BENCH["end_to_end"]} | {"failed_ratio"}
    for cls in WORKLOADS.values():
        printed |= {row[0] for row in cls.REPORT}
    assert END_TO_END_NAMES <= printed
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    assert LAYER_COUNTS <= per_layer
    for name in SPAN_NAMES:
        assert {f"{name}.calls", f"{name}.self_s"} <= per_layer


def test_spec_covers_every_metric():
    per_layer = [m["name"] for m in BENCH["per_layer"]]
    for name in per_layer:
        groups = [
            g for g in SPEC["layer_groups"]
            if any(fnmatch.fnmatch(name, pattern) for pattern in g["metrics"])
        ]
        assert len(groups) == 1, name
    assert set(SPEC["workloads"]) == {w["name"] for w in BENCH["workloads"]}
    assert set(SPEC["workloads"]) == set(WORKLOADS)
    assert {m["name"] for m in BENCH["end_to_end"]} <= set(SPEC["end_to_end"])
    assert SPEC["claim"] is None


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study_campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
