#!/usr/bin/env python
"""Append per-layer benchmark rows to the ``BENCH_layers.json`` trajectory.

For each workload this runs ``perfbench/run.py`` twice as a subprocess,
once with ``--trace 0`` (the end-to-end metrics) and once with
``--trace 1`` (spans and program counts), and appends one row per
workload to ``BENCH_layers.json`` at the repository root.  A row holds:

* ``commit`` (short hash, ``+dirty`` when the checkout has uncommitted
  changes), an optional free-text ``label``, ``seed``, ``seconds`` and
  the host's CPU count and Python version;
* ``end_to_end``: ``setup_s``, ``peak_rss_mb``, ``op_ms_p50`` and
  ``ops_per_s`` of the untraced run, with its ``attempted``/``failed``;
* ``spans``: each traced span's ``calls``, ``self_s`` and ``share`` of
  the traced window (``self_s / trace.wall_s``);
* ``counts``: the program counts of the traced run (probe packets,
  docs written/returned, cache hit ratios, failovers, ...);
* ``trace``: window wall time, uncovered share and tracing overhead.

Figures come from each run's final JSON line; the span table printed
above it is parsed too and must list the same spans and call counts,
so a change in perfbench's output format fails loudly instead of
writing a wrong row.  Rows are only ever appended, so the file is a
curve over commits; compare rows taken on the same host.

``--checkout`` benchmarks another checkout (for example the parent
commit, exported with ``git archive`` or ``git worktree``) while still
appending to this repository's file.

Usage, from the root of a checkout::

    python benchmarks/run_layers.py --seed 5 --seconds 10
    python benchmarks/run_layers.py --checkout ../parent --label parent
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(ROOT, "BENCH_layers.json")
WORKLOADS = ("study_campaign", "best_path_intents", "monitor_1000")
END_TO_END = ("setup_s", "peak_rss_mb", "op_ms_p50", "ops_per_s")
TRACE_FIGURES = (
    "trace.wall_s",
    "trace.uncovered_share",
    "trace.overhead.op_ms_p50",
    "trace.overhead.ops_per_s",
)
#: One row of the span table: name, calls, self seconds, share in percent.
SPAN_ROW = re.compile(r"^\s+(\S+)\s+(\d+)\s+([0-9.]+)\s+([0-9.]+)%$")


def run_perfbench(
    checkout: str, workload: str, seed: int, seconds: float, trace: int
) -> Dict[str, Any]:
    """One ``perfbench/run.py`` run: its JSON line and printed lines."""
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", f"{seconds:g}", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(
            f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["lines"] = lines[:-1]
    return result


def parse_span_table(lines: List[str]) -> Dict[str, int]:
    """``{span: calls}`` from the table ``--trace 1`` prints."""
    spans: Dict[str, int] = {}
    in_table = False
    for line in lines:
        if line.split()[:2] == ["span", "calls"]:
            in_table = True
            continue
        if not in_table:
            continue
        match = SPAN_ROW.match(line)
        if match is None:
            break  # "(no listed span)" ends the table
        spans[match.group(1)] = int(match.group(2))
    if not spans:
        raise ValueError("no span table in the traced run's output")
    return spans


def layer_row(
    untraced: Dict[str, Any], traced: Dict[str, Any]
) -> Dict[str, Any]:
    """The row's figures from one untraced and one traced run."""
    e2e = untraced["metrics"]
    layers = {name: m["value"] for name, m in traced["metrics"].items()}
    wall = layers["trace.wall_s"]
    spans = {}
    for name in sorted(k[: -len(".calls")] for k in layers if k.endswith(".calls")):
        self_s = layers[f"{name}.self_s"]
        spans[name] = {
            "calls": int(layers[f"{name}.calls"]),
            "self_s": self_s,
            "share": self_s / wall if wall else 0.0,
        }
    table = parse_span_table(traced["lines"])
    printed = {name: entry["calls"] for name, entry in spans.items()}
    if table != printed:
        raise ValueError(f"span table {table} disagrees with the JSON line {printed}")
    counts = {
        name: value
        for name, value in layers.items()
        if not name.endswith((".calls", ".self_s")) and not name.startswith("trace.")
    }
    return {
        "end_to_end": {name: e2e[name]["value"] for name in END_TO_END},
        "attempted": untraced["attempted"],
        "failed": untraced["failed"],
        "correct": untraced["correct"] and traced["correct"],
        "spans": spans,
        "counts": counts,
        "trace": {name[len("trace."):]: layers[name] for name in TRACE_FIGURES},
    }


def commit_of(checkout: str) -> str:
    """Short HEAD hash of ``checkout``, ``+dirty`` with uncommitted changes."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=checkout, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        head = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return head + ("+dirty" if dirty else "")


def append_rows(rows: List[Dict[str, Any]], path: str = TRAJECTORY) -> None:
    existing: List[Dict[str, Any]] = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            existing = json.load(fh)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(existing + rows, fh, indent=1)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", default=ROOT,
                        help="checkout whose perfbench/run.py to run")
    parser.add_argument("--commit", help="commit to record (default: its HEAD)")
    parser.add_argument("--label", default="", help="free text kept in each row")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    checkout = os.path.abspath(args.checkout)
    commit = args.commit or commit_of(checkout)
    host = {"cpus": os.cpu_count(), "python": platform.python_version()}
    rows = []
    for workload in WORKLOADS:
        untraced = run_perfbench(checkout, workload, args.seed, args.seconds, 0)
        traced = run_perfbench(checkout, workload, args.seed, args.seconds, 1)
        row = {
            "commit": commit,
            "label": args.label,
            "workload": workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "host": host,
            **layer_row(untraced, traced),
        }
        rows.append(row)
        e2e = row["end_to_end"]
        print(f"{workload}: " + ", ".join(f"{k}={v:.4g}" for k, v in e2e.items())
              + f", failed={row['failed']}/{row['attempted']}")
    append_rows(rows)
    print(f"appended {len(rows)} rows to {os.path.relpath(TRAJECTORY)}")
    return 0 if all(row["correct"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
