#!/usr/bin/env python3
"""Same-machine A/B of ``perfbench`` workloads: a base ref against HEAD.

Run from anywhere inside a checkout::

    python3 benchmarks/ab_perfbench.py --base HEAD~1 --workload pravega_catchup
    python3 benchmarks/ab_perfbench.py --base main \\
        --workload pravega_write kafka_pulsar_write --pairs 10 --seed 3

Both sides run from ``git archive`` exports of the committed trees
(``--base`` and ``HEAD``) in a temporary directory, removed afterwards,
so uncommitted edits never leak into either side.  For each workload in
turn, each pair runs ``perfbench/run.py --workload W --seed S --trace 0``
once per side, one process at a time, alternating which side goes
first; the run length is perfbench's own.  The script reads
``perfbench/`` and ``BENCHMARK.json`` and never edits them.

Printed per workload: every end-to-end metric's median and quartiles
per side, flagged ``WORSE`` when the change's median is worse than the
base's by more than that metric's ``BENCHMARK.json`` bound; the pair
wins of ``host_us_per_event`` (ties count for neither side); whether
that is a claimable gain (at least ten pairs, at least 9 in 10 won, and
the change's median better than the base's by more than the base's
interquartile spread); and whether every simulated result and the
failed-event count are identical across all runs.  Exit status 1 means
a run failed its correctness check, the simulated results differ, or a
metric is flagged ``WORSE``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

#: The metric pair wins and the gain verdict are judged on (lower is better).
CLAIM_METRIC = "host_us_per_event"


def _git(root: str, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", root, *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def _export(root: str, commit: str, path: str) -> None:
    """Write the committed tree of ``commit`` to ``path``."""
    tar = subprocess.run(
        ["git", "-C", root, "archive", commit], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(path)


def _run_side(checkout: str, workload: str, seed: int) -> dict:
    """One ``perfbench`` run; returns metric values plus the simulated
    results (``sim``), attempted and failed counts from the output."""
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", workload, "--seed", str(seed), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(
            f"perfbench failed in {checkout} (exit {proc.returncode}):\n"
            f"{proc.stderr[-2000:]}"
        )
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {
        "values": values,
        "sim": detail["sim"],
        "kernel_events": detail["kernel_events"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
    }


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _fmt(quartiles: tuple) -> str:
    return "/".join(f"{v:.5g}" for v in quartiles)


def _worse_beyond_bound(metric: dict, base: float, head: float) -> bool:
    """True when ``head`` is worse than ``base`` by more than the metric's
    relative bound, in the metric's own direction."""
    if metric["better"] == "lower":
        return head > base * (1.0 + metric["bound"])
    return head < base * (1.0 - metric["bound"])


def _report(workload: str, runs: dict, metrics: list, args) -> bool:
    """Print one workload's table and verdicts; True when it is clean."""
    print(f"\n{workload} seed {args.seed}, {args.pairs} pairs")
    print(f"{'metric':20s} {'base q1/median/q3':>36s} {'head q1/median/q3':>36s} {'delta':>8s}")
    flagged = []
    for metric in metrics:
        name = metric["name"]
        base = _quartiles([r["values"][name] for r in runs["base"]])
        head = _quartiles([r["values"][name] for r in runs["head"]])
        delta = (head[1] / base[1] - 1.0) if base[1] else float("nan")
        flag = ""
        if _worse_beyond_bound(metric, base[1], head[1]):
            flag = f"  WORSE (bound {metric['bound']:.0%})"
            flagged.append(name)
        print(f"{name:20s} {_fmt(base):>36s} {_fmt(head):>36s} {delta:+8.1%}{flag}")

    wins = sum(
        h["values"][CLAIM_METRIC] < b["values"][CLAIM_METRIC]
        for b, h in zip(runs["base"], runs["head"])
    )
    bq1, bmed, bq3 = _quartiles([r["values"][CLAIM_METRIC] for r in runs["base"]])
    hmed = _quartiles([r["values"][CLAIM_METRIC] for r in runs["head"]])[1]
    gap = bmed - hmed
    if args.pairs < 10:
        verdict = "too few pairs to claim a gain"
    elif gap > bq3 - bq1 and wins * 10 >= 9 * args.pairs:
        verdict = "gain"
    else:
        verdict = "no claimable gain"
    print(f"{CLAIM_METRIC}: head wins {wins}/{args.pairs} pairs; median gain {gap:.6g} "
          f"vs base interquartile spread {bq3 - bq1:.6g} -> {verdict}")

    reference = runs["base"][0]
    same = all(
        (r["sim"], r["kernel_events"], r["attempted"], r["failed"])
        == (reference["sim"], reference["kernel_events"], reference["attempted"], reference["failed"])
        for side in runs.values() for r in side
    )
    correct = all(r["correct"] for side in runs.values() for r in side)
    print(f"simulated results, kernel events and failed/attempted identical on every run: {same}")
    if flagged:
        print(f"worse than the bound: {', '.join(flagged)}")
    return same and correct and not flagged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the base side")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)

    root = _git(os.getcwd(), "rev-parse", "--show-toplevel")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    sides = {"base": _git(root, "rev-parse", args.base), "head": _git(root, "rev-parse", "HEAD")}
    print(f"base {args.base} = {sides['base'][:12]}   head HEAD = {sides['head'][:12]}")
    tmp = tempfile.mkdtemp(prefix="ab-perfbench-")
    clean = True
    try:
        checkouts = {}
        for side, commit in sides.items():
            checkouts[side] = os.path.join(tmp, side)
            _export(root, commit, checkouts[side])
        for workload in args.workload:
            runs = {"base": [], "head": []}
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for side in order:
                    runs[side].append(_run_side(checkouts[side], workload, args.seed))
                b = runs["base"][-1]["values"][CLAIM_METRIC]
                h = runs["head"][-1]["values"][CLAIM_METRIC]
                print(f"{workload} pair {i + 1:2d} ({order[0]} first): "
                      f"{CLAIM_METRIC} base {b:.6g} head {h:.6g}", flush=True)
            clean = _report(workload, runs, metrics, args) and clean
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
