#!/usr/bin/env python3
"""Steadiness check: two sets of runs of one commit, compared metric by
metric against the bounds in ``BENCHMARK.json``.

    python3 syncbench/steady.py [--runs 10] \\
        [--workloads matrix kernels service] [--out raw.json]

Each set runs every workload ``--runs`` times, each run with its own
seed (set 1 takes seeds 1..N, set 2 the next N), the same way the
benchmark is driven.  For every end-to-end metric of every workload it
prints each set's median and quartiles, the spread (interquartile
distance over the median) and how far set 2's median moved from set
1's, in either direction.  A spread or a move above the metric's bound
fails.  ``setup_s`` rows come first: set-up timing is the metric most
exposed to host state.  Exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from common import ROOT, quartiles

SETS = 2
FIRST_SEED = 1


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def verdict(spread: float, moved: float, bound: float) -> str:
    """``ok`` or the checks that fail; ``moved`` counts both ways."""
    checks = [name for name, value in (("SPREAD", spread),
                                       ("MOVED", abs(moved)))
              if value > bound]
    if checks:
        return "FAIL " + " ".join(checks)
    if spread > bound / 3:
        return "ok (spread above a third of the bound)"
    return "ok"


def report(spec: dict, results: dict) -> bool:
    """Print the comparison table; returns whether every check holds."""
    metrics = sorted(spec["end_to_end"],
                     key=lambda m: (m["name"] != "setup_s", m["name"]))
    ok = True
    print(f"{'workload':9} {'metric':12} {'set':>3} {'q1':>11} "
          f"{'median':>11} {'q3':>11} {'spread':>7} {'bound':>6} "
          f"{'moved':>7}  verdict")
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        for workload, sets in results.items():
            first = None
            for index, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, mid, q3 = quartiles(values)
                spread = (q3 - q1) / mid
                moved = 0.0 if first is None else mid / first - 1.0
                first = mid if first is None else first
                note = verdict(spread, moved, bound)
                ok &= not note.startswith("FAIL")
                print(f"{workload:9} {name:12} {index + 1:>3} {q1:11.4f} "
                      f"{mid:11.4f} {q3:11.4f} {spread:7.3f} {bound:6.2f} "
                      f"{moved:+7.3f}  {note}")
    return ok


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path, default=None,
                        help="also write every run's result here")
    args = parser.parse_args(argv)
    results = {w: [] for w in args.workloads}
    seed = FIRST_SEED
    for _ in range(SETS):
        for w in args.workloads:
            results[w].append([])
        for _ in range(args.runs):
            for w in args.workloads:
                result = run_once(spec, w, seed)
                if not result["correct"] or result["failed"]:
                    print(f"{w} seed {seed}: incorrect result",
                          file=sys.stderr)
                    return 1
                results[w][-1].append(result)
                print(f"{w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.4g}"
                    for k, v in result["metrics"].items()),
                    file=sys.stderr, flush=True)
            seed += 1
    if args.out is not None:
        args.out.write_text(json.dumps(results))
    return 0 if report(spec, results) else 1


if __name__ == "__main__":
    sys.exit(main())
