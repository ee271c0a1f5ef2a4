#!/usr/bin/env python3
"""Steadiness self-check: run every workload on this commit in two sets and compare.

    python3 perfbench/steady.py [--seeds 10] [--workloads a,b] [--first-seed 1]

Writes BENCHMARK.json from ``spec.py``, then runs ``run.py --trace 0``
once per (set, workload, seed) for the benchmark's run_seconds, one run
at a time, workloads interleaved so slow drift of the machine touches
all of them alike.  The second set uses the next block of seeds.  For
each workload and end-to-end metric it prints both sets' medians, each
set's interquartile spread as a share of its median, and how much worse
the second median is than the first, against the metric's bound.  A
metric passes when each spread is within the bound and the second
median is not worse by more than the bound; it is steady when every
spread is below a third of the bound.  Exits 1 if any metric fails or any run reports a failed problem.
The raw results go to perfbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec
import stats

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900  # the first run in a fresh checkout compiles bytecode


def run_once(workload: str, seed: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec.RUN_SECONDS), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: dict) -> list[dict]:
    """Verdict per workload and metric from {workload: [set1 runs, set2 runs]}."""
    rows = []
    for workload, (first, second) in results.items():
        for metric in spec.END_TO_END:
            values = [[r["metrics"][metric["name"]]["value"] for r in runs] for runs in (first, second)]
            row = {"workload": workload, "unit": metric["unit"]}
            row["medians"] = [statistics.median(v) for v in values]
            row.update(stats.verdict(*values, metric))
            rows.append(row)
    return rows


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':17s} {'metric':15s} {'medians':>25s} {'unit':6s} {'spreads':>15s} {'worse':>7s} {'bound':>5s}")
    for r in rows:
        medians = " / ".join(f"{m:.4g}" for m in r["medians"])
        spreads = " / ".join(f"{s:.3f}" for s in r["spread"])
        flag = "ok" if r["ok"] else "FAIL"
        if r["ok"] and not r["steady"]:
            flag += " (spread above bound/3)"
        print(f"{r['workload']:17s} {r['metric']:15s} {medians:>25s} {r['unit']:6s} {spreads:>15s} {r['worsening']:+7.3f} {r['bound']:5.2f} {flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload and set (>= 2)")
    parser.add_argument("--workloads", default=",".join(spec.WORKLOAD_NAMES))
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    unknown = set(names) - set(spec.WORKLOAD_NAMES)
    if unknown or args.seeds < 2:
        parser.error(f"need known workloads and >= 2 seeds (unknown: {sorted(unknown)})")

    spec.main([])
    results = {w: [[], []] for w in names}
    incorrect = []
    for k in range(2):
        for j in range(args.seeds):
            seed = args.first_seed + k * args.seeds + j
            for w in names:
                res = run_once(w, seed)
                results[w][k].append(res)
                shown = " ".join(f"{n}={m['value']:.4g}" for n, m in res["metrics"].items())
                print(f"set {k + 1} {w} seed {seed}: correct={res['correct']} {shown}", flush=True)
                if not res["correct"]:
                    incorrect.append((w, seed))
    rows = summarize(results)
    print_rows(rows)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps({"results": results, "verdicts": rows}, indent=1) + "\n")
    if incorrect:
        print(f"runs with failed problems: {incorrect}")
    return 0 if all(r["ok"] for r in rows) and not incorrect else 1


if __name__ == "__main__":
    sys.exit(main())
