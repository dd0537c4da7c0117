#!/usr/bin/env python3
"""Collect benchmark result sets and compare two of them.

    # ten seeds of every workload, one JSON line per run
    python3 benchmarks/compare.py collect --seeds 1-10 --checkout . --out set.jsonl

    # parent and change in pairs, alternating which side runs first
    python3 benchmarks/compare.py collect --seeds 1-10 \\
        --checkout ../parent --out parent.jsonl --checkout . --out change.jsonl

    # run-to-run spread of one set against each metric's bound
    python3 benchmarks/compare.py spread set.jsonl

    # per workload and metric: medians, quartiles, wins and a verdict
    python3 benchmarks/compare.py verdict parent.jsonl change.jsonl

A run is bad when it exits non-zero, prints no result or reports
incorrect outputs. A workload on which the change has a bad run, or more
failed CLI calls than the parent, is "regressed" whatever its timings.
Otherwise, per metric: "improved" when the change wins at least 9 of 10
pairs (ties count for neither side) and the medians differ by more than
the parent's interquartile range; "unresolved" when the spread
(IQR / median) of the per-pair ratios change / parent exceeds the metric's
bound, unless every change run beats every parent run; "regressed" when
the median ratio is worse than 1 by more than the bound; otherwise
"unchanged". The spread check of one set counts bad runs as failures and
needs every metric's spread below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
    try:
        result = json.loads(last[0])
    except json.JSONDecodeError:
        result = {}
    return {"workload": workload, "seed": seed, "exit": proc.returncode, "result": result}


def collect(args) -> int:
    if len(args.checkout) != len(args.out):
        sys.exit("give one --out per --checkout")
    sides = list(zip(args.checkout, args.out))
    for k, seed in enumerate(seeds(args.seeds)):
        for workload in SPEC["workloads"]:
            order = sides if k % 2 == 0 else sides[::-1]
            for checkout, out in order:
                line = run_once(Path(checkout), workload["name"], seed)
                with open(out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(line) + "\n")
                print(f"{checkout} {workload['name']} seed {seed}: "
                      f"{'ok' if good(line) else 'FAILED'}",
                      file=sys.stderr)
    return 0


def load(path) -> dict:
    """{(workload, seed): {"exit": code, "result": last-line JSON or {}}}."""
    runs = {}
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        runs[(rec["workload"], rec["seed"])] = rec
    return runs


def good(rec: dict) -> bool:
    """A run counts only if it exited 0 and reported correct outputs."""
    return rec["exit"] == 0 and rec["result"].get("correct") is True


def health(runs: dict, keys) -> tuple[int, int]:
    """(failed CLI calls, bad runs) over ``keys``."""
    failed = sum(runs[k]["result"].get("failed", 0) for k in keys)
    return failed, sum(not good(runs[k]) for k in keys)


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(runs: dict, metric: str, keys) -> list[float]:
    return [runs[k]["result"]["metrics"][metric]["value"] for k in keys]


def spread(args) -> int:
    runs = load(args.file)
    ok = True
    for workload in sorted({w for w, _ in runs}):
        keys = sorted(k for k in runs if k[0] == workload)
        failed, bad = health(runs, keys)
        print(f"{workload}: {len(keys)} runs, {failed} failed calls, {bad} bad runs")
        ok &= failed == 0 and bad == 0
        keys = [k for k in keys if good(runs[k])]
        for metric in SPEC["end_to_end"] if keys else []:
            q1, q2, q3 = quartiles(values(runs, metric["name"], keys))
            share = (q3 - q1) / q2
            steady = share < metric["bound"] / 3
            ok &= steady
            print(f"  {metric['name']:<14} median {q2:<12.6g} IQR {q1:.6g}..{q3:.6g} "
                  f"spread {share:.4f} bound {metric['bound']} "
                  f"{'ok' if steady else 'TOO WIDE'}")
    return 0 if ok else 1


def verdict_of(parent: list[float], change: list[float], bound: float, lower: bool) -> str:
    sign = 1.0 if lower else -1.0  # positive difference = change is worse
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    if wins >= 0.9 * len(parent) and abs(cm - pm) > p3 - p1 and sign * (cm - pm) < 0:
        return "improved"
    # The two runs of a pair ran back to back, so their ratio cancels the
    # machine's slow drift that widens each side's own spread.
    r1, rm, r3 = quartiles([c / p for p, c in zip(parent, change)])
    every_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if (r3 - r1) / rm > bound and not every_better:
        return "unresolved"
    if sign * (rm - 1.0) > bound:
        return "regressed"
    return "unchanged"


def verdict(args) -> int:
    parent, change = load(args.parent), load(args.change)
    keys = sorted(set(parent) & set(change))
    worst = 0
    for workload in sorted({w for w, _ in keys}):
        wkeys = [k for k in keys if k[0] == workload]
        (p_failed, p_bad), (c_failed, c_bad) = health(parent, wkeys), health(change, wkeys)
        print(f"{workload}: {len(wkeys)} pairs; failed calls parent {p_failed} change "
              f"{c_failed}; bad runs parent {p_bad} change {c_bad}")
        if c_bad or c_failed > p_failed:
            print("  regressed: the change fails where the parent does not")
            worst = 1
            continue
        if p_bad:
            print("  unresolved: the parent has bad runs")
            worst = 1
            continue
        for metric in SPEC["end_to_end"]:
            p = values(parent, metric["name"], wkeys)
            c = values(change, metric["name"], wkeys)
            lower = metric["better"] == "lower"
            wins = sum((ci < pi) if lower else (ci > pi) for pi, ci in zip(p, c))
            v = verdict_of(p, c, metric["bound"], lower)
            worst = max(worst, v in ("regressed", "unresolved"))
            (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
            r1, rm, r3 = quartiles([ci / pi for pi, ci in zip(p, c)])
            print(f"  {metric['name']:<14} parent {pm:.6g} [{p1:.6g}..{p3:.6g}]  "
                  f"change {cm:.6g} [{c1:.6g}..{c3:.6g}]  "
                  f"ratio {rm:.4f} [{r1:.4f}..{r3:.4f}]  wins {wins}/{len(p)}  {v}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run the benchmark for a range of seeds")
    p.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    p.add_argument("--checkout", action="append", required=True)
    p.add_argument("--out", action="append", required=True)
    p.set_defaults(func=collect)
    p = sub.add_parser("spread", help="IQR / median of each metric against its bound")
    p.add_argument("file")
    p.set_defaults(func=spread)
    p = sub.add_parser("verdict", help="compare a parent set with a change set")
    p.add_argument("parent")
    p.add_argument("change")
    p.set_defaults(func=verdict)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
