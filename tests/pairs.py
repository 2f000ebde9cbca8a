"""Paired benchmark runs of two checkouts, judged by the benchmark's rules.

    python tests/pairs.py PARENT_DIR CHANGE_DIR --workload price-4L \\
        [--pairs 10] [--seconds 40] [--seed 0]

Runs ``perfbench/run.py --trace 0`` of each checkout in turn, in its own
directory, alternating which side goes first, and prints every run's
end-to-end metrics and failed count.  Then, per end-to-end metric of the
parent's ``BENCHMARK.json``: both medians, the parent's quartiles, how many
pairs the change won (ties count for neither), whether the gain rule holds
(at least 10 pairs, the change winning at least nine tenths of them, and the
medians differing by more than the parent's interquartile range) and
whether the change's median stays within the metric's relative bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MIN_PAIRS = 10


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """The gain rule and the bound check for one metric over paired runs:
    ``parent[i]`` and ``change[i]`` are pair i, ``better`` is "lower" or
    "higher", and ``bound`` is the share by which the change's median may
    be worse than the parent's."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number of runs on each side, at least one")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = (statistics.quantiles(parent, n=4) if len(parent) > 1
                 else parent * 3)
    gain = (len(parent) >= MIN_PAIRS
            and 10 * wins >= 9 * len(parent)  # nine tenths, in integers
            and sign * (p_med - c_med) > q3 - q1)
    within = sign * (c_med - p_med) <= bound * abs(p_med)
    return {"parent_median": p_med, "change_median": c_med,
            "parent_q1": q1, "parent_q3": q3, "wins": wins,
            "pairs": len(parent), "gain": gain, "within_bound": within}


def run_once(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """One ``--trace 0`` run of ``checkout``'s benchmark: its JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    metrics = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in sides}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_once(sides[side], args.workload, args.seconds, args.seed)
            runs[side].append(res)
            values = "  ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.6g}"
                               for m in metrics)
            print(f"pair {i + 1} {side:<6} {values}  failed={res['failed']}"
                  f"/{res['attempted']}", flush=True)
    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        print(f"{side}: {failed} failed of {sum(r['attempted'] for r in results)}")
    for m in metrics:
        name = m["name"]
        parent, change = ([r["metrics"][name]["value"] for r in runs[side]]
                          for side in sides)
        v = verdict(parent, change, m["better"], m["bound"])
        print(f"{name}: median {v['parent_median']:.6g} -> {v['change_median']:.6g}"
              f" (parent quartiles {v['parent_q1']:.6g}-{v['parent_q3']:.6g}),"
              f" change wins {v['wins']} of {v['pairs']};"
              f" gain rule {'holds' if v['gain'] else 'does not hold'};"
              f" {'within' if v['within_bound'] else 'OUTSIDE'} its"
              f" {m['bound']:g} bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
