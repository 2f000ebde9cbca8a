#!/usr/bin/env python3
"""Seeded, offline benchmark of the filterlet toolkit: prune, infer and price.

    python3 perfbench/run.py --workload infer-6L --seed 0 --seconds 40 --trace 0

Runs one workload (or ``all`` of them, each in its own process) as a closed
loop with a single caller, and prints a report followed, as the last line of
standard output, by one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` rounds alternate traced and untraced, the metrics are the
per-layer ones plus the tracing overhead, and the spans are written to
``perfbench/out/`` when the run ends.  See perfbench/README.md.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from metrics import END_TO_END, PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("prune-6L", "infer-6L", "price-4L")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS pools at the CPUs this process may use; before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(cap)
    return cap


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(seed: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "filterlet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": blas_threads, "seed": seed, "commit": git_commit(),
            "src_sha256": digest.hexdigest()[:16]}


def tail(values):
    """Highest of p99/p90/p50 with at least ten samples beyond it, else the max."""
    n = len(values)
    for p in (99, 90, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p}", statistics.quantiles(values, n=100)[p - 1]
    return "max", max(values)


def measure(wl, seed: int, seconds: float, tracer=None) -> dict:
    """Set up, then run rounds while the next one should end within ``seconds``.

    ``seconds`` is wall time from the start of set-up, judged by the median
    round so far, so failed operations and untimed checks use it up too.  A
    round in which every operation failed ends the run.  With a tracer, even
    rounds are traced and odd rounds are not, so the difference between them
    is the tracing overhead.

    Each untraced operation is timed between two runs of a fixed reference
    loop.  Its relative time is its duration over their mean, so a shift in
    the host's speed that lasts longer than an operation cancels out.
    """
    from workloads import reference_loop

    start = time.perf_counter()
    drawn = wl.draw(seed)
    setup_s = []

    def timed_build():
        t0 = time.perf_counter()
        st = wl.build(drawn)
        setup_s.append(time.perf_counter() - t0)
        return st

    st = timed_build()
    # per untraced round: {kind: (seconds, relative time)} of its good operations
    samples = []
    rounds = {True: [], False: []}
    walls = []
    attempted = failed = 0
    min_rounds = 2 if tracer is not None else 1
    op_id = 0
    while len(walls) < min_rounds or \
            time.perf_counter() - start + statistics.median(walls) <= seconds:
        traced = tracer is not None and len(walls) % 2 == 0
        round_start = time.perf_counter()
        total = 0.0
        ok = {}
        for kind in wl.kinds:
            attempted += 1
            try:
                args = wl.prepare(st, kind, op_id)
                gc.collect()
                if traced:
                    with tracer.op(kind, op_id):
                        t0 = time.perf_counter()
                        out = wl.run(st, kind, args)
                        dt = time.perf_counter() - t0
                else:
                    ref = reference_loop()
                    t0 = time.perf_counter()
                    out = wl.run(st, kind, args)
                    dt = time.perf_counter() - t0
                    ref = (ref + reference_loop()) / 2
                wl.check(st, kind, args, out, op_id)
            except Exception:  # every failure is counted and shown, none dropped
                failed += 1
                print(f"operation {op_id} ({kind}) failed:", file=sys.stderr)
                traceback.print_exc()
            else:
                ok[kind] = (dt, None if traced else dt / ref)
                total += dt
            op_id += 1
            # set-up is timed between operations too, so its samples span
            # the run as the operations' do
            timed_build()
        rounds[traced].append(total)
        if not traced:
            samples.append(ok)
        walls.append(time.perf_counter() - round_start)
        if not ok and len(walls) >= min_rounds:
            print("every operation of the round failed; stopping", file=sys.stderr)
            break
    return {"setup_s": setup_s, "samples": samples, "rounds": rounds,
            "attempted": attempted, "failed": failed, "facts": wl.facts(st)}


def kind_times(wl, samples) -> dict:
    """Per reported kind, its seconds in each round where all its parts succeeded."""
    return {name: [sum(r[p][0] for p in parts) for r in samples
                   if all(p in r for p in parts)]
            for name, parts in wl.parts().items()}


def kind_rel(wl, samples) -> dict:
    """Per reported kind, the sum over its parts of each part's median relative time."""
    out = {}
    for name, parts in wl.parts().items():
        rel = [[r[p][1] for r in samples if p in r] for p in parts]
        if all(rel):
            out[name] = sum(statistics.median(v) for v in rel)
    return out


def per_layer_values(raw: dict, tracer) -> dict:
    n = max(1, len(raw["rounds"][True]))
    self_s = {k: v / 1e9 / n for k, v in tracer.self_ns.items()}
    total_s = {k: v / 1e9 / n for k, v in tracer.total_ns.items()}
    calls = {k: v / n for k, v in tracer.calls.items()}
    counts = {k: v / n for k, v in tracer.counts.items()}
    vals = dict.fromkeys(PER_LAYER, 0.0)
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            vals[name] = self_s.get(name.removesuffix(".self_s"), 0.0)
        elif name.endswith(".calls"):
            vals[name] = calls.get(name.removesuffix(".calls"), 0.0)
    vals["convops.macs"] = counts.get("convops.macs", 0.0)
    conv_s = sum(s for k, s in self_s.items() if k.startswith("convops."))
    if conv_s:
        vals["convops.macs_per_s"] = vals["convops.macs"] / conv_s
    anneal_s = total_s.get("scheduler.anneal", 0.0)
    if anneal_s:
        vals["scheduler.iters_per_s"] = \
            (calls["scheduler.evaluate"] - 2 * calls["scheduler.anneal"]) / anneal_s
    vals["cyclesim.instructions"] = counts.get("cyclesim.instructions", 0.0)
    sim_s = self_s.get("cyclesim.lower_schedule", 0.0) + \
        self_s.get("cyclesim.simulate", 0.0)
    if sim_s:
        vals["cyclesim.instr_per_s"] = vals["cyclesim.instructions"] / sim_s
    for name, value in raw["facts"].items():
        if name in vals:
            vals[name] = value
    traced = statistics.median(raw["rounds"][True])
    plain = statistics.median(raw["rounds"][False])
    vals["trace.round_s"] = traced
    vals["trace.overhead_ratio"] = traced / plain - 1.0 if plain else 0.0
    vals["trace.spans_per_round"] = tracer.n_spans / n
    return vals


def report(wl, raw: dict, env: dict, trace: bool, tracer=None) -> dict:
    """Print the human-readable report; return the metrics of the JSON line."""
    print(f"filterlet perfbench: workload={wl.name} trace={int(trace)}")
    print("env " + json.dumps(env, sort_keys=True))
    rows = []  # (name, value, unit, samples, extra); timings are medians

    def timing(name, values, extra=""):
        label, high = tail(values)
        rows.append((name, statistics.median(values), "s",
                     f"  n={len(values)}  {label}={high:.6g}  "
                     f"min={min(values):.6g}{extra}"))

    timing("setup_s", raw["setup_s"])
    rel = kind_rel(wl, raw["samples"])
    for kind, values in kind_times(wl, raw["samples"]).items():
        if values:
            timing(f"{kind}_s", values, f"  rel={rel[kind]:.6g}")
    timing("round_s", raw["rounds"][False])
    facts = raw["facts"]
    for sched in ("default", "reordered"):
        if f"cyclesim.cycles.{sched}" in facts:
            rows.append((f"sim_cycles_{sched}",
                         facts[f"cyclesim.cycles.{sched}"], "cycles", ""))
    # every kind weighs the same, however long its operations take, so a
    # slower CSR or dense operator shows as much as a slower FWCS one
    rel_op = statistics.geometric_mean(rel.values()) if rel else 0.0
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows.append(("rel_op_time", rel_op, "ratio", ""))
    rows.append(("peak_rss_mb", peak_mb, "MB", ""))
    rows.append(("error_rate", raw["failed"] / raw["attempted"],
                 "failed/attempted", ""))
    for name, value, unit, extra in rows:
        print(f"  {name:<24} {value:>14.6g} {unit}{extra}")
    for name, value in sorted(facts.items()):
        if not name.startswith("cyclesim.cycles."):
            print(f"  {name:<40} {value:.6g}")

    if not trace:
        values = {"setup_s": min(raw["setup_s"]), "rel_op_time": rel_op,
                  "peak_rss_mb": peak_mb}
        return {k: {"value": values[k], "unit": u}
                for k, (u, *_) in END_TO_END.items()}
    vals = per_layer_values(raw, tracer)
    print("per layer (per traced round):")
    for name, value in vals.items():
        print(f"  {name:<40} {value:.6g} {PER_LAYER[name][0]}")
    return {k: {"value": vals[k], "unit": u} for k, (u, *_) in PER_LAYER.items()}


def run_all(args) -> int:
    """Run every workload, each in a child process so peak RSS is its own."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    blas_threads = cap_blas_threads()
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "filterlet" / "__init__.py").is_file():
        print(f"error: filterlet sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import filterlet
    from tracer import Tracer
    from workloads import WORKLOADS

    if Path(filterlet.__file__).resolve().parent != SRC / "filterlet":
        print(f"error: imported filterlet from {filterlet.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env = environment(args.seed, blas_threads)
    tracer = Tracer() if args.trace else None
    raw = measure(wl, args.seed, args.seconds, tracer)
    metrics = report(wl, raw, env, bool(args.trace), tracer)
    if tracer is not None:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{wl.name}-seed{args.seed}.csv.gz"
        tracer.write(path, "# " + json.dumps({"workload": wl.name, "env": env}))
        print(f"spans: {tracer.n_spans} written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": raw["failed"] == 0,
                      "attempted": raw["attempted"], "failed": raw["failed"],
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
