"""Command-line frontend tying the pruning pipeline together.

Exit codes: 0 success, 2 infeasible strategy search, 3 input error
(missing or unparseable inputs, bad budgets), 4 corrupt binary payload.
"""

import argparse
import json
import os
import sys

import numpy as np

from .bundle import ModelBundle, RunResult, bundle_from_model, \
    gradients_from_bundle, model_from_bundle, run_bundle
from .costmodel import Budget, LatencyParams, load_latency_params
from .cyclesim import DEMO_STREAMS, MAC_VEC, ComputeSchedule, MachineConfig, \
    dump_trace, layer_stream, simulate
from .errors import CorruptionError, DataError, FilterletError
from .fwcs import FilterletMask, encode_csr, encode_fwcs, kept_count, \
    storage_footprint
from .importance import apply_mask_zeroing, build_mask, score_model
from .model import LayerDef, SequentialModel
from .scheduler import ScheduleProblem, plan_and_pack
from .tensor import Tensor, read_tensor, write_tensor

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3
EXIT_CORRUPT = 4


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    return int(os.environ.get("FILTERLET_SEED",
                              os.environ.get("DTMM_SEED", "0")))


def _load_bundle(path) -> ModelBundle:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise FileNotFoundError(f"cannot read {path}: {e}") from None
    return ModelBundle.from_bytes(raw)


def _load_tensor(path) -> Tensor:
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise FileNotFoundError(f"cannot read {path}: {e}") from None
    t, end = read_tensor(raw, 0)
    if end != len(raw):
        raise CorruptionError(f"{path}: trailing bytes after the tensor")
    return t


def _emit(report: dict, path) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text + "\n")


def _machine_config(args) -> MachineConfig:
    return MachineConfig(lanes=args.lanes)


def _model_and_grads(model_path, grads_path):
    model_bundle = _load_bundle(model_path)
    grads_bundle = _load_bundle(grads_path)
    model_names = [layer.name for layer in model_bundle.layers]
    grad_names = [layer.name for layer in grads_bundle.layers]
    if model_names != grad_names:
        raise DataError(
            f"gradient layers {grad_names} do not match model layers {model_names}"
        )
    return model_from_bundle(model_bundle), gradients_from_bundle(grads_bundle)


def cmd_prune(args) -> int:
    model, grads = _model_and_grads(args.model, args.grads)
    importance = score_model(model, grads)
    if args.params:
        latency = load_latency_params(args.params)
    else:
        latency = LatencyParams(1.0, 1.0, 2.0, 2.0, lanes=args.lanes)
    budget = Budget(args.flash, args.ram, args.dlmax)
    problem = ScheduleProblem(model.specs, importance, budget, latency,
                              m=model.value_bits)
    bundle, result = plan_and_pack(
        problem, model, seed=_seed_from(args), iters=args.iters,
        t0=args.t0, cooling=args.cooling, step=args.step,
    )
    report = {
        "strategy": list(result.s),
        "feasible": result.feasible,
        "predicted": {
            "cycles": result.predicted_time,
            "size_bytes": result.predicted_size,
            "ram_bytes": result.predicted_ram,
            "delta_loss": result.predicted_dl,
        },
        "violations": {k: {"value": v[0], "limit": v[1]}
                       for k, v in result.violations.items()},
    }
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as f:
            f.write(result.trace_csv())
    if bundle is None:
        _emit(report, args.report)
        return EXIT_INFEASIBLE
    blob = bundle.to_bytes()
    with open(args.out, "wb") as f:
        f.write(blob)
    report["out"] = args.out
    report["actual_payload_bytes"] = bundle.payload_bytes()
    report["actual_file_bytes"] = len(blob)
    if args.export_masked:
        # dense copy with pruned filterlets zeroed, for external fine-tuning
        masks = build_mask(importance, list(result.s))
        zeroed = SequentialModel(model.name, [
            LayerDef(l.name, l.spec, apply_mask_zeroing(l.weights, m),
                     l.bias, l.quant)
            for l, m in zip(model.layers, masks)])
        bundle_from_model(zeroed).save(args.export_masked)
        report["masked_export"] = args.export_masked
    _emit(report, args.report)
    return EXIT_OK


def cmd_run(args) -> int:
    bundle = _load_bundle(args.bundle)
    x = _load_tensor(args.input)
    schedule = ComputeSchedule(args.schedule)
    result: RunResult = run_bundle(bundle, x, schedule, _machine_config(args))
    if args.out:
        with open(args.out, "wb") as f:
            f.write(write_tensor(result.output))
    report = {
        "schedule": schedule.value,
        "output_dims": list(result.output.dims),
        "saturated": result.saturated,
        "layers": [
            {"name": bl.name, "format": bl.fmt, **counts}
            for bl, counts in zip(bundle.layers, result.layer_counts)
        ],
    }
    _emit(report, args.report)
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg = _machine_config(args)
    if args.demo == "fig9":
        rows = []
        for name, ctor in DEMO_STREAMS.items():
            trace = simulate(ctor(span=cfg.lanes), cfg)
            rows.append({"scenario": name, "cycles": trace.total_cycles,
                         "macs": trace.count(MAC_VEC)})
        _emit({"demo": rows}, args.report)
        return EXIT_OK
    if args.bundle is None:
        raise DataError("bench needs a bundle path unless --demo is given")
    bundle = _load_bundle(args.bundle)
    schedule = ComputeSchedule(args.schedule)
    layers = []
    total = 0
    for bl in bundle.layers:
        weights, _ = bl.decode_weights()
        stream = layer_stream(weights, bl.spec, schedule, cfg)
        cycles = stream.cycles()
        layers.append({"name": bl.name, "cycles": cycles, **stream.counts()})
        total += cycles
    _emit({"schedule": schedule.value, "lanes": cfg.lanes,
           "layers": layers, "total_cycles": total}, args.report)
    return EXIT_OK


def cmd_compare(args) -> int:
    model, grads = _model_and_grads(args.model, args.grads)
    importance = score_model(model, grads)
    masks = build_mask(importance, [args.ratio] * len(model.layers))
    cfg = _machine_config(args)
    m_bits = model.value_bits
    rows = []
    for li, (layer, mask) in enumerate(zip(model.layers, masks)):
        spec = layer.spec
        fw = encode_fwcs(layer.weights, mask)
        cs = encode_csr(layer.weights, mask.to_weight_mask())
        # structured baseline: drop whole filters, lowest summed importance first
        filter_order = np.argsort(importance.scores[li].sum(axis=1), kind="stable")
        n_prune = spec.n_filters - kept_count(spec.n_filters, args.ratio)
        kept_filters = np.ones(spec.n_filters, bool)
        kept_filters[filter_order[:n_prune]] = False
        struct_mask = FilterletMask(
            spec, kept_filters[:, None].repeat(spec.filterlets_per_filter, 1))
        struct_fw = encode_fwcs(layer.weights, struct_mask)
        rows.append({
            "layer": layer.name,
            "dense": {
                "bytes": storage_footprint(layer.weights, m=m_bits),
                "cycles": layer_stream(layer.weights, spec,
                                       ComputeSchedule.DEFAULT, cfg).cycles(),
            },
            "structured": {
                "kept_filters": int(kept_filters.sum()),
                "bytes": storage_footprint(layer.weights, m=m_bits)
                * int(kept_filters.sum()) // spec.n_filters,
                "cycles": layer_stream(struct_fw, spec,
                                       ComputeSchedule.DEFAULT, cfg).cycles(),
            },
            "csr": {
                "bytes": storage_footprint(cs, m=m_bits),
                "index_bytes": 2 * len(cs.c_ptr),
                "index_entries": len(cs.c_ptr),
                "cycles": layer_stream(cs, spec,
                                       ComputeSchedule.DEFAULT, cfg).cycles(),
            },
            "fwcs": {
                "bytes": storage_footprint(fw, m=m_bits),
                "index_bytes": 2 * len(fw.c_ptr),
                "index_entries": len(fw.c_ptr),
                "cycles": layer_stream(fw, spec,
                                       ComputeSchedule.REORDERED, cfg).cycles(),
            },
        })
    _emit({"ratio": args.ratio, "lanes": args.lanes, "layers": rows}, args.report)
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _machine_config(args)
    if args.demo not in DEMO_STREAMS:
        raise DataError(f"unknown demo {args.demo!r}; pick from {list(DEMO_STREAMS)}")
    trace = simulate(DEMO_STREAMS[args.demo](span=cfg.lanes), cfg)
    text = dump_trace(trace)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="filterlet",
        description="Filterlet pruning, compressed storage, and cycle budgeting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prune", help="search a strategy and pack the pruned model")
    p.add_argument("model")
    p.add_argument("grads")
    p.add_argument("out")
    p.add_argument("--flash", type=int, required=True, help="flash budget, bytes")
    p.add_argument("--ram", type=int, required=True, help="SRAM budget, bytes")
    p.add_argument("--dlmax", type=float, required=True, help="loss-change budget")
    p.add_argument("--lanes", type=int, default=4)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--iters", type=int, default=5000)
    p.add_argument("--t0", type=float, default=None,
                   help="initial temperature; default 10%% of the unpruned time")
    p.add_argument("--cooling", type=float, default=0.995)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--params", default=None, help="fitted latency params file")
    p.add_argument("--export-masked", default=None, metavar="PATH",
                   help="also write a dense bundle with pruned filterlets "
                        "zeroed, for external fine-tuning")
    p.add_argument("--report", default=None)
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write the annealing chain as CSV: iteration, "
                        "temperature, objective, feasibility")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("run", help="execute a bundle on an input tensor")
    p.add_argument("bundle")
    p.add_argument("input")
    p.add_argument("--schedule", choices=["default", "reordered"],
                   default="reordered")
    p.add_argument("--lanes", type=int, default=4)
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="per-layer simulated cycle report")
    p.add_argument("bundle", nargs="?", default=None)
    p.add_argument("--schedule", choices=["default", "reordered"],
                   default="reordered")
    p.add_argument("--lanes", type=int, default=4)
    p.add_argument("--demo", choices=["fig9"], default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("compare", help="dense/structured/CSR/FWCS size and cycles")
    p.add_argument("model")
    p.add_argument("grads")
    p.add_argument("--ratio", type=float, required=True)
    p.add_argument("--lanes", type=int, default=4)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("simulate", help="render a canned micro-scenario trace")
    p.add_argument("--demo", default="fig9a")
    p.add_argument("--lanes", type=int, default=4)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CorruptionError as e:
        print(f"error: corrupt payload: {e}", file=sys.stderr)
        return EXIT_CORRUPT
    except (FilterletError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
