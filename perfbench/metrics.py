"""Catalogue of the benchmark's metrics: unit, direction, kind and what each explains.

``kind`` is one of: host time (wall time of this toolkit on the host),
simulated cycles (cyclesim's latency metric for the modelled core), count
(work done, deterministic for a fixed seed), host memory, or ratio.

``END_TO_END`` are gated run to run (see BENCHMARK.json); every workload
reports each of them.  ``KIND_METRICS`` are the per-operation medians and
simulated cycles each workload prints in its report.  ``PER_LAYER`` come
from the traced run; a layer that a workload does not exercise reads 0.
"""

HOST, SIM, COUNT, MEM, RATIO = ("host time", "simulated cycles", "count",
                                "host memory", "ratio")
PRUNE, INFER, PRICE = "prune-6L", "infer-6L", "price-4L"

# name: (unit, better, kind, meaning)
END_TO_END = {
    "setup_s": ("s", "lower", HOST,
                "fastest run of the program calls that build the workload's "
                "models, bundles and layers from the drawn inputs, timed at "
                "the start and after every operation"),
    "rel_op_time": ("ratio", "lower", HOST,
                    "geometric mean over the workload's operation kinds of "
                    "each kind's median untraced time over the reference "
                    "loop timed beside it"),
    "peak_rss_mb": ("MB", "lower", MEM, "peak resident set size of the run"),
}

# name: (workload, unit, kind); printed in each workload's report
KIND_METRICS = {
    "prune_s": (PRUNE, "s", HOST),
    "infer_fwcs_default_s": (INFER, "s", HOST),
    "infer_fwcs_reordered_s": (INFER, "s", HOST),
    "infer_csr_s": (INFER, "s", HOST),
    "infer_dense_s": (INFER, "s", HOST),
    "price_default_s": (PRICE, "s", HOST),
    "price_reordered_s": (PRICE, "s", HOST),
    "fit_s": (PRICE, "s", HOST),
    "sim_cycles_default": (PRICE, "cycles", SIM),
    "sim_cycles_reordered": (PRICE, "cycles", SIM),
}

PER_LAYER = {}


def _layer(name, unit, better, kind, workload, moves):
    PER_LAYER[name] = (unit, better, kind, workload, moves)


def _self_s(name, workload, moves):
    _layer(f"{name}.self_s", "s", "lower", HOST, workload, moves)


def _count(name, workload, moves):
    _layer(name, "count", "lower", COUNT, workload, moves)


_READ = "infer_*_s (read path)"
_WRITE = "prune_s (write path)"
_SIM = "price_*_s, fit_s, peak_rss_mb"

for _op, _moves in (("conv_fwcs", "infer_fwcs_default_s"),
                    ("conv_fwcs_reordered", "infer_fwcs_reordered_s"),
                    ("conv_csr", "infer_csr_s"), ("conv_dense", "infer_dense_s")):
    _self_s(f"convops.{_op}", INFER, _moves)
_count("convops.macs", INFER, "infer_*_s")
_layer("convops.macs_per_s", "1/s", "higher", RATIO, INFER, "infer_*_s")
_count("tensor.patch_matrix.calls", INFER, "infer_*_s")
_self_s("tensor.patch_matrix", INFER, "infer_*_s; largest share on csr/dense")
for _fn in ("bundle.from_bytes", "bundle.decode_weights", "fwcs.read_fwcs",
            "fwcs.decode_fwcs", "fwcs.read_csr", "fwcs.decode_csr",
            "cyclesim.schedule_counts"):
    _self_s(_fn, INFER, _READ)
_self_s("bundle.run_bundle", INFER, "infer_*_s (requantize)")
_count("fwcs.encode_fwcs.calls", INFER,
       "none; known dense-path re-encoding in run_bundle")

for _fn in ("scheduler.anneal", "scheduler.evaluate", "importance.build_mask",
            "importance.delta_loss", "importance.score_model",
            "costmodel.model_size", "costmodel.runtime_memory",
            "costmodel.total_time"):
    _self_s(_fn, PRUNE, "prune_s")
_count("scheduler.evaluate.calls", PRUNE, "prune_s")
_layer("scheduler.iters_per_s", "1/s", "higher", RATIO, PRUNE, "prune_s")
_layer("scheduler.feasible_ratio", "ratio", "higher", RATIO, PRUNE,
       "explains prune_s; a quality ratio, not a speed")
for _fn in ("fwcs.encode_fwcs", "fwcs.write_fwcs", "bundle.bundle_from_masks",
            "bundle.to_bytes"):
    _self_s(_fn, PRUNE, _WRITE)
_layer("scheduler.pred_flash_bytes", "bytes", "lower", COUNT, PRUNE,
       "none; known gap to bundle.payload_bytes")
_layer("bundle.payload_bytes", "bytes", "lower", COUNT, PRUNE,
       "none; known gap to scheduler.pred_flash_bytes")

_self_s("cyclesim.lower_schedule", PRICE, _SIM)
_self_s("cyclesim.simulate", PRICE, _SIM)
_count("cyclesim.instructions", PRICE, "price_*_s, fit_s")
_layer("cyclesim.instr_per_s", "1/s", "higher", RATIO, PRICE, "price_*_s, fit_s")
for _sched in ("default", "reordered"):
    _moves = f"sim_cycles_{_sched}"
    _layer(f"cyclesim.cycles.{_sched}", "cycles", "lower", SIM, PRICE, _moves)
    for _k in range(4):
        _layer(f"cyclesim.cycles.{_sched}.conv{_k}", "cycles", "lower", SIM,
               PRICE, _moves)
    _layer(f"cyclesim.ipc.{_sched}", "instr/cycle", "higher", RATIO, PRICE,
           _moves)
    _layer(f"cyclesim.alu_busy_ratio.{_sched}", "ratio", "higher", RATIO,
           PRICE, _moves)
_self_s("costmodel.fit_latency_params", PRICE, "fit_s")
_layer("costmodel.fit_heldout_nmse", "ratio", "lower", RATIO, PRICE,
       "latency-model accuracy")
for _k in range(4):
    # |cost-model cycles / simulated cycles - 1| of one chain layer, REORDERED
    _layer(f"costmodel.pred_error.conv{_k}", "ratio", "lower", RATIO, PRICE,
           "latency-model accuracy")

_layer("trace.round_s", "s", "lower", HOST, "all",
       "median traced round: every operation kind once")
_layer("trace.overhead_ratio", "ratio", "lower", RATIO, "all",
       "traced / untraced round time - 1")
_count("trace.spans_per_round", "all", "tracing cost")
