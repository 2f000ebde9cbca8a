"""Roadmap claims recomputed from code: each entry is one named,
deterministic figure that ``ROADMAP.md`` cites instead of copying it.
``test_claims.py`` checks every entry against ``claims.json``.

Entries:

- ``flash/prune-6L/seed{1..5}``: the search's predicted flash bytes, the
  packed bundle's ``payload_bytes()`` and the flash budget, on the
  benchmark's ``prune-6L`` instance of that draw seed, annealed with its
  first operation's seed;
- ``index/prune-6L/seed{1..5}``: the same bundles' index bytes in the
  paper's layout (u16 ``c_ptr`` and ``f_idx`` entries), and as kept
  filterlets plus filters, the size of a u8 kernel position per run and a
  u8 run count per filter, as bundle version 2 stores them;
- ``layout/prune-6L/seed{1..5}``: the same bundles' payload bytes as bundle
  version 1 stored them (``bundle_v1.py``: u16 FWCS indices, each bias a
  float32 tensor block) and as version 2 stores them (``payload_bytes()``);
- ``pricing/prune-6L/seed{1..5}``: the same searches' predicted time, the
  time of the packed masks (``total_time`` at each packed layer's pruned
  share ``1 - n_retained/N``) and the relative gap between them;
- ``latency/prune-6L/conv{0..5}``: per ``prune-6L`` layer (the geometry
  is the same for every draw seed), the simulated ``post``, ``a`` and
  ``b`` of ``post + (a + b * n if n else 0)`` under REORDERED at lanes 4,
  the schedule and lanes ``run`` defaults to, taken from ``n = 0, 1, 2``;
  then, with every filterlet kept and with half kept, the default
  ``LatencyParams(1, 1, 2, 2)`` prediction, the simulated cycles and the
  prediction's relative error;
- ``cycles/affine``: how many (layer, machine, schedule, kept count) cases
  of a seeded sweep were checked against ``cycles() == post + (a + b * n
  if n else 0)``, with ``a`` and ``b`` taken from ``n = 1, 2``, and the
  first case that broke it, or ``null``.

Regenerate the file with::

    PYTHONPATH=src python tests/claims.py
"""

import importlib.util
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

import bundle_v1
from filterlet.costmodel import LatencyParams, layer_latency, total_time
from filterlet.cyclesim import ComputeSchedule, MachineConfig, VALID_LANES, \
    layer_stream
from filterlet.fwcs import INDEX_DTYPE, FilterletMask, encode_csr, \
    encode_fwcs, kept_count
from filterlet.tensor import ConvLayerSpec, Tensor

CLAIMS = Path(__file__).with_name("claims.json")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PRUNE_SEEDS = (1, 2, 3, 4, 5)
AFFINE_SEED, AFFINE_LAYERS = 29, 150
# what a layer keeps, and the schedule it runs: a CSR layer's stream is
# the same under either schedule
AFFINE_KINDS = {"default": ComputeSchedule.DEFAULT,
                "reordered": ComputeSchedule.REORDERED,
                "csr": ComputeSchedule.DEFAULT}


def load_workloads():
    """``perfbench/workloads.py``, imported without putting ``perfbench``
    on the module path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def prune_instance(workload, seed: int):
    """The budget, latency parameters, search result and bundle of
    ``prune-6L``'s first operation at draw seed ``seed``."""
    st = workload.build(workload.draw(seed))
    bundle, result, _ = workload.run(st, "prune",
                                     workload.prepare(st, "prune", 0))
    if bundle is None:
        raise RuntimeError(f"prune-6L seed {seed}: no feasible strategy")
    return st["budget"], st["latency"], result, bundle


def kept_units(spec: ConvLayerSpec, kind: str) -> int:
    """How many units a ``kind`` layer of ``spec`` can keep: filterlets,
    or weights for the ``csr`` kind."""
    return spec.n_filters * spec.filterlets_per_filter * \
        (spec.channels if kind == "csr" else 1)


def kept_layer(spec: ConvLayerSpec, kind: str, n: int, rng):
    """A zero-weight ``kind`` layer of ``spec`` keeping ``n`` units drawn
    by ``rng``."""
    w = Tensor.from_array(np.zeros(spec.weight_dims, np.int8))
    kept = np.zeros(kept_units(spec, kind), bool)
    kept[rng.choice(kept.size, n, replace=False)] = True
    kept = kept.reshape(spec.n_filters, -1)
    if kind == "csr":
        return encode_csr(w, kept)
    return encode_fwcs(w, FilterletMask(spec, kept))


def affine_failure(spec: ConvLayerSpec, kind: str, cfg: MachineConfig,
                   counts, rng) -> dict | None:
    """The first kept count of ``counts`` at which a ``kind`` layer of
    ``spec`` costs other than ``post + (a + b * n if n else 0)`` cycles,
    with ``a`` and ``b`` from ``n = 1, 2``, as a JSON-ready case; None if
    every count fits.  The spec must allow two kept units."""
    def cycles(n):
        return layer_stream(kept_layer(spec, kind, n, rng), spec,
                            AFFINE_KINDS[kind], cfg).cycles()

    post = spec.n_filters * spec.out_positions * cfg.post_cycles
    one, two = cycles(1), cycles(2)
    a, b = 2 * one - two - post, two - one
    for n in counts:
        got, want = cycles(n), post + (a + b * n if n else 0)
        if got != want:
            return {"spec": asdict(spec), "cfg": asdict(cfg), "kind": kind,
                    "kept": n, "cycles": got, "affine": want}
    return None


def latency_entries(workloads) -> dict[str, dict]:
    """``latency/prune-6L/conv*``: the default latency parameters against
    the simulator on each ``prune-6L`` layer."""
    prune = workloads.Prune()
    specs = workloads.chain_specs(prune.layers, workloads.FIRST_CHANNELS,
                                  prune.filters, prune.side)
    cfg = MachineConfig(lanes=4)
    params = LatencyParams(1.0, 1.0, 2.0, 2.0, lanes=cfg.lanes)
    rng = np.random.default_rng(0)
    entries = {}
    for k, spec in enumerate(specs):
        def cycles(n):
            return layer_stream(kept_layer(spec, "reordered", n, rng), spec,
                                ComputeSchedule.REORDERED, cfg).cycles()

        post, one, two = cycles(0), cycles(1), cycles(2)
        entry = {"post": post, "a": 2 * one - two - post, "b": two - one}
        total = kept_units(spec, "reordered")
        for label, kept in (("all", total), ("half", kept_count(total, 0.5))):
            predicted = layer_latency(spec, 1.0 - kept / total, params)
            simulated = cycles(kept)
            entry[label] = {"kept": kept, "predicted": predicted,
                            "simulated": simulated,
                            "error": predicted / simulated - 1.0}
        entries[f"latency/prune-6L/conv{k}"] = entry
    return entries


def affine_sweep() -> dict:
    """``affine_failure`` over a seeded sweep: geometries with kernels 1-3,
    stride 1-2 and 1-39 channels, random machines, every kind and four
    random kept counts each."""
    rng = np.random.default_rng(AFFINE_SEED)
    cases = 0
    for _ in range(AFFINE_LAYERS):
        kh, kw = (int(k) for k in rng.integers(1, 4, 2))
        spec = ConvLayerSpec(
            n_filters=int(rng.integers(2, 5)), kernel_h=kh, kernel_w=kw,
            channels=int(rng.integers(1, 40)),
            input_h=int(rng.integers(kh, kh + 7)),
            input_w=int(rng.integers(kw, kw + 7)),
            stride=int(rng.integers(1, 3)))
        cfg = MachineConfig(lanes=int(rng.choice(VALID_LANES)),
                            vec_instr_cycles=int(rng.integers(1, 4)),
                            overlap_enabled=bool(rng.integers(2)),
                            register_count=int(rng.integers(3, 12)))
        for kind in AFFINE_KINDS:
            counts = [int(n) for n in
                      rng.integers(0, kept_units(spec, kind) + 1, 4)]
            failure = affine_failure(spec, kind, cfg, counts, rng)
            cases += len(counts)
            if failure is not None:
                return {"cases": cases, "first_failure": failure}
    return {"cases": cases, "first_failure": None}


def compute() -> dict[str, dict]:
    """Every claim entry, keyed by name."""
    workloads = load_workloads()
    prune = workloads.Prune()
    entries: dict[str, dict] = {}
    for seed in PRUNE_SEEDS:
        budget, latency, result, bundle = prune_instance(prune, seed)
        entries[f"flash/prune-6L/seed{seed}"] = {
            "predicted": result.predicted_size,
            "payload": bundle.payload_bytes(),
            "budget": budget.mem_flash,
        }
        packed = [(bl.decode_weights()[0], bl.spec) for bl in bundle.layers]
        packed_time = total_time(
            [spec for _, spec in packed],
            [1.0 - p.n_retained / (spec.n_filters * spec.filterlets_per_filter)
             for p, spec in packed], latency)
        entries[f"pricing/prune-6L/seed{seed}"] = {
            "predicted": result.predicted_time,
            "packed": packed_time,
            "gap": result.predicted_time / packed_time - 1.0,
        }
        entries[f"layout/prune-6L/seed{seed}"] = {
            "v1": sum(len(bundle_v1.layer_payload(bl)) for bl in bundle.layers),
            "v2": bundle.payload_bytes(),
        }
        entries[f"index/prune-6L/seed{seed}"] = {
            "u16": sum(INDEX_DTYPE.itemsize * (len(p.c_ptr) + len(p.f_idx))
                       for p, _ in packed),
            "u8": sum(p.n_retained + spec.n_filters for p, spec in packed),
        }
    entries.update(latency_entries(workloads))
    entries["cycles/affine"] = affine_sweep()
    return entries


if __name__ == "__main__":
    CLAIMS.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {CLAIMS}", file=sys.stderr)
