"""Roadmap claims recomputed from code: each entry is one named,
deterministic figure that ``ROADMAP.md`` cites instead of copying it.
``test_claims.py`` checks every entry against ``claims.json``.

Entries:

- ``flash/prune-6L/seed{1..5}``: the search's predicted flash bytes, the
  packed bundle's ``payload_bytes()`` and the flash budget, on the
  benchmark's ``prune-6L`` instance of that draw seed, annealed with its
  first operation's seed;
- ``index/prune-6L/seed{1..5}``: the same bundles' index bytes as stored
  (u16 ``c_ptr`` and ``f_idx`` entries), and as kept filterlets plus
  filters, the size of a u8 kernel position per run and a u8 run count
  per filter.

Regenerate the file with::

    PYTHONPATH=src python tests/claims.py
"""

import importlib.util
import json
import sys
from pathlib import Path

from filterlet.fwcs import INDEX_DTYPE

CLAIMS = Path(__file__).with_name("claims.json")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PRUNE_SEEDS = (1, 2, 3, 4, 5)


def load_workloads():
    """``perfbench/workloads.py``, imported without putting ``perfbench``
    on the module path."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def prune_instance(workload, seed: int):
    """The budget, search result and bundle of ``prune-6L``'s first
    operation at draw seed ``seed``."""
    st = workload.build(workload.draw(seed))
    bundle, result, _ = workload.run(st, "prune",
                                     workload.prepare(st, "prune", 0))
    if bundle is None:
        raise RuntimeError(f"prune-6L seed {seed}: no feasible strategy")
    return st["budget"], result, bundle


def compute() -> dict[str, dict]:
    """Every claim entry, keyed by name."""
    prune = load_workloads().Prune()
    entries: dict[str, dict] = {}
    for seed in PRUNE_SEEDS:
        budget, result, bundle = prune_instance(prune, seed)
        entries[f"flash/prune-6L/seed{seed}"] = {
            "predicted": result.predicted_size,
            "payload": bundle.payload_bytes(),
            "budget": budget.mem_flash,
        }
        packed = [(bl.decode_weights()[0], bl.spec) for bl in bundle.layers]
        entries[f"index/prune-6L/seed{seed}"] = {
            "u16": sum(INDEX_DTYPE.itemsize * (len(p.c_ptr) + len(p.f_idx))
                       for p, _ in packed),
            "u8": sum(p.n_retained + spec.n_filters for p, spec in packed),
        }
    return entries


if __name__ == "__main__":
    CLAIMS.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {CLAIMS}", file=sys.stderr)
