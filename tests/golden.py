"""Golden outputs: sha256 digests of what filterlet computes on seeded int8
chains, checked by ``test_golden.py`` against ``golden.json``.

Each entry digests one case: a bundle's bytes, its ``run_bundle`` output and
per-layer counts under both schedules; the ``bench``, ``compare``,
``simulate`` and ``prune`` commands' reports, files and exit codes.  Only
integer and int8 results, and float64 results printed by the commands, are
digested; nothing float32.

Regenerate the digest file with::

    PYTHONPATH=src python tests/golden.py
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from filterlet.bundle import bundle_from_masks, bundle_from_model, run_bundle
from filterlet.cli import main
from filterlet.costmodel import model_size
from filterlet.cyclesim import ComputeSchedule
from filterlet.importance import GradientBundle, apply_mask_zeroing, \
    build_mask, score_model
from filterlet.model import LayerDef, LayerQuant, SequentialModel
from filterlet.tensor import ConvLayerSpec, Tensor

GOLDEN = Path(__file__).with_name("golden.json")

RATIOS = (0.25, 0.5, 0.9)
LANES = (2, 4, 8)
# (n_filters, kernel, stride) per layer, from a 3-channel 13x13 input
CHAINS = {
    "chainA": ((8, 3, 1), (8, 3, 1), (6, 2, 2)),
    "chainB": ((5, 2, 1), (12, 3, 1)),
}
# prune budgets as shares of the dense flash and of the total first-order
# score; the infeasible one allows no loss change but needs pruning
BUDGETS = {"feasible": (0.55, 0.25), "infeasible": (0.5, 0.0)}
PRUNE_SEEDS = {"feasible": (0, 1), "infeasible": (0,)}


def sha(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def int8_chain(name: str, seed: int) -> tuple[SequentialModel, list]:
    """A seeded int8 chain with integer biases, and float64 gradients."""
    rng = np.random.default_rng(seed)
    layers, grads = [], []
    channels, side, scale = 3, 13, 0.05
    for i, (n, k, stride) in enumerate(CHAINS[name]):
        spec = ConvLayerSpec(n_filters=n, kernel_h=k, kernel_w=k,
                             channels=channels, input_h=side, input_w=side,
                             stride=stride)
        w = rng.integers(-100, 101, spec.weight_dims).astype(np.int8)
        bias = rng.integers(-400, 401, n).astype(np.int64)
        quant = LayerQuant(input_scale=scale, weight_scale=0.02,
                           output_scale=scale * 6, output_zero_point=i - 1)
        layers.append(LayerDef(f"conv{i}", spec, Tensor.from_array(w), bias,
                               quant))
        grads.append(rng.normal(size=spec.weight_dims))
        channels, side, scale = n, spec.out_h, scale * 6
    return SequentialModel(name, layers), grads


def grads_bundle(model: SequentialModel, grads):
    layers = [LayerDef(layer.name, layer.spec,
                       Tensor.from_array(g.astype(np.float32), "float32"))
              for layer, g in zip(model.layers, grads)]
    return bundle_from_model(SequentialModel(model.name, layers), role="grads")


def bundles(model: SequentialModel, grads, ratio: float) -> dict:
    """The chain pruned at ``ratio`` as dense (pruned filterlets zeroed),
    FWCS and CSR bundles."""
    imp = score_model(model, GradientBundle(grads))
    masks = build_mask(imp, [ratio] * len(model.layers))
    zeroed = SequentialModel(model.name, [
        LayerDef(l.name, l.spec, apply_mask_zeroing(l.weights, m), l.bias,
                 l.quant)
        for l, m in zip(model.layers, masks)])
    return {"dense": bundle_from_model(zeroed),
            "fwcs": bundle_from_masks(model, masks, fmt="fwcs"),
            "csr": bundle_from_masks(model, masks, fmt="csr")}


def run_digest(bundle, x) -> dict:
    out = {"bytes": sha(bundle.to_bytes())}
    for schedule in ComputeSchedule:
        r = run_bundle(bundle, x, schedule)
        out[f"output/{schedule.value}"] = sha(
            json.dumps([list(r.output.dims), r.saturated])
            + r.output.to_array().tobytes().hex())
        out[f"counts/{schedule.value}"] = sha(json.dumps(r.layer_counts))
    return out


def cli(tmp: Path, *argv) -> tuple[int, str]:
    """Exit code and stdout of one ``filterlet`` command, with the paths
    under ``tmp`` made relative to it."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, out.getvalue().replace(f"{tmp}/", "")


def file_sha(tmp: Path, path: Path) -> str | None:
    if not path.exists():
        return None
    return sha(path.read_bytes().replace(f"{tmp}/".encode(), b""))


def compute() -> dict[str, dict]:
    """Every golden entry, keyed by case name."""
    entries: dict[str, dict] = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for c, name in enumerate(CHAINS):
            model, grads = int8_chain(name, seed=c)
            model_path, grads_path = tmp / f"{name}.fltb", tmp / f"{name}g.fltb"
            bundle_from_model(model).save(model_path)
            grads_bundle(model, grads).save(grads_path)
            spec0 = model.specs[0]
            x = Tensor.from_array(np.random.default_rng([c, 9]).integers(
                -128, 128, spec0.input_dims).astype(np.int8))
            for ratio in RATIOS:
                for fmt, bundle in bundles(model, grads, ratio).items():
                    case = f"{name}/{fmt}/{ratio}"
                    entries[f"run/{case}"] = run_digest(bundle, x)
                    path = tmp / "b.fltb"
                    bundle.save(path)
                    for lanes in LANES:
                        for schedule in ComputeSchedule:
                            entries[f"bench/{case}/lanes{lanes}/{schedule.value}"] = {
                                "stdout": sha(cli(tmp, "bench", path, "--lanes",
                                                  lanes, "--schedule",
                                                  schedule.value)[1])}
                for lanes in LANES:
                    code, text = cli(tmp, "compare", model_path, grads_path,
                                     "--ratio", ratio, "--lanes", lanes)
                    entries[f"compare/{name}/{ratio}/lanes{lanes}"] = {
                        "exit": code, "stdout": sha(text)}
            for budget, (flash_share, dl_share) in BUDGETS.items():
                for seed in PRUNE_SEEDS[budget]:
                    entries[f"prune/{name}/{budget}/seed{seed}"] = prune(
                        tmp, model, grads, model_path, grads_path,
                        flash_share, dl_share, seed)
        for lanes in LANES:
            entries[f"bench-demo/lanes{lanes}"] = {
                "stdout": sha(cli(tmp, "bench", "--demo", "fig9", "--lanes",
                                  lanes)[1])}
            for demo in ("fig9a", "fig9b"):
                entries[f"simulate/{demo}/lanes{lanes}"] = {
                    "stdout": sha(cli(tmp, "simulate", "--demo", demo,
                                      "--lanes", lanes)[1])}
    return entries


def prune(tmp: Path, model, grads, model_path, grads_path, flash_share,
          dl_share, seed) -> dict:
    zeros = [0.0] * len(model.layers)
    flash = int(flash_share * model_size(model.specs, zeros))
    imp = score_model(model, GradientBundle(grads))
    dl = dl_share * sum(float(s.sum()) for s in imp.scores)
    out, report, trace, masked = (tmp / f"p{k}" for k in range(4))
    for path in (out, report, trace, masked):
        path.unlink(missing_ok=True)
    code, _ = cli(tmp, "prune", model_path, grads_path, out,
                  "--flash", flash, "--ram", 10 ** 6, "--dlmax", repr(dl),
                  "--seed", seed, "--iters", 3000, "--report", report,
                  "--trace", trace, "--export-masked", masked)
    files = {"report": report, "bundle": out, "masked": masked,
             "trace": trace}
    return {"exit": code,
            **{k: file_sha(tmp, path) for k, path in files.items()}}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
