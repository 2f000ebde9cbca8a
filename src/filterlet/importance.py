"""Filterlet importance scoring, mask construction, and a finite-difference oracle.

A filterlet's importance is the first-order estimate of how much the loss
moves when its weights are zeroed: the absolute dot product of the filterlet
with its loss gradient.  Masks prune the lowest-scoring filterlets per layer
at the requested fraction; ties break deterministically by (filter index,
kernel position) so runs are reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .costmodel import strategy_alphas
from .errors import DataError
from .fwcs import FilterletMask, kept_count
from .model import SequentialModel, forward_float64
from .tensor import ConvLayerSpec, Tensor


@dataclass(frozen=True)
class GradientBundle:
    """Per-layer loss gradients, same shapes as the layer weights."""

    layers: list[np.ndarray]
    provenance: str = "external"

    def __post_init__(self):
        arrs = [np.asarray(g, dtype=np.float64) for g in self.layers]
        for g in arrs:
            if not np.all(np.isfinite(g)):
                raise DataError("non-finite gradient value")
        object.__setattr__(self, "layers", arrs)

    def check_shapes(self, specs: list[ConvLayerSpec]) -> None:
        if len(self.layers) != len(specs):
            raise DataError("gradient layer count mismatch")
        for g, spec in zip(self.layers, specs):
            if g.shape != spec.weight_dims:
                raise DataError(f"gradient shape {g.shape} != {spec.weight_dims}")


@dataclass(frozen=True)
class ImportanceMap:
    """Per-layer (n_filters x filterlets-per-filter) non-negative scores."""

    specs: list[ConvLayerSpec]
    scores: list[np.ndarray]

    def __post_init__(self):
        if len(self.specs) != len(self.scores):
            raise DataError("specs/scores length mismatch")
        mats = []
        for spec, s in zip(self.specs, self.scores):
            # a copy nobody else can write: problems memoize terms of it
            s = np.array(s, dtype=np.float64)
            s.flags.writeable = False
            want = (spec.n_filters, spec.filterlets_per_filter)
            if s.shape != want:
                raise DataError(f"score shape {s.shape} != {want}")
            if not np.all(np.isfinite(s)) or np.any(s < 0):
                raise DataError("scores must be finite and non-negative")
            mats.append(s)
        object.__setattr__(self, "scores", mats)

    @property
    def n_layers(self) -> int:
        return len(self.scores)


def taylor_score(weights, grads, spec: ConvLayerSpec) -> np.ndarray:
    """|sum_c g*w| per filterlet: first-order loss change from zeroing it."""
    w = weights.to_array() if isinstance(weights, Tensor) else np.asarray(weights)
    g = np.asarray(grads, dtype=np.float64)
    if w.shape != spec.weight_dims or g.shape != spec.weight_dims:
        raise DataError(
            f"shapes {w.shape}/{g.shape} do not match spec {spec.weight_dims}"
        )
    prods = w.astype(np.float64) * g
    # sum over channels leaves one score per (filter, kernel position)
    return np.abs(prods.sum(axis=3)).reshape(spec.n_filters, -1)


def score_model(model: SequentialModel, grads: GradientBundle) -> ImportanceMap:
    grads.check_shapes(model.specs)
    scores = [taylor_score(layer.float_weights(), g, layer.spec)
              for layer, g in zip(model.layers, grads.layers)]
    return ImportanceMap(model.specs, scores)


def model_loss(model: SequentialModel, loss_fn, sample) -> float:
    """Evaluate loss_fn on the model's full-precision outputs over ``sample``.

    loss_fn maps a list of (out_h, out_w, n_filters) float64 arrays, one per
    sample input, to a scalar.
    """
    arrays = [layer.weights.to_array().astype(np.float64)
              for layer in model.layers]
    biases = [layer.bias for layer in model.layers]
    outs = [forward_float64(model.specs, arrays, biases,
                            x.to_array() if isinstance(x, Tensor) else x)
            for x in sample]
    val = float(loss_fn(outs))
    if not np.isfinite(val):
        raise DataError("loss is non-finite")
    return val


def finite_diff_gradient(model: SequentialModel, loss_fn, sample,
                         epsilon: float = 1e-3) -> GradientBundle:
    """Central-difference gradient oracle: (L(w+e) - L(w-e)) / 2e per weight.

    Runs in float64 regardless of the model's storage dtype.  Only sensible
    for desk-scale models; every weight costs two forward passes over the
    whole sample.
    """
    if epsilon <= 0:
        raise DataError("epsilon must be positive")
    arrays = [layer.weights.to_array().astype(np.float64)
              for layer in model.layers]
    biases = [layer.bias for layer in model.layers]
    inputs = [x.to_array() if isinstance(x, Tensor) else np.asarray(x)
              for x in sample]

    def loss_at() -> float:
        outs = [forward_float64(model.specs, arrays, biases, x) for x in inputs]
        val = float(loss_fn(outs))
        if not np.isfinite(val):
            raise DataError("loss is non-finite")
        return val

    grads = []
    for arr in arrays:
        g = np.zeros(arr.size, dtype=np.float64)
        flat = arr.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + epsilon
            hi = loss_at()
            flat[k] = orig - epsilon
            lo = loss_at()
            flat[k] = orig
            g[k] = (hi - lo) / (2.0 * epsilon)
        grads.append(g.reshape(arr.shape))
    return GradientBundle(grads, provenance="finite-difference oracle")


def prune_order(scores: np.ndarray) -> np.ndarray:
    """Flat filterlet indices of one layer, lowest score first."""
    # stable sort on score alone leaves equal scores in flat-index order,
    # i.e. ascending (filter, position)
    return np.argsort(scores.reshape(-1), kind="stable")


def order_mask(spec: ConvLayerSpec, order: np.ndarray,
               keep: int) -> FilterletMask:
    """Keep the last ``keep`` filterlets of a :func:`prune_order`."""
    kept = np.zeros(order.size, dtype=bool)
    kept[order[order.size - keep:]] = True
    return FilterletMask(
        spec, kept.reshape(spec.n_filters, spec.filterlets_per_filter))


def layer_mask(spec: ConvLayerSpec, scores: np.ndarray,
               alpha: float) -> FilterletMask:
    """Prune the lowest-scoring filterlets of one layer at fraction alpha.

    The kept count is round-half-up of (1-alpha)*count; ties in score keep
    the earlier (filter, position) pair.
    """
    return order_mask(spec, prune_order(scores), kept_count(scores.size, alpha))


def build_mask(importance: ImportanceMap, alphas) -> list[FilterletMask]:
    """One :func:`layer_mask` per layer, layer i at fraction alpha_i."""
    alphas = strategy_alphas(alphas, importance.n_layers)
    return [layer_mask(spec, scores, alpha) for spec, scores, alpha
            in zip(importance.specs, importance.scores, alphas)]


def pruned_score(scores: np.ndarray, mask: FilterletMask) -> float:
    """Summed scores of one layer's pruned filterlets."""
    if mask.kept.shape != scores.shape:
        raise DataError("mask shape != score shape")
    return float(scores[~mask.kept].sum())


def delta_loss(importance: ImportanceMap, masks: list[FilterletMask]) -> float:
    """Summed scores of every pruned filterlet (first-order additive estimate)."""
    if len(masks) != importance.n_layers:
        raise DataError("mask count != layer count")
    total = 0.0
    for scores, mask in zip(importance.scores, masks):
        total += pruned_score(scores, mask)
    return total


def apply_mask_zeroing(weights: Tensor, mask: FilterletMask) -> Tensor:
    """Copy of the weights with every pruned filterlet set to exactly zero."""
    spec = mask.spec
    if weights.dims != spec.weight_dims:
        raise DataError(f"weight dims {weights.dims} != {spec.weight_dims}")
    w = weights.to_array().reshape(
        spec.n_filters, spec.filterlets_per_filter, spec.channels
    ).copy()
    w[~mask.kept] = 0
    return Tensor(spec.weight_dims, weights.dtype, w.reshape(-1))
