"""Convolution operators over dense and pruned weight formats.

Every operator returns the raw accumulator map of shape (out_h, out_w,
n_filters).  int8 inputs accumulate exactly in 64-bit integers; float32
inputs accumulate in float64 and are cast back to float32 once at the end,
so the dense path and every sparse path agree bitwise on integer data and
to float32 rounding on real data.  FWCS and CSR share one operator body
over their common run layout.  Lane width and loop order exist only in the
cycle model (:mod:`filterlet.cyclesim`); nothing here depends on them.
"""

import numpy as np

from .errors import DataError
from .fwcs import CsrLayer, FwcsLayer
from .tensor import ConvLayerSpec, Tensor, patch_matrix


def _acc_dtype(t: Tensor):
    return np.int64 if t.dtype == "int8" else np.float64


def _finish(acc: np.ndarray, spec: ConvLayerSpec, dtype: str,
            bias: np.ndarray | None) -> np.ndarray:
    if bias is not None:
        bias = np.asarray(bias)
        if bias.shape != (spec.n_filters,):
            raise DataError(f"bias shape {bias.shape} != ({spec.n_filters},)")
        acc = acc + bias.astype(acc.dtype)
    out = acc.reshape(spec.out_h, spec.out_w, spec.n_filters)
    if dtype == "float32":
        return out.astype(np.float32)
    return out


def conv_dense(input: Tensor, filters: Tensor, spec: ConvLayerSpec,
               bias: np.ndarray | None = None) -> np.ndarray:
    """Reference convolution: o[x,y,n] = sum_{h,w,c} k[n,h,w,c] * f[x*s+h, y*s+w, c].

    This is the oracle every sparse path is checked against.
    """
    if filters.dims != spec.weight_dims:
        raise DataError(f"filter dims {filters.dims} != {spec.weight_dims}")
    if input.dtype != filters.dtype:
        raise DataError("input/filter dtype mismatch")
    acc = _acc_dtype(input)
    p = patch_matrix(input, spec).astype(acc)
    w = filters.to_array().reshape(spec.n_filters, -1).astype(acc)
    out = p @ w.T
    return _finish(out, spec, input.dtype, bias)


def _conv_runs(input: Tensor, layer: FwcsLayer | CsrLayer,
               spec: ConvLayerSpec, bias: np.ndarray | None) -> np.ndarray:
    """Sparse operator over the run layout both packed formats share: each
    retained run gathers the ``width`` patch columns starting at its c_ptr
    entry, and filter n sums the runs ``f_idx[n]:f_idx[n + 1]``."""
    if input.dtype != layer.dtype:
        raise DataError("input/layer dtype mismatch")
    layer.validate(spec)
    acc = _acc_dtype(input)
    p = patch_matrix(input, spec).astype(acc)
    cols = (layer.c_ptr[:, None] + np.arange(layer.width)).reshape(-1)
    starts = layer.f_idx * layer.width
    vals = layer.arr.astype(acc)
    out = np.zeros((p.shape[0], spec.n_filters), dtype=acc)
    for n in range(spec.n_filters):
        lo, hi = starts[n], starts[n + 1]
        out[:, n] = p[:, cols[lo:hi]] @ vals[lo:hi]
    return _finish(out, spec, input.dtype, bias)


def conv_fwcs(input: Tensor, layer: FwcsLayer, spec: ConvLayerSpec,
              bias: np.ndarray | None = None) -> np.ndarray:
    """Sparse operator over FWCS: one run per retained filterlet."""
    return _conv_runs(input, layer, spec, bias)


# Both schedules compute the same sums; the old name stays because the
# benchmark tracer looks it up on this module.
conv_fwcs_reordered = conv_fwcs


def conv_csr(input: Tensor, layer: CsrLayer, spec: ConvLayerSpec,
             bias: np.ndarray | None = None) -> np.ndarray:
    """Sparse operator over the CSR baseline: one run per retained weight."""
    return _conv_runs(input, layer, spec, bias)

