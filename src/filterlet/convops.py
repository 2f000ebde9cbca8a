"""Convolution operators over dense and pruned weight formats.

Every operator returns the raw accumulator map of shape (out_h, out_w,
n_filters), computed by one BLAS GEMM: the patch matrix times a (K, N)
weight operand, K = kernel_h*kernel_w*channels.  float32 layers run in
float64 and are cast back to float32 once at the end.  int8 layers run in
float32 while K <= 1024, else in float64, and are cast to int64 exactly:
every int8 product is at most 2^14 in magnitude, so every partial sum is an
integer of at most K*2^14 <= 2^24 (or below 2^53 for K < 2^39, which no
layer comes near), which the operand type holds in any summation order.

The sparse operators scatter their retained runs into a zeroed operand, so
FWCS and CSR share one operator body, and each equals ``conv_dense`` on its
zero-filled weights bitwise, for int8 and float32 alike.  That includes NaN
where a non-finite float32 input meets a pruned (zero) weight.  Lane width
and loop order exist only in the cycle model (:mod:`filterlet.cyclesim`);
nothing here depends on them.
"""

import numpy as np

from .errors import DataError
from .fwcs import CsrLayer, FwcsLayer
from .tensor import ConvLayerSpec, Tensor, patch_matrix


def _operand_dtype(dtype: str, spec: ConvLayerSpec) -> type:
    """float32 where int8 sums stay within 2^24 (K <= 1024), else float64."""
    k = spec.filterlets_per_filter * spec.channels
    return np.float32 if dtype == "int8" and k <= 1024 else np.float64


def _gemm(input: Tensor, w: np.ndarray, spec: ConvLayerSpec,
          bias: np.ndarray | None) -> np.ndarray:
    """Patch matrix, cast to the (K, N) operand ``w``'s dtype as it is
    gathered, times ``w``, plus bias, as the accumulator map of ``input``'s
    dtype."""
    acc = patch_matrix(input, spec, w.dtype) @ w
    if input.dtype == "int8":
        acc = acc.astype(np.int64)
    if bias is not None:
        bias = np.asarray(bias)
        if bias.shape != (spec.n_filters,):
            raise DataError(f"bias shape {bias.shape} != ({spec.n_filters},)")
        acc += bias.astype(acc.dtype, copy=False)
    out = acc.reshape(spec.out_h, spec.out_w, spec.n_filters)
    if input.dtype == "float32":
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
    w = filters.to_array().reshape(spec.n_filters, -1).T
    return _gemm(input, np.array(w, _operand_dtype(input.dtype, spec), order="C"),
                 spec, bias)


def _conv_runs(input: Tensor, layer: FwcsLayer | CsrLayer,
               spec: ConvLayerSpec, bias: np.ndarray | None) -> np.ndarray:
    """Sparse operator over the run layout both packed formats share: the
    layer's runs scattered into a zeroed operand, and the rest is
    ``conv_dense``'s GEMM."""
    if input.dtype != layer.dtype:
        raise DataError("input/layer dtype mismatch")
    w = layer.operand(spec, _operand_dtype(input.dtype, spec))
    return _gemm(input, w, spec, bias)


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
