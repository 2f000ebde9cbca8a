"""Sequential convolution models shared by the pruning pipeline."""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .convops import conv_dense
from .errors import DataError, TopologyError
from .tensor import ConvLayerSpec, QuantParams, Tensor, dequantize, patch_matrix


@dataclass(frozen=True)
class LayerQuant:
    """Quantization parameters for one int8 layer: positive finite scales,
    zero points that are int8 codes."""

    input_scale: float
    weight_scale: float
    output_scale: float
    input_zero_point: int = 0
    output_zero_point: int = 0

    def __post_init__(self):
        for name in ("input_scale", "weight_scale", "output_scale"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real) \
                    or not (math.isfinite(v) and v > 0):
                raise DataError(f"{name} {v!r} is not positive and finite")
        for name in ("input_zero_point", "output_zero_point"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Integral) \
                    or not -128 <= v <= 127:
                raise DataError(f"{name} {v!r} is not an integer in [-128, 127]")


@dataclass
class LayerDef:
    """One convolution layer: geometry, weights, optional bias and quantization."""

    name: str
    spec: ConvLayerSpec
    weights: Tensor
    bias: np.ndarray | None = None
    quant: LayerQuant | None = None

    def __post_init__(self):
        if self.weights.dims != self.spec.weight_dims:
            raise DataError(
                f"layer {self.name}: weight dims {self.weights.dims} "
                f"!= {self.spec.weight_dims}"
            )
        if self.bias is not None:
            self.bias = np.asarray(self.bias)
            if self.bias.shape != (self.spec.n_filters,):
                raise DataError(f"layer {self.name}: bad bias shape")
        if self.weights.dtype == "int8" and self.quant is None:
            raise DataError(f"layer {self.name}: int8 weights need quant params")

    def float_weights(self) -> np.ndarray:
        """Weights as float values, dequantized when stored int8."""
        if self.weights.dtype == "int8":
            q = QuantParams(self.quant.weight_scale, 0)
            return dequantize(self.weights, q).to_array()
        return self.weights.to_array().astype(np.float64)


@dataclass
class SequentialModel:
    """A plain chain of convolution layers; layer i feeds layer i+1."""

    name: str
    layers: list[LayerDef] = field(default_factory=list)

    def __post_init__(self):
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.spec.channels != prev.spec.n_filters:
                raise TopologyError(
                    f"layer {cur.name} expects {cur.spec.channels} channels but "
                    f"{prev.name} produces {prev.spec.n_filters}"
                )
            if (cur.spec.input_h, cur.spec.input_w) != (prev.spec.out_h, prev.spec.out_w):
                raise TopologyError(
                    f"layer {cur.name} input {cur.spec.input_h}x{cur.spec.input_w} "
                    f"!= {prev.name} output {prev.spec.out_h}x{prev.spec.out_w}"
                )

    @property
    def specs(self) -> list[ConvLayerSpec]:
        return [layer.spec for layer in self.layers]

    @property
    def value_bits(self) -> int:
        """Bits of one stored weight: 8 for int8 layers, 32 for float32."""
        bits = {8 if layer.weights.dtype == "int8" else 32
                for layer in self.layers}
        if len(bits) != 1:
            raise DataError(f"model {self.name} has no single weight dtype")
        return bits.pop()

    def weight_arrays(self) -> list[np.ndarray]:
        return [layer.weights.to_array().copy() for layer in self.layers]

    def with_weights(self, arrays: list[np.ndarray]) -> "SequentialModel":
        """Same structure with replacement weight values (float use only)."""
        if len(arrays) != len(self.layers):
            raise DataError("weight list length mismatch")
        layers = []
        for layer, arr in zip(self.layers, arrays):
            layers.append(LayerDef(layer.name, layer.spec,
                                   Tensor.from_array(arr, layer.weights.dtype),
                                   layer.bias, layer.quant))
        return SequentialModel(self.name, layers)


def run_float(model: SequentialModel, input: Tensor) -> Tensor:
    """Forward pass of a float32 model through every layer."""
    x = input
    for layer in model.layers:
        if layer.weights.dtype != "float32":
            raise DataError(f"run_float needs float32 weights in {layer.name}")
        out = conv_dense(x, layer.weights, layer.spec, layer.bias)
        x = Tensor.from_array(out.astype(np.float32), "float32")
    return x


def forward_float64(specs, weight_arrays, biases, input_array) -> np.ndarray:
    """Full-precision forward pass over raw arrays.

    Keeps every intermediate in float64, so derivative oracles are not
    limited by the float32 storage of the model proper.
    """
    x = np.asarray(input_array, dtype=np.float64)
    for spec, w, b in zip(specs, weight_arrays, biases):
        p = patch_matrix(x, spec)
        out = p @ np.asarray(w, dtype=np.float64).reshape(spec.n_filters, -1).T
        if b is not None:
            out = out + np.asarray(b, dtype=np.float64)
        x = out.reshape(spec.out_h, spec.out_w, spec.n_filters)
    return x
