"""Sequential convolution models shared by the pruning pipeline."""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, TopologyError
from .tensor import ConvLayerSpec, QuantParams, Tensor, check_scale, \
    check_zero_point, dequantize, patch_matrix


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
            check_scale(name, getattr(self, name))
        for name in ("input_zero_point", "output_zero_point"):
            check_zero_point(name, getattr(self, name))


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
