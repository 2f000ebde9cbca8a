"""An independent reader of the bundle version 2 layer payloads, written
from the README's byte table with ``struct`` and ``np.frombuffer`` alone.

It walks every layer payload of ``golden.py``'s chains, packed dense, FWCS
and CSR at each ratio, and of float32 copies of them, and checks that what
it reads equals ``decode_weights`` and that the walk ends exactly at the
end of the payload.
"""

import math
import struct

import numpy as np
import pytest

import golden
from filterlet.bundle import ModelBundle
from filterlet.model import LayerDef, SequentialModel
from filterlet.tensor import Tensor

VALUE = {"int8": "<i1", "float32": "<f4"}
BIAS = {"int8": "<i4", "float32": "<f4"}
DTTN_TAGS = {0: "float32", 1: "int8"}


class Payload:
    """A cursor over one payload that refuses to read past its end."""

    def __init__(self, raw: bytes):
        self.raw, self.at = raw, 0

    def take(self, n: int) -> bytes:
        chunk = self.raw[self.at:self.at + n]
        assert len(chunk) == n, "read past the end of the payload"
        self.at += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def array(self, dtype: str, count: int) -> np.ndarray:
        return np.frombuffer(self.take(count * np.dtype(dtype).itemsize),
                             dtype, count)


def read_payload(layer) -> dict:
    """Every field of a version-2 layer payload, by the byte table."""
    spec, p = layer.spec, Payload(layer.payload)
    fields = {}
    if layer.fmt == "dense":
        assert p.take(4) == b"DTTN"
        tag, rank = struct.unpack("<BB", p.take(2))
        dims = struct.unpack(f"<{rank}I", p.take(4 * rank))
        assert DTTN_TAGS[tag] == layer.dtype
        fields["values"] = p.array(VALUE[layer.dtype], math.prod(dims))
    elif layer.fmt == "fwcs":
        assert p.take(4) == b"FWCS"
        index = "<u1" if spec.kernel_h * spec.kernel_w <= 255 else "<u2"
        fields["counts"] = p.array(index, spec.n_filters)
        fields["positions"] = p.array(index, int(fields["counts"].sum()))
        fields["values"] = p.array(VALUE[layer.dtype],
                                   fields["positions"].size * spec.channels)
    else:
        assert p.take(4) == b"CSRW"
        fields["values"] = p.array(VALUE[layer.dtype], p.u32())
        fields["c_ptr"] = p.array("<u2", p.u32())
        fields["f_idx"] = p.array("<u2", p.u32())
    if layer.has_bias:
        fields["bias"] = p.array(BIAS[layer.dtype], spec.n_filters)
    fields["end"] = p.at
    return fields


def float_copy(model):
    return SequentialModel(model.name, [
        LayerDef(l.name, l.spec,
                 Tensor.from_array(l.weights.to_array().astype(np.float32)),
                 l.bias.astype(np.float32))
        for l in model.layers])


def golden_bundles():
    """(case, bundle) for every bundle of golden.py's chains and of their
    float32 copies, after a trip through bytes."""
    for c, name in enumerate(golden.CHAINS):
        model, grads = golden.int8_chain(name, seed=c)
        for kind, m in (("int8", model), ("float32", float_copy(model))):
            for ratio in golden.RATIOS:
                for fmt, bundle in golden.bundles(m, grads, ratio).items():
                    yield (f"{name}/{kind}/{fmt}/{ratio}",
                           ModelBundle.from_bytes(bundle.to_bytes()))


BUNDLES = dict(golden_bundles())


@pytest.mark.parametrize("case", sorted(BUNDLES))
def test_the_byte_table_reads_what_decode_weights_returns(case):
    for layer in BUNDLES[case].layers:
        got = read_payload(layer)
        assert got["end"] == len(layer.payload)
        weights, bias = layer.decode_weights()
        assert layer.has_bias and np.array_equal(got["bias"], bias)
        if layer.fmt == "dense":
            assert np.array_equal(got["values"], weights.data)
            continue
        assert np.array_equal(got["values"], weights.arr)
        if layer.fmt == "fwcs":
            assert np.array_equal(got["counts"], np.diff(weights.f_idx))
            assert np.array_equal(
                got["positions"].astype(np.int64) * weights.size, weights.c_ptr)
        else:
            assert np.array_equal(got["c_ptr"], weights.c_ptr)
            assert np.array_equal(got["f_idx"], weights.f_idx)
