"""Bundle version 1, written as the toolkit wrote it before version 2: the
fixtures for reading old files, and the size the ``layout/*`` claims
compare version 2 with.

Version 1 differs from version 2 only in the version field and in two parts
of a layer payload:

- an FWCS block is ``FWCS``, u16 size (the channel count), u32 count and
  the kept values, u32 count and u16 ``c_ptr`` (each kept run's weight
  offset in its filter), u32 count and u16 ``f_idx`` (the running run
  totals, ``n_filters + 1`` of them);
- a bias is a float32 ``DTTN`` tensor block, also for an int8 layer.

Dense and CSR weight blocks are the same in both versions.
"""

import json
import struct
import zlib

import numpy as np

from filterlet.fwcs import write_csr
from filterlet.tensor import Tensor, write_tensor

# magic and three u32 lengths: the bytes of a version-1 FWCS block that
# storage_footprint does not count
FWCS_FRAMING_BYTES = 16


def u16_array(values) -> bytes:
    values = np.asarray(values)
    if values.size and (values.min() < 0 or values.max() > 0xFFFF):
        raise ValueError("entry outside u16 range")
    return struct.pack("<I", values.size) + values.astype("<u2").tobytes()


def fwcs_block(layer) -> bytes:
    """The version-1 block of an ``FwcsLayer``."""
    return (b"FWCS" + struct.pack("<HI", layer.size, layer.arr.size)
            + layer.arr.tobytes() + u16_array(layer.c_ptr)
            + u16_array(layer.f_idx))


def bias_block(bias) -> bytes:
    """A bias as version 1 stored it; integers must be exact as float32."""
    packed = np.asarray(bias).astype(np.float32)
    if np.any(packed != bias):
        raise ValueError("bias not exact as float32")
    return write_tensor(Tensor.from_array(packed, "float32"))


def layer_payload(layer) -> bytes:
    """The version-1 payload of a ``BundleLayer``."""
    weights, bias = layer.decode_weights()
    block = {"dense": write_tensor, "csr": write_csr,
             "fwcs": fwcs_block}[layer.fmt](weights)
    return block if bias is None else block + bias_block(bias)


def container(manifest: dict, payloads: list[bytes]) -> bytes:
    """A version-1 bundle of ``manifest`` and the layer ``payloads``."""
    text = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    blobs = b"".join(payloads)
    return (b"FLTB" + struct.pack("<HI", 1, len(text)) + text
            + struct.pack(f"<I{len(payloads)}I", len(payloads),
                          *map(len, payloads))
            + struct.pack("<I", zlib.crc32(blobs)) + blobs)


def to_bytes(bundle) -> bytes:
    """``bundle`` saved as version 1."""
    return container(bundle.manifest(),
                     [layer_payload(layer) for layer in bundle.layers])
