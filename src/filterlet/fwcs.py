"""Pruned-layer storage: filterlet-compressed format plus CSR and dense baselines.

The filterlet format (FWCS) keeps one index per retained filterlet instead of
one per retained weight, so at filterlet-granularity masks its index table is
exactly ``channels`` times smaller than the per-weight CSR table while the
retained values themselves stay contiguous for vector loads.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import CorruptionError, DataError, FormatError
from .tensor import ConvLayerSpec, Tensor

FWCS_MAGIC = b"FWCS"
CSR_MAGIC = b"CSRW"

# magic + three u32 array-length fields; the u16 size field is part of the
# accounted payload, the framing is not
FWCS_FRAMING_BYTES = 16
CSR_FRAMING_BYTES = 16

INDEX_BITS_DEFAULT = 16
_U16_MAX = 0xFFFF


def kept_count(total: int, alpha: float) -> int:
    """Retained units out of ``total`` at pruned fraction ``alpha``.

    Round-half-up of (1-alpha)*total, so alpha=1 always empties the layer and
    alpha=0 keeps everything.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DataError(f"alpha {alpha} outside [0, 1]")
    return int(np.floor((1.0 - alpha) * total + 0.5))


@dataclass(frozen=True)
class FilterletMask:
    """Per-filterlet keep/prune decision for one layer.

    ``kept[n, p]`` is True when filter n retains the filterlet at kernel
    position p (p = h*kernel_w + w).
    """

    spec: ConvLayerSpec
    kept: np.ndarray

    def __post_init__(self):
        kept = np.asarray(self.kept, dtype=bool)
        want = (self.spec.n_filters, self.spec.filterlets_per_filter)
        if kept.shape != want:
            raise DataError(f"mask shape {kept.shape} != {want}")
        kept = kept.copy()
        kept.flags.writeable = False
        object.__setattr__(self, "kept", kept)

    @classmethod
    def all_kept(cls, spec: ConvLayerSpec) -> "FilterletMask":
        return cls(spec, np.ones((spec.n_filters, spec.filterlets_per_filter), bool))

    @classmethod
    def none_kept(cls, spec: ConvLayerSpec) -> "FilterletMask":
        return cls(spec, np.zeros((spec.n_filters, spec.filterlets_per_filter), bool))

    def kept_channels(self) -> int:
        """Filters that still own at least one filterlet."""
        return int(self.kept.any(axis=1).sum())

    def to_weight_mask(self) -> np.ndarray:
        """Expand to per-weight granularity: shape (n_filters, kh*kw*channels)."""
        return np.repeat(self.kept, self.spec.channels, axis=1)


class _RunLayer:
    """Retained runs of ``width`` contiguous weights: a filterlet of
    ``channels`` weights in FWCS, a single weight in CSR.

    arr    retained weights, filter order then run order then channel
    c_ptr  per retained run: flat offset of its first weight in its filter
    f_idx  per filter: position in c_ptr of its first retained run, plus a
           final sentinel equal to the total retained run count
    """

    def __post_init__(self):
        arr = np.array(self.arr)
        c_ptr = np.asarray(self.c_ptr, dtype=np.int64).copy()
        f_idx = np.asarray(self.f_idx, dtype=np.int64).copy()
        if arr.size != self.width * (f_idx[-1] if f_idx.size else 0):
            raise DataError("arr length != width * f_idx[-1]")
        if arr.size != self.width * c_ptr.size:
            raise DataError("arr length != width * c_ptr length")
        for a in (arr, c_ptr, f_idx):
            a.flags.writeable = False
        object.__setattr__(self, "arr", arr)
        object.__setattr__(self, "c_ptr", c_ptr)
        object.__setattr__(self, "f_idx", f_idx)
        object.__setattr__(self, "_accepted", None)

    @property
    def n_filters(self) -> int:
        return len(self.f_idx) - 1

    @property
    def n_retained(self) -> int:
        return int(self.f_idx[-1])

    def validate(self, spec: ConvLayerSpec) -> None:
        """Structural invariants; raises CorruptionError when violated.

        ``f_idx`` opens every filter and never decreases; each ``c_ptr``
        entry starts a run inside its filter, strictly after the previous
        entry of the same filter.  The arrays are private read-only copies,
        so a spec once accepted is not checked again."""
        if spec == self._accepted:
            return
        f_idx, c_ptr, width = self.f_idx, self.c_ptr, self.width
        if len(f_idx) != spec.n_filters + 1 or f_idx[0] != 0:
            raise CorruptionError("f_idx length or leading entry wrong")
        if np.any(np.diff(f_idx) < 0):
            raise CorruptionError("f_idx not non-decreasing")
        if len(c_ptr) != f_idx[-1]:
            raise CorruptionError("c_ptr length != retained count")
        if np.any(c_ptr % width != 0):
            raise CorruptionError("c_ptr entry not a multiple of its width")
        if np.any(c_ptr < 0) or np.any(c_ptr + width > spec.filterlets_per_filter
                                       * spec.channels):
            raise CorruptionError("c_ptr entry outside its filter")
        # every entry that does not open a filter must exceed its predecessor
        opens = np.zeros(len(c_ptr) + 1, bool)
        opens[f_idx] = True
        if np.any((np.diff(c_ptr) <= 0) & ~opens[1:-1]):
            raise CorruptionError("c_ptr not strictly increasing within a filter")
        object.__setattr__(self, "_accepted", spec)


@dataclass(frozen=True)
class FwcsLayer(_RunLayer):
    """Four-array compressed form of a filterlet-pruned layer: the run
    layout with runs of ``size`` (= channels) weights."""

    arr: np.ndarray
    size: int
    c_ptr: np.ndarray
    f_idx: np.ndarray
    dtype: str

    @property
    def width(self) -> int:
        return self.size

    def validate(self, spec: ConvLayerSpec) -> None:
        if self.size != spec.filterlet_length:
            raise CorruptionError(f"size {self.size} != channels {spec.channels}")
        super().validate(spec)


@dataclass(frozen=True)
class CsrLayer(_RunLayer):
    """Per-weight compressed form: one c_ptr entry per retained weight."""

    arr: np.ndarray
    c_ptr: np.ndarray
    f_idx: np.ndarray
    dtype: str

    width = 1


def _encode_runs(cls, weights: Tensor, kept: np.ndarray, *head) -> _RunLayer:
    """A ``cls`` layer of the runs ``kept`` marks: each filter's weights
    split into ``kept.shape[1]`` equal runs, of which ``kept[n, r]`` keeps
    run r of filter n.  ``head`` holds the fields between arr and c_ptr."""
    n, runs = kept.shape
    w = weights.to_array().reshape(n, runs, -1)
    rows, cols = np.nonzero(kept)
    f_idx = np.concatenate(([0], np.cumsum(kept.sum(axis=1))))
    return cls(w[rows, cols].reshape(-1), *head, cols * w.shape[2], f_idx,
               weights.dtype)


def _decode_runs(layer: _RunLayer, spec: ConvLayerSpec) -> Tensor:
    """Dense weights with every unretained run zeroed."""
    layer.validate(spec)
    width = layer.width
    out = np.zeros((spec.n_filters, spec.filterlets_per_filter * spec.channels
                    // width, width), dtype=layer.arr.dtype)
    rows = np.repeat(np.arange(spec.n_filters), np.diff(layer.f_idx))
    out[rows, layer.c_ptr // width] = layer.arr.reshape(-1, width)
    return Tensor(spec.weight_dims, layer.dtype, out.reshape(-1))


def encode_fwcs(weights: Tensor, mask: FilterletMask) -> FwcsLayer:
    """Pack the retained filterlets of ``weights`` into FWCS form."""
    spec = mask.spec
    if weights.dims != spec.weight_dims:
        raise FormatError(
            f"weight dims {weights.dims} do not match spec {spec.weight_dims}"
        )
    return _encode_runs(FwcsLayer, weights, mask.kept, spec.channels)


def decode_fwcs(layer: FwcsLayer, spec: ConvLayerSpec) -> Tensor:
    """Dense weights with pruned filterlets zeroed; inverse of encode."""
    return _decode_runs(layer, spec)


def encode_csr(weights: Tensor, weight_mask: np.ndarray) -> CsrLayer:
    """Pack retained weights individually; weight_mask is (n_filters, kh*kw*c)."""
    want = (weights.dims[0], int(np.prod(weights.dims[1:])))
    mask = np.asarray(weight_mask, dtype=bool)
    if mask.shape != want:
        raise FormatError(f"weight mask shape {mask.shape} != {want}")
    return _encode_runs(CsrLayer, weights, mask)


def decode_csr(layer: CsrLayer, spec: ConvLayerSpec) -> Tensor:
    return _decode_runs(layer, spec)


def storage_footprint(obj, m: int = 8, m0: int = INDEX_BITS_DEFAULT,
                      spec: ConvLayerSpec | None = None) -> int:
    """Storage bytes for a layer at m-bit values and m0-bit index entries.

    FWCS counts arr, c_ptr, f_idx and the size field; CSR counts arr, c_ptr,
    f_idx; dense (Tensor or ConvLayerSpec) counts values only.
    """
    if m not in (8, 32):
        raise DataError(f"value width {m} not in (8, 32)")
    if isinstance(obj, FwcsLayer):
        bits = m * len(obj.arr) + m0 * (len(obj.c_ptr) + len(obj.f_idx)) + m0
    elif isinstance(obj, CsrLayer):
        bits = m * len(obj.arr) + m0 * (len(obj.c_ptr) + len(obj.f_idx))
    elif isinstance(obj, Tensor):
        bits = m * obj.nelems
    elif isinstance(obj, ConvLayerSpec):
        bits = m * obj.weight_count
    else:
        raise DataError(f"cannot account storage for {type(obj).__name__}")
    if bits % 8:
        raise DataError(f"footprint {bits} bits is not byte aligned")
    return bits // 8


def _pack_u16_array(vals: np.ndarray, what: str) -> bytes:
    if vals.size and (vals.min() < 0 or vals.max() > _U16_MAX):
        raise FormatError(f"{what} entry outside u16 range")
    return struct.pack("<I", vals.size) + vals.astype("<u2").tobytes()


def _unpack_u16_array(buf: bytes, offset: int) -> tuple[np.ndarray, int]:
    if offset + 4 > len(buf):
        raise CorruptionError("truncated index block")
    (count,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    end = offset + 2 * count
    if end > len(buf):
        raise CorruptionError("truncated index entries")
    return np.frombuffer(buf[offset:end], dtype="<u2").astype(np.int64), end


def _value_dtype(dtype: str) -> np.dtype:
    return np.dtype(np.int8 if dtype == "int8" else "<f4")


def _write_block(layer, magic: bytes, head: bytes = b"") -> bytes:
    """``magic``, the packed ``head`` fields, then u32+values, u32+u16 c_ptr
    and u32+u16 f_idx: the body both packed formats share."""
    raw = layer.arr.astype(_value_dtype(layer.dtype)).tobytes()
    return (magic + head + struct.pack("<I", len(layer.arr)) + raw
            + _pack_u16_array(layer.c_ptr, "c_ptr")
            + _pack_u16_array(layer.f_idx, "f_idx"))


def _read_block(buf: bytes, offset: int, dtype: str, cls, magic: bytes,
                head: str = ""):
    """Inverse of ``_write_block``: a ``cls`` layer built from the ``head``
    struct fields and the shared body, plus the offset past the block."""
    name = magic.decode()
    if buf[offset:offset + 4] != magic:
        raise CorruptionError(f"bad {name} magic")
    fmt = f"<{head}I"
    try:
        *fields, n_arr = struct.unpack_from(fmt, buf, offset + 4)
    except struct.error as e:
        raise CorruptionError(f"truncated {name} header: {e}") from None
    offset += 4 + struct.calcsize(fmt)
    values = _value_dtype(dtype)
    end = offset + n_arr * values.itemsize
    if end > len(buf):
        raise CorruptionError(f"truncated {name} values")
    arr = np.frombuffer(buf, dtype=values, count=n_arr, offset=offset)
    c_ptr, end = _unpack_u16_array(buf, end)
    f_idx, end = _unpack_u16_array(buf, end)
    try:
        # the head fields follow arr in both layer classes' field order
        return cls(arr, *fields, c_ptr, f_idx, dtype), end
    except DataError as e:
        raise CorruptionError(str(e)) from None


def write_fwcs(layer: FwcsLayer) -> bytes:
    """FWCS block: magic, u16 size, u32+arr bytes, u32+u16 c_ptr, u32+u16 f_idx."""
    if not 0 <= layer.size <= _U16_MAX:
        raise FormatError("size outside u16 range")
    return _write_block(layer, FWCS_MAGIC, struct.pack("<H", layer.size))


def read_fwcs(buf: bytes, offset: int, dtype: str) -> tuple[FwcsLayer, int]:
    return _read_block(buf, offset, dtype, FwcsLayer, FWCS_MAGIC, "H")


def write_csr(layer: CsrLayer) -> bytes:
    """CSR block: the FWCS block without the size field."""
    return _write_block(layer, CSR_MAGIC)


def read_csr(buf: bytes, offset: int, dtype: str) -> tuple[CsrLayer, int]:
    return _read_block(buf, offset, dtype, CsrLayer, CSR_MAGIC)
