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


def _check_f_idx(f_idx: np.ndarray, spec: ConvLayerSpec) -> None:
    if len(f_idx) != spec.n_filters + 1 or f_idx[0] != 0:
        raise CorruptionError("f_idx length or leading entry wrong")
    if np.any(np.diff(f_idx) < 0):
        raise CorruptionError("f_idx not non-decreasing")


def _check_c_ptr(c_ptr: np.ndarray, f_idx: np.ndarray, width: int,
                 spec: ConvLayerSpec) -> None:
    """Each entry starts a run of ``width`` weights (a filterlet in FWCS, one
    weight in CSR) inside its filter, strictly after the previous entry of
    the same filter; ``f_idx`` must already have passed ``_check_f_idx``."""
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

    @property
    def n_kept(self) -> int:
        return int(self.kept.sum())

    def kept_channels(self) -> int:
        """Filters that still own at least one filterlet."""
        return int(self.kept.any(axis=1).sum())

    def to_weight_mask(self) -> np.ndarray:
        """Expand to per-weight granularity: shape (n_filters, kh*kw*channels)."""
        return np.repeat(self.kept, self.spec.channels, axis=1)


@dataclass(frozen=True)
class FwcsLayer:
    """Four-array compressed form of a filterlet-pruned layer.

    arr    retained weights, filter order then filterlet order then channel
    size   filterlet length (= channels)
    c_ptr  per retained filterlet: flat offset of its first weight in its filter
    f_idx  per filter: position in c_ptr of its first retained filterlet,
           plus a final sentinel equal to the total retained filterlet count
    """

    arr: np.ndarray
    size: int
    c_ptr: np.ndarray
    f_idx: np.ndarray
    dtype: str

    def __post_init__(self):
        arr = np.asarray(self.arr)
        c_ptr = np.asarray(self.c_ptr, dtype=np.int64).copy()
        f_idx = np.asarray(self.f_idx, dtype=np.int64).copy()
        if arr.size != self.size * (f_idx[-1] if f_idx.size else 0):
            raise DataError("arr length inconsistent with size * f_idx[-1]")
        for a in (arr, c_ptr, f_idx):
            a.flags.writeable = False
        object.__setattr__(self, "arr", arr)
        object.__setattr__(self, "c_ptr", c_ptr)
        object.__setattr__(self, "f_idx", f_idx)

    @property
    def n_filters(self) -> int:
        return len(self.f_idx) - 1

    @property
    def n_retained(self) -> int:
        return int(self.f_idx[-1])

    def filterlets_of(self, n: int) -> range:
        return range(int(self.f_idx[n]), int(self.f_idx[n + 1]))

    def validate(self, spec: ConvLayerSpec) -> None:
        """Structural invariants; raises CorruptionError when violated."""
        if self.size != spec.filterlet_length:
            raise CorruptionError(f"size {self.size} != channels {spec.channels}")
        _check_f_idx(self.f_idx, spec)
        _check_c_ptr(self.c_ptr, self.f_idx, self.size, spec)


@dataclass(frozen=True)
class CsrLayer:
    """Per-weight compressed form: one c_ptr entry per retained weight."""

    arr: np.ndarray
    c_ptr: np.ndarray
    f_idx: np.ndarray
    dtype: str

    def __post_init__(self):
        arr = np.asarray(self.arr)
        c_ptr = np.asarray(self.c_ptr, dtype=np.int64).copy()
        f_idx = np.asarray(self.f_idx, dtype=np.int64).copy()
        if arr.size != (f_idx[-1] if f_idx.size else 0):
            raise DataError("arr length != f_idx sentinel")
        if arr.size != c_ptr.size:
            raise DataError("arr and c_ptr lengths differ")
        for a in (arr, c_ptr, f_idx):
            a.flags.writeable = False
        object.__setattr__(self, "arr", arr)
        object.__setattr__(self, "c_ptr", c_ptr)
        object.__setattr__(self, "f_idx", f_idx)

    @property
    def n_filters(self) -> int:
        return len(self.f_idx) - 1

    @property
    def n_retained(self) -> int:
        return int(self.f_idx[-1])

    def validate(self, spec: ConvLayerSpec) -> None:
        _check_f_idx(self.f_idx, spec)
        _check_c_ptr(self.c_ptr, self.f_idx, 1, spec)


def _check_weights(weights: Tensor, spec: ConvLayerSpec) -> np.ndarray:
    if weights.dims != spec.weight_dims:
        raise FormatError(
            f"weight dims {weights.dims} do not match spec {spec.weight_dims}"
        )
    n, hw, c = spec.n_filters, spec.filterlets_per_filter, spec.channels
    return weights.to_array().reshape(n, hw, c)


def encode_fwcs(weights: Tensor, mask: FilterletMask) -> FwcsLayer:
    """Pack the retained filterlets of ``weights`` into FWCS form."""
    spec = mask.spec
    w = _check_weights(weights, spec)
    c = spec.channels
    chunks = []
    c_ptr = []
    f_idx = [0]
    for n in range(spec.n_filters):
        positions = np.flatnonzero(mask.kept[n])
        for p in positions:
            chunks.append(w[n, p])
            c_ptr.append(int(p) * c)
        f_idx.append(f_idx[-1] + len(positions))
    if chunks:
        arr = np.concatenate(chunks)
    else:
        arr = np.empty(0, dtype=w.dtype)
    return FwcsLayer(arr, c, np.array(c_ptr, np.int64),
                     np.array(f_idx, np.int64), weights.dtype)


def decode_fwcs(layer: FwcsLayer, spec: ConvLayerSpec) -> Tensor:
    """Dense weights with pruned filterlets zeroed; inverse of encode."""
    layer.validate(spec)
    n, hw, c = spec.n_filters, spec.filterlets_per_filter, spec.channels
    out = np.zeros((n, hw * c), dtype=layer.arr.dtype)
    for f in range(n):
        for j in layer.filterlets_of(f):
            base = int(layer.c_ptr[j])
            out[f, base:base + c] = layer.arr[j * c:(j + 1) * c]
    return Tensor(spec.weight_dims, layer.dtype, out.reshape(-1))


def encode_csr(weights: Tensor, weight_mask: np.ndarray) -> CsrLayer:
    """Pack retained weights individually; weight_mask is (n_filters, kh*kw*c)."""
    spec_like = weights.dims
    n = spec_like[0]
    per_filter = int(np.prod(spec_like[1:]))
    mask = np.asarray(weight_mask, dtype=bool)
    if mask.shape != (n, per_filter):
        raise FormatError(f"weight mask shape {mask.shape} != {(n, per_filter)}")
    w = weights.to_array().reshape(n, per_filter)
    vals = []
    c_ptr = []
    f_idx = [0]
    for f in range(n):
        idxs = np.flatnonzero(mask[f])
        vals.append(w[f, idxs])
        c_ptr.extend(int(i) for i in idxs)
        f_idx.append(f_idx[-1] + len(idxs))
    arr = np.concatenate(vals) if vals else np.empty(0, dtype=w.dtype)
    return CsrLayer(arr, np.array(c_ptr, np.int64), np.array(f_idx, np.int64),
                    weights.dtype)


def decode_csr(layer: CsrLayer, spec: ConvLayerSpec) -> Tensor:
    layer.validate(spec)
    n = spec.n_filters
    per_filter = spec.filterlets_per_filter * spec.channels
    out = np.zeros((n, per_filter), dtype=layer.arr.dtype)
    for f in range(n):
        lo, hi = int(layer.f_idx[f]), int(layer.f_idx[f + 1])
        out[f, layer.c_ptr[lo:hi]] = layer.arr[lo:hi]
    return Tensor(spec.weight_dims, layer.dtype, out.reshape(-1))


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
    arr = np.frombuffer(buf[offset:end], dtype=values)
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
