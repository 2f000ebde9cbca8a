"""Pruned-layer storage: filterlet-compressed format plus CSR and dense baselines.

The filterlet format (FWCS) keeps one index per retained filterlet instead of
one per retained weight, so at filterlet-granularity masks its index table is
exactly ``channels`` times smaller than the per-weight CSR table while the
retained values themselves stay contiguous for vector loads.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CorruptionError, DataError, FormatError
from .tensor import DTYPES, ConvLayerSpec, Reader, Tensor, frozen

FWCS_MAGIC = b"FWCS"
CSR_MAGIC = b"CSRW"

# magic + three u32 array-length fields; the u16 size field is part of the
# accounted payload, the framing is not
FWCS_FRAMING_BYTES = 16
CSR_FRAMING_BYTES = 16

# every index entry, the FWCS size field included, is stored as this dtype
INDEX_DTYPE = np.dtype("<u2")
_INDEX_MAX = int(np.iinfo(INDEX_DTYPE).max)


def kept_count(total: int, alpha: float) -> int:
    """Retained units out of ``total`` at pruned fraction ``alpha``.

    Round-half-up of (1-alpha)*total, so alpha=1 always empties the layer and
    alpha=0 keeps everything.
    """
    if not 0.0 <= alpha <= 1.0:
        raise DataError(f"alpha {alpha} outside [0, 1]")
    return math.floor((1.0 - alpha) * total + 0.5)


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
        arr = frozen(np.asarray(self.arr))
        c_ptr = np.array(self.c_ptr, dtype=np.int64)
        f_idx = np.array(self.f_idx, dtype=np.int64)
        if arr.size != self.width * (f_idx[-1] if f_idx.size else 0):
            raise DataError("arr length != width * f_idx[-1]")
        if arr.size != self.width * c_ptr.size:
            raise DataError("arr length != width * c_ptr length")
        c_ptr.flags.writeable = False
        f_idx.flags.writeable = False
        object.__setattr__(self, "arr", arr)
        object.__setattr__(self, "c_ptr", c_ptr)
        object.__setattr__(self, "f_idx", f_idx)
        object.__setattr__(self, "_accepted", None)
        object.__setattr__(self, "_slots", None)

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
        entry of the same filter.  No one can change the arrays (``arr``
        views immutable bytes or is a private copy; ``c_ptr`` and ``f_idx``
        are private copies), so a spec once accepted is not checked again."""
        self.slots(spec)

    def slots(self, spec: ConvLayerSpec) -> np.ndarray:
        """``validate(spec)``, then the slot of each retained run: run r of
        filter n is row ``n * R + r`` of a filter-major (n_filters * R,
        width) array, R = filterlets_per_filter * channels // width."""
        if spec == self._accepted:
            return self._slots
        f_idx, c_ptr, width = self.f_idx, self.c_ptr, self.width
        if len(f_idx) != spec.n_filters + 1 or f_idx[0] != 0:
            raise CorruptionError("f_idx length or leading entry wrong")
        per_filter = f_idx[1:] - f_idx[:-1]
        if per_filter.min() < 0:
            raise CorruptionError("f_idx not non-decreasing")
        if len(c_ptr) != f_idx[-1]:
            raise CorruptionError("c_ptr length != retained count")
        run, rem = np.divmod(c_ptr, width)
        if rem.any():
            raise CorruptionError("c_ptr entry not a multiple of its width")
        runs = spec.filterlets_per_filter * spec.channels // width
        if run.size and (run.min() < 0 or run.max() >= runs):
            raise CorruptionError("c_ptr entry outside its filter")
        # every run lies inside its filter, so the slots increase strictly
        # exactly when each filter's entries do
        slots = run + np.arange(0, spec.n_filters * runs, runs).repeat(per_filter)
        if (slots[1:] <= slots[:-1]).any():
            raise CorruptionError("c_ptr not strictly increasing within a filter")
        slots.flags.writeable = False
        object.__setattr__(self, "_slots", slots)
        object.__setattr__(self, "_accepted", spec)
        return slots


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

    def slots(self, spec: ConvLayerSpec) -> np.ndarray:
        if self.size != spec.filterlet_length:
            raise CorruptionError(f"size {self.size} != channels {spec.channels}")
        return super().slots(spec)


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
    slots = layer.slots(spec)
    width = layer.width
    out = np.zeros((spec.weight_count // width, width), dtype=layer.arr.dtype)
    out[slots] = layer.arr.reshape(-1, width)
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


def storage_footprint(layer) -> int:
    """Stored bytes of a layer: values at the width of its dtype, u16 index
    entries.  FWCS counts arr, c_ptr, f_idx and the size field; CSR counts
    arr, c_ptr and f_idx; a dense Tensor counts values only."""
    if isinstance(layer, Tensor):
        return layer.data.nbytes
    if not isinstance(layer, _RunLayer):
        raise DataError(f"cannot account storage for {type(layer).__name__}")
    # FWCS stores one index-width field more: its size
    entries = len(layer.c_ptr) + len(layer.f_idx) + isinstance(layer, FwcsLayer)
    return (layer.arr.size * DTYPES[layer.dtype].itemsize
            + INDEX_DTYPE.itemsize * entries)


def _pack_index_array(vals: np.ndarray, what: str) -> bytes:
    if vals.size and (vals.min() < 0 or vals.max() > _INDEX_MAX):
        raise FormatError(f"{what} entry outside u16 range")
    return struct.pack("<I", vals.size) + vals.astype(INDEX_DTYPE).tobytes()


def _write_block(layer, magic: bytes, head: bytes = b"") -> bytes:
    """``magic``, the packed ``head`` fields, then u32+values, u32+u16 c_ptr
    and u32+u16 f_idx: the body both packed formats share."""
    raw = layer.arr.astype(DTYPES[layer.dtype], copy=False).tobytes()
    return (magic + head + struct.pack("<I", len(layer.arr)) + raw
            + _pack_index_array(layer.c_ptr, "c_ptr")
            + _pack_index_array(layer.f_idx, "f_idx"))


def _read_block(buf: bytes, offset: int, dtype: str, cls, magic: bytes,
                head: str = ""):
    """Inverse of ``_write_block``: a ``cls`` layer built from the ``head``
    struct fields and the shared body, plus the offset past the block."""
    r = Reader(buf, offset, f"{magic.decode()} block")
    r.magic(magic)
    *fields, n_arr = r.unpack(f"<{head}I")
    arr = r.array(DTYPES[dtype], n_arr)
    c_ptr = r.array(INDEX_DTYPE, *r.unpack("<I"))
    f_idx = r.array(INDEX_DTYPE, *r.unpack("<I"))
    try:
        # the head fields follow arr in both layer classes' field order
        return cls(arr, *fields, c_ptr, f_idx, dtype), r.offset
    except DataError as e:
        raise CorruptionError(str(e)) from None


def write_fwcs(layer: FwcsLayer) -> bytes:
    """FWCS block: magic, u16 size, u32+arr bytes, u32+u16 c_ptr, u32+u16 f_idx."""
    if not 0 <= layer.size <= _INDEX_MAX:
        raise FormatError("size outside u16 range")
    return _write_block(layer, FWCS_MAGIC,
                        struct.pack("<" + INDEX_DTYPE.char, layer.size))


def read_fwcs(buf: bytes, offset: int, dtype: str) -> tuple[FwcsLayer, int]:
    return _read_block(buf, offset, dtype, FwcsLayer, FWCS_MAGIC,
                       INDEX_DTYPE.char)


def write_csr(layer: CsrLayer) -> bytes:
    """CSR block: the FWCS block without the size field."""
    return _write_block(layer, CSR_MAGIC)


def read_csr(buf: bytes, offset: int, dtype: str) -> tuple[CsrLayer, int]:
    return _read_block(buf, offset, dtype, CsrLayer, CSR_MAGIC)
