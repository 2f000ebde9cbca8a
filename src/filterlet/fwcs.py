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

# magic + three u32 array-length fields of a CSR block
CSR_FRAMING_BYTES = 16

# the paper's index width: CSR entries and version-1 FWCS entries are stored
# as this dtype, and storage_footprint, the flash model and compare price
# every index entry at it
INDEX_DTYPE = np.dtype("<u2")
_INDEX_MAX = int(np.iinfo(INDEX_DTYPE).max)
_U8 = np.dtype("u1")


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
        kept = frozen(self.kept, bool)
        want = (self.spec.n_filters, self.spec.filterlets_per_filter)
        if kept.shape != want:
            raise DataError(f"mask shape {kept.shape} != {want}")
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
        if self.dtype not in DTYPES:
            raise DataError(f"unsupported dtype {self.dtype!r}")
        arr = frozen(self.arr)
        if arr.dtype != DTYPES[self.dtype]:
            raise DataError(f"values stored as {arr.dtype}, not {self.dtype}")
        c_ptr = frozen(self.c_ptr, np.int64)
        f_idx = frozen(self.f_idx, np.int64)
        if c_ptr.size != (f_idx[-1] if f_idx.size else 0):
            raise DataError("c_ptr length != f_idx[-1]")
        if arr.size != self.width * c_ptr.size:
            raise DataError("arr length != width * c_ptr length")
        object.__setattr__(self, "arr", arr)
        object.__setattr__(self, "c_ptr", c_ptr)
        object.__setattr__(self, "f_idx", f_idx)
        object.__setattr__(self, "_accepted", None)
        object.__setattr__(self, "_slots", None)

    @property
    def n_retained(self) -> int:
        # the constructor checked that c_ptr has f_idx[-1] entries
        return self.c_ptr.size

    def _accept(self, spec: ConvLayerSpec, run: np.ndarray,
                filt: np.ndarray) -> None:
        """Take ``run`` and ``filt`` as ``slots(spec)``, unchecked: for a
        caller that built the layer from them, checked them, and keeps no
        other reference to these two fresh arrays, which become read-only
        here instead of being copied."""
        run.flags.writeable = filt.flags.writeable = False
        object.__setattr__(self, "_slots", (run, filt))
        object.__setattr__(self, "_accepted", spec)

    def slots(self, spec: ConvLayerSpec) -> tuple[np.ndarray, np.ndarray]:
        """Per retained run its run index r within its filter and its
        filter n (rows r*width to (r+1)*width - 1 of column n of the
        (K, n_filters) operand), once the run layout fits ``spec``, else
        CorruptionError.  A spec once accepted is not checked again: the
        arrays are private read-only copies."""
        if spec == self._accepted:
            return self._slots
        f_idx, width = self.f_idx, self.width
        if len(f_idx) != spec.n_filters + 1 or f_idx[0] != 0:
            raise CorruptionError("f_idx length or leading entry wrong")
        run, rem = np.divmod(self.c_ptr, width)
        if np.count_nonzero(rem):
            raise CorruptionError("c_ptr entry not a multiple of its width")
        # the steps of f_idx sum to the c_ptr length (the constructor)
        filt = _check_runs(f_idx[1:] - f_idx[:-1], run,
                           spec.filterlets_per_filter * spec.channels // width)
        self._accept(spec, run, filt)
        return self._slots

    def operand(self, spec: ConvLayerSpec, dtype) -> np.ndarray:
        """``slots(spec)``, then the C-contiguous (K, n_filters) GEMM
        operand as ``dtype``, K = filterlets_per_filter * channels: column
        n holds filter n's weights, every unkept run zero."""
        run, filt = self.slots(spec)
        width = self.width
        out = np.zeros((spec.filterlets_per_filter * spec.channels // width,
                        width, spec.n_filters), dtype)
        out[run, :, filt] = self.arr.reshape(-1, width)
        return out.reshape(-1, spec.n_filters)


def _check_runs(counts: np.ndarray, run: np.ndarray, runs: int) -> np.ndarray:
    """Each run's filter, for ``counts[n]`` runs in filter n and ``run``
    each run's index among its filter's ``runs``, filter by filter.
    CorruptionError unless no count is negative, every index lies inside
    its filter and indices rise strictly within each filter."""
    try:
        # repeat rejects a negative count
        filt = np.arange(counts.size).repeat(counts)
    except ValueError:
        raise CorruptionError("negative run count") from None
    if run.size and (run.min() < 0 or run.max() >= runs):
        raise CorruptionError("run index outside its filter")
    # every run lies inside its filter, so the filter-major slots rise
    # strictly exactly when each filter's indices do
    slots = run + filt * runs
    if np.count_nonzero(slots[1:] <= slots[:-1]):
        raise CorruptionError("run indices not rising strictly within a filter")
    return filt


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

    def slots(self, spec: ConvLayerSpec) -> tuple[np.ndarray, np.ndarray]:
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


def _encode_runs(cls, weights: Tensor, kept: np.ndarray, *head,
                 spec: ConvLayerSpec | None = None) -> _RunLayer:
    """A ``cls`` layer of the runs ``kept`` marks: each filter's weights
    split into ``kept.shape[1]`` equal runs, of which ``kept[n, r]`` keeps
    run r of filter n.  ``head`` holds the fields between arr and c_ptr.
    Given ``spec``, the layer is accepted for it: a mask's runs are valid
    slots by construction."""
    n, runs = kept.shape
    w = weights.to_array().reshape(n, runs, -1)
    rows, cols = np.nonzero(kept)
    f_idx = np.concatenate(([0], np.cumsum(kept.sum(axis=1))))
    layer = cls(w[rows, cols].reshape(-1), *head, cols * w.shape[2], f_idx,
                weights.dtype)
    if spec is not None:
        layer._accept(spec, cols, rows)
    return layer


def encode_fwcs(weights: Tensor, mask: FilterletMask) -> FwcsLayer:
    """Pack the retained filterlets of ``weights`` into FWCS form."""
    spec = mask.spec
    if weights.dims != spec.weight_dims:
        raise FormatError(
            f"weight dims {weights.dims} do not match spec {spec.weight_dims}"
        )
    return _encode_runs(FwcsLayer, weights, mask.kept, spec.channels,
                        spec=spec)


def decode_fwcs(layer: FwcsLayer, spec: ConvLayerSpec) -> Tensor:
    """Dense weights with pruned filterlets zeroed; inverse of encode."""
    return Tensor(spec.weight_dims, layer.dtype,
                  layer.operand(spec, layer.arr.dtype).T)


def encode_csr(weights: Tensor, weight_mask: np.ndarray) -> CsrLayer:
    """Pack retained weights individually; weight_mask is (n_filters, kh*kw*c)."""
    want = (weights.dims[0], int(np.prod(weights.dims[1:])))
    mask = np.asarray(weight_mask, dtype=bool)
    if mask.shape != want:
        raise FormatError(f"weight mask shape {mask.shape} != {want}")
    return _encode_runs(CsrLayer, weights, mask)


def decode_csr(layer: CsrLayer, spec: ConvLayerSpec) -> Tensor:
    """Dense weights with pruned weights zeroed; inverse of encode."""
    return Tensor(spec.weight_dims, layer.dtype,
                  layer.operand(spec, layer.arr.dtype).T)


def storage_footprint(layer) -> int:
    """Stored bytes of a layer in the paper's layout: values at the width of
    their dtype, every index entry u16.  FWCS counts arr, c_ptr, f_idx and
    the size field, which is the version-1 FWCS block without its framing;
    CSR counts arr, c_ptr and f_idx, its block without the framing; a dense
    Tensor counts values only.  A version-2 FWCS block stores its index
    narrower (``write_fwcs``), so this is not its size."""
    if isinstance(layer, Tensor):
        return layer.data.nbytes
    if not isinstance(layer, _RunLayer):
        raise DataError(f"cannot account storage for {type(layer).__name__}")
    # FWCS stores one index-width field more: its size
    entries = len(layer.c_ptr) + len(layer.f_idx) + isinstance(layer, FwcsLayer)
    return (layer.arr.size * DTYPES[layer.dtype].itemsize
            + INDEX_DTYPE.itemsize * entries)


def check_fwcs_index(spec: ConvLayerSpec) -> np.dtype:
    """The dtype an FWCS layer of ``spec`` stores its run counts and kernel
    positions as: u8 when a filter's kh*kw positions fit (a count reaches
    kh*kw), else u16.  Raises FormatError past u16, whatever the mask."""
    p = spec.filterlets_per_filter
    if p <= np.iinfo(_U8).max:
        return _U8
    if p > _INDEX_MAX:
        raise FormatError(f"run count entry {p} outside u16 range")
    return INDEX_DTYPE


def check_csr_index(spec: ConvLayerSpec, kept: int) -> None:
    """Raise FormatError unless a CSR layer of ``spec`` that keeps ``kept``
    weights stores every ``c_ptr`` and ``f_idx`` entry as u16."""
    for what, top in (("c_ptr", spec.filterlets_per_filter * spec.channels - 1),
                      ("f_idx", kept)):
        if top > _INDEX_MAX:
            raise FormatError(f"{what} entry {top} outside u16 range")


def _read_block(buf: bytes, offset: int, dtype: str, cls, magic: bytes,
                head: str = ""):
    """A ``cls`` layer from a block of ``magic``, the ``head`` struct
    fields, then u32+values, u32+u16 c_ptr and u32+u16 f_idx, plus the
    offset past the block."""
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


def write_fwcs(layer: FwcsLayer, spec: ConvLayerSpec) -> bytes:
    """FWCS block of ``layer``, checked against ``spec``: magic, each
    filter's run count, each kept run's kernel position (filter by filter,
    rising), both as ``check_fwcs_index(spec)``, then the kept values.
    Everything else follows from the spec and the counts."""
    index = check_fwcs_index(spec)
    run, _ = layer.slots(spec)
    return (FWCS_MAGIC + np.diff(layer.f_idx).astype(index).tobytes()
            + run.astype(index).tobytes() + layer.arr.tobytes())


def read_fwcs(buf: bytes, offset: int, spec: ConvLayerSpec,
              dtype: str) -> tuple[FwcsLayer, int]:
    """Inverse of ``write_fwcs``: the layer, accepted for ``spec``, and the
    offset past its block.  Each filter's positions must rise strictly
    below kh*kw, else CorruptionError."""
    try:
        index = check_fwcs_index(spec)
    except FormatError as e:
        raise CorruptionError(str(e)) from None
    r = Reader(buf, offset, "FWCS block")
    r.magic(FWCS_MAGIC)
    counts = r.array(index, spec.n_filters)
    f_idx = np.zeros(spec.n_filters + 1, np.int64)
    np.cumsum(counts, out=f_idx[1:])
    run = r.array(index, int(f_idx[-1])).astype(np.int64)
    filt = _check_runs(counts, run, spec.filterlets_per_filter)
    arr = r.array(DTYPES[dtype], run.size * spec.channels)
    layer = FwcsLayer(arr, spec.channels, run * spec.channels, f_idx, dtype)
    layer._accept(spec, run, filt)
    return layer, r.offset


def read_fwcs_v1(buf: bytes, offset: int, dtype: str) -> tuple[FwcsLayer, int]:
    """A bundle version 1 FWCS block: magic, u16 size, u32+values, u32+u16
    c_ptr and u32+u16 f_idx, the arrays as stored; unchecked."""
    return _read_block(buf, offset, dtype, FwcsLayer, FWCS_MAGIC,
                       INDEX_DTYPE.char)


def write_csr(layer: CsrLayer, spec: ConvLayerSpec) -> bytes:
    """CSR block of ``layer``, checked against ``spec`` and then
    ``check_csr_index``: magic, u32+values, u32+u16 c_ptr, u32+u16 f_idx."""
    layer.slots(spec)
    check_csr_index(spec, layer.n_retained)
    # a layer holds its values as DTYPES[dtype], already little-endian
    return (CSR_MAGIC + struct.pack("<I", layer.arr.size) + layer.arr.tobytes()
            + b"".join(struct.pack("<I", a.size) + a.astype(INDEX_DTYPE).tobytes()
                       for a in (layer.c_ptr, layer.f_idx)))


def read_csr(buf: bytes, offset: int, spec: ConvLayerSpec,
             dtype: str) -> tuple[CsrLayer, int]:
    """Inverse of ``write_csr``: the layer, accepted for ``spec``, and the
    offset past its block; CorruptionError unless it fits ``spec``."""
    layer, end = _read_block(buf, offset, dtype, CsrLayer, CSR_MAGIC)
    layer.slots(spec)
    return layer, end
