"""Channel-major tensors, convolution layer geometry, and 8-bit quantization.

Feature maps are stored as (height, width, channels) with the channel index
varying fastest in memory, so all values at one spatial position sit in one
contiguous run.  Filter banks add a leading filter axis (n, kh, kw, c) and
keep the same fastest-to-slowest ordering, which makes every filterlet (the
c-long run at one kernel position) a contiguous slice of the flat weight
array.
"""

import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BoundsError, CorruptionError, DataError

# each dtype name and the little-endian numpy dtype its values are stored as
DTYPES = {"float32": np.dtype("<f4"), "int8": np.dtype("i1")}
_DTYPE_TAGS = {"float32": 0, "int8": 1}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}

TENSOR_MAGIC = b"DTTN"


@dataclass(frozen=True)
class Tensor:
    """Immutable flat value container with channel-major indexing.

    ``data`` holds ``prod(dims)`` values; the last axis varies fastest, so a
    rank-3 tensor maps coordinate (h, w, c) to flat index (h*W + w)*C + c.
    """

    dims: tuple[int, ...]
    dtype: str
    data: np.ndarray

    def __post_init__(self):
        if self.dtype not in DTYPES:
            raise DataError(f"unsupported dtype {self.dtype!r}")
        dims = tuple(map(int, self.dims))
        if dims and min(dims) <= 0:
            raise DataError(f"non-positive extent in {dims}")
        flat = frozen(self.data, DTYPES[self.dtype]).reshape(-1)
        # math.prod is exact where numpy's int64 product would wrap
        if flat.size != math.prod(dims):
            raise DataError(
                f"data length {flat.size} != prod{dims} = {math.prod(dims)}"
            )
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "data", flat)

    @classmethod
    def from_array(cls, arr, dtype: str | None = None) -> "Tensor":
        arr = np.asarray(arr)
        if dtype is None:
            dtype = "int8" if arr.dtype == np.int8 else "float32"
        return cls(tuple(arr.shape), dtype, arr.reshape(-1))

    @property
    def nelems(self) -> int:
        return self.data.size

    def to_array(self) -> np.ndarray:
        """Read-only view shaped as ``dims``."""
        return self.data.reshape(self.dims)


def frozen(values, dtype=None) -> np.ndarray:
    """A private read-only C-ordered copy of ``values`` (as ``dtype`` when
    given): no one else holds it, so no one can change it."""
    arr = np.array(values, dtype=dtype, order="C")
    arr.flags.writeable = False
    return arr


def is_integer(v) -> bool:
    """True for Python and numpy integers; False for bools, floats and the rest."""
    # the exact-type test spares the common case the slow ABC check
    return type(v) is int or (isinstance(v, numbers.Integral)
                              and not isinstance(v, bool))


def is_real(v) -> bool:
    """True for Python and numpy reals, nan and inf included; False for bools
    and the rest."""
    return type(v) in (float, int) or (isinstance(v, numbers.Real)
                                       and not isinstance(v, bool))


@dataclass(frozen=True)
class ConvLayerSpec:
    """Geometry of one convolution layer (valid padding, square stride)."""

    n_filters: int
    kernel_h: int
    kernel_w: int
    channels: int
    input_h: int
    input_w: int
    stride: int = 1

    def __post_init__(self):
        for name in ("n_filters", "kernel_h", "kernel_w", "channels",
                     "input_h", "input_w", "stride"):
            v = getattr(self, name)
            if not is_integer(v) or v < 1:
                raise DataError(f"{name} {v!r} is not an integer >= 1")
            if type(v) is not int:  # a numpy integer, kept as an int
                object.__setattr__(self, name, int(v))
        if self.kernel_h > self.input_h or self.kernel_w > self.input_w:
            raise DataError("kernel does not fit inside the input")

    @property
    def out_h(self) -> int:
        return (self.input_h - self.kernel_h) // self.stride + 1

    @property
    def out_w(self) -> int:
        return (self.input_w - self.kernel_w) // self.stride + 1

    @property
    def out_positions(self) -> int:
        return self.out_h * self.out_w

    @property
    def filterlets_per_filter(self) -> int:
        return self.kernel_h * self.kernel_w

    @property
    def filterlet_length(self) -> int:
        return self.channels

    @property
    def weight_count(self) -> int:
        return self.n_filters * self.kernel_h * self.kernel_w * self.channels

    @property
    def weight_dims(self) -> tuple[int, int, int, int]:
        return (self.n_filters, self.kernel_h, self.kernel_w, self.channels)

    @property
    def input_dims(self) -> tuple[int, int, int]:
        return (self.input_h, self.input_w, self.channels)


def flat_index(spec: ConvLayerSpec, h: int, w: int, c: int) -> int:
    """Flat offset of kernel coordinate (h, w, c) within one filter."""
    if not (0 <= h < spec.kernel_h and 0 <= w < spec.kernel_w
            and 0 <= c < spec.channels):
        raise BoundsError(
            f"coordinate ({h},{w},{c}) outside kernel "
            f"{spec.kernel_h}x{spec.kernel_w}x{spec.channels}"
        )
    return (h * spec.kernel_w + w) * spec.channels + c


def check_scale(name: str, v) -> None:
    """Raise DataError unless ``v`` is a real number, positive and finite."""
    if not is_real(v) or not (math.isfinite(v) and v > 0):
        raise DataError(f"{name} {v!r} is not positive and finite")


def check_zero_point(name: str, v) -> None:
    """Raise DataError unless ``v`` is an integer int8 code."""
    if not is_integer(v) or not -128 <= v <= 127:
        raise DataError(f"{name} {v!r} is not an integer in [-128, 127]")


@dataclass(frozen=True)
class QuantParams:
    """Per-tensor affine quantization (symmetric when zero_point is 0)."""

    scale: float
    zero_point: int = 0

    def __post_init__(self):
        check_scale("scale", self.scale)
        check_zero_point("zero_point", self.zero_point)


def quantize(t: Tensor, q: QuantParams) -> Tensor:
    """Map float32 values onto int8 via clamp(round(x/scale) + zp, -128, 127)."""
    if t.dtype != "float32":
        raise DataError(f"quantize expects float32 input, got {t.dtype}")
    x = t.data
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite value in tensor")
    codes = np.clip(np.rint(x / q.scale) + q.zero_point, -128, 127)
    return Tensor(t.dims, "int8", codes.astype(np.int8))


def dequantize(t: Tensor, q: QuantParams) -> Tensor:
    if t.dtype != "int8":
        raise DataError(f"dequantize expects int8 input, got {t.dtype}")
    x = (t.data.astype(np.float64) - q.zero_point) * q.scale
    return Tensor(t.dims, "float32", x.astype(np.float32))


def extract_patch(input: Tensor, spec: ConvLayerSpec, out_h: int, out_w: int) -> np.ndarray:
    """Flat receptive field feeding output position (out_h, out_w).

    Returns kernel_h*kernel_w*channels values in the same channel-major
    order as one filter, so patch[i] pairs with weight flat index i.
    """
    if input.dims != spec.input_dims:
        raise DataError(f"input dims {input.dims} do not match spec {spec.input_dims}")
    if not (0 <= out_h < spec.out_h and 0 <= out_w < spec.out_w):
        raise BoundsError(f"output position ({out_h},{out_w}) outside "
                          f"{spec.out_h}x{spec.out_w}")
    h0 = out_h * spec.stride
    w0 = out_w * spec.stride
    view = input.to_array()[h0:h0 + spec.kernel_h, w0:w0 + spec.kernel_w, :]
    return view.reshape(-1).copy()


def patch_matrix(input, spec: ConvLayerSpec, dtype=None) -> np.ndarray:
    """All receptive fields stacked row-wise, row index = out_h*out_w grid order.

    Accepts a Tensor or a plain (input_h, input_w, channels) array.  The
    result is one fresh writable copy, cast to ``dtype`` if given, never a view.
    """
    arr = input.to_array() if isinstance(input, Tensor) else np.asarray(input)
    if arr.shape != spec.input_dims:
        raise DataError(f"input dims {arr.shape} do not match spec {spec.input_dims}")
    # window axes: out row, out column, kernel row, kernel column, channel
    arr = np.ascontiguousarray(arr)
    (sh, sw, sc), s = arr.strides, spec.stride
    win = np.ndarray((spec.out_h, spec.out_w, spec.kernel_h, spec.kernel_w,
                      spec.channels), arr.dtype, arr, 0,
                     (sh * s, sw * s, sh, sw, sc))
    return np.array(win, dtype, order="C").reshape(spec.out_positions, -1)


class Reader:
    """Cursor over ``buf`` from ``offset``: every read that would run past the
    end of ``buf`` raises CorruptionError naming ``what``."""

    def __init__(self, buf: bytes, offset: int, what: str):
        self.buf = buf
        self.offset = offset
        self.what = what

    def _advance(self, n: int) -> int:
        """Claim the next ``n`` bytes; returns where they start."""
        start = self.offset
        if start + n > len(self.buf):
            raise CorruptionError(f"truncated {self.what}")
        self.offset = start + n
        return start

    def magic(self, magic: bytes) -> None:
        if self.buf[self.offset:self.offset + len(magic)] != magic:
            raise CorruptionError(f"bad {self.what} magic")
        self.offset += len(magic)

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.buf, self._advance(struct.calcsize(fmt)))

    def take(self, n: int) -> bytes:
        start = self._advance(n)
        return self.buf[start:self.offset]

    def array(self, dtype, count: int) -> np.ndarray:
        """View of the next ``count`` values of ``dtype`` in ``buf``."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self.buf, dtype, count,
                             self._advance(count * dtype.itemsize))

    def end(self) -> None:
        """Raise CorruptionError unless every byte of ``buf`` has been read."""
        if self.offset != len(self.buf):
            raise CorruptionError(f"trailing bytes after the {self.what}")


def write_tensor(t: Tensor) -> bytes:
    """Serialize as: magic, u8 dtype tag, u8 rank, u32 extents, raw LE data."""
    head = TENSOR_MAGIC + struct.pack("<BB", _DTYPE_TAGS[t.dtype], len(t.dims))
    head += struct.pack(f"<{len(t.dims)}I", *t.dims)
    # a Tensor holds its data as DTYPES[dtype], already little-endian
    return head + t.data.tobytes()


def read_tensor(buf: bytes, offset: int = 0) -> tuple[Tensor, int]:
    """Parse one serialized tensor; returns (tensor, offset past it)."""
    r = Reader(buf, offset, "tensor")
    r.magic(TENSOR_MAGIC)
    tag, rank = r.unpack("<BB")
    dims = r.unpack(f"<{rank}I")
    if tag not in _TAG_DTYPES:
        raise CorruptionError(f"unknown dtype tag {tag}")
    dtype = _TAG_DTYPES[tag]
    n = math.prod(dims)
    if rank == 0 or n == 0:
        raise CorruptionError("tensor with empty shape")
    return Tensor(dims, dtype, r.array(DTYPES[dtype], n)), r.offset
