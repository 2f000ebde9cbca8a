"""Single-file model container: canonical JSON manifest plus binary payloads.

Layout: magic, u16 version, u32 manifest length, manifest JSON, u32 blob
count, a table of u32 blob lengths, u32 CRC32 over the concatenated blobs,
then the blobs themselves.  One blob per layer: the weight block in the
layer's declared format, then, if the layer has one, its bias as
``n_filters`` raw values of ``BIAS_DTYPES[dtype]``.  Version-1 bundles (each
bias a float32 tensor block, FWCS indices u16) are read and converted to
version 2 once; only version 2 is written.
"""

import json
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .convops import conv_csr, conv_dense, conv_fwcs
from .cyclesim import ComputeSchedule, MachineConfig, layer_stream
from .errors import CorruptionError, DataError, FormatError, TopologyError
from .fwcs import CSR_MAGIC, FWCS_MAGIC, FilterletMask, check_csr_index, \
    check_fwcs_index, decode_csr, decode_fwcs, encode_csr, encode_fwcs, \
    read_csr, read_fwcs, read_fwcs_v1, write_csr, write_fwcs
from .importance import GradientBundle
from .model import LayerDef, LayerQuant, SequentialModel, check_chain
from .tensor import DTYPES, TENSOR_MAGIC, ConvLayerSpec, Reader, Tensor, \
    frozen, read_tensor, write_tensor

BUNDLE_MAGIC = b"FLTB"
BUNDLE_VERSION = 2

# a layer's stored bias, per layer dtype: an int8 layer's bias is added to
# its integer accumulators, so it is stored as int32, as CMSIS-NN does
BIAS_DTYPES = {"float32": np.dtype("<f4"), "int8": np.dtype("<i4")}

FORMATS = ("dense", "fwcs", "csr")
ROLES = ("model", "grads")
_FORMAT_MAGIC = {"dense": TENSOR_MAGIC, "fwcs": FWCS_MAGIC, "csr": CSR_MAGIC}

_INT32_MIN = -(2 ** 31)
_INT32_MAX = 2 ** 31 - 1


@dataclass
class BundleLayer:
    """Manifest entry plus the raw payload for one layer."""

    name: str
    fmt: str
    spec: ConvLayerSpec
    dtype: str
    has_bias: bool
    quant: LayerQuant | None
    payload: bytes

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise DataError(f"layer name {self.name!r} is not a string")
        if not isinstance(self.has_bias, bool):
            raise DataError(f"layer {self.name}: has_bias {self.has_bias!r} "
                            f"is not a boolean")
        if self.fmt not in FORMATS:
            raise FormatError(f"unknown layer format {self.fmt!r}")
        if self.dtype not in DTYPES:
            raise FormatError(f"unknown layer dtype {self.dtype!r}")
        if self.payload[:4] != _FORMAT_MAGIC[self.fmt]:
            raise CorruptionError(
                f"layer {self.name}: payload magic does not match format {self.fmt}"
            )
        if self.dtype == "int8" and self.quant is None:
            raise DataError(f"layer {self.name}: int8 weights need quant params")

    def decode_weights(self):
        """(weights as stored: Tensor, FwcsLayer or CsrLayer, checked
        against the spec; bias or None, float32, or int64 for an int8
        layer)."""
        if self.fmt == "dense":
            weights, off = read_tensor(self.payload, 0)
            if weights.dtype != self.dtype:
                raise CorruptionError(f"layer {self.name}: stored dtype "
                                      f"{weights.dtype} != manifest {self.dtype}")
            if weights.dims != self.spec.weight_dims:
                raise CorruptionError(f"layer {self.name}: decoded shape mismatch")
        else:
            read = read_fwcs if self.fmt == "fwcs" else read_csr
            weights, off = read(self.payload, 0, self.spec, self.dtype)
        r = Reader(self.payload, off, f"layer {self.name} payload")
        bias = None
        if self.has_bias:
            bias = frozen(r.array(BIAS_DTYPES[self.dtype], self.spec.n_filters),
                          np.int64 if self.dtype == "int8" else None)
        r.end()
        return weights, bias


@dataclass
class ModelBundle:
    name: str
    role: str  # one of ROLES
    layers: list[BundleLayer]

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise DataError(f"bundle name {self.name!r} is not a string")
        if self.role not in ROLES:
            raise DataError(f"unknown bundle role {self.role!r}")
        check_chain([layer.spec for layer in self.layers])

    def manifest(self) -> dict:
        # a spec's and a quant's fields are exactly their instance dicts;
        # dataclasses.asdict would deep-copy each value, at ten times the cost
        layers = [{"name": layer.name, "format": layer.fmt,
                   "dtype": layer.dtype, "has_bias": layer.has_bias,
                   "spec": dict(vars(layer.spec)),
                   "quant": None if layer.quant is None
                   else dict(vars(layer.quant))}
                  for layer in self.layers]
        return {"name": self.name, "role": self.role, "layers": layers}

    def to_bytes(self) -> bytes:
        manifest = json.dumps(self.manifest(), sort_keys=True,
                              separators=(",", ":")).encode()
        blobs = [layer.payload for layer in self.layers]
        body = struct.pack("<I", len(manifest)) + manifest
        body += struct.pack("<I", len(blobs))
        body += b"".join(struct.pack("<I", len(b)) for b in blobs)
        body += struct.pack("<I", zlib.crc32(b"".join(blobs)) & 0xFFFFFFFF)
        return BUNDLE_MAGIC + struct.pack("<H", BUNDLE_VERSION) + body + b"".join(blobs)

    @classmethod
    def from_bytes(cls, buf: bytes) -> "ModelBundle":
        if isinstance(buf, (bytearray, memoryview)):
            # one copy, so the layers' payloads never see later writes to
            # the caller's buffer
            buf = bytes(buf)
        r = Reader(buf, 0, "bundle")
        r.magic(BUNDLE_MAGIC)
        version, mlen = r.unpack("<HI")
        if version not in (1, BUNDLE_VERSION):
            raise CorruptionError(f"unsupported bundle version {version}")
        try:
            manifest = json.loads(r.take(mlen).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CorruptionError(f"manifest is not valid JSON: {e}") from None
        if not isinstance(manifest, dict) or \
                not isinstance(manifest.get("layers"), list):
            raise CorruptionError("manifest is not an object with a layer list")
        (n_blobs,) = r.unpack("<I")
        lengths = r.unpack(f"<{n_blobs}I")
        (crc,) = r.unpack("<I")
        if len(manifest["layers"]) != n_blobs:
            raise CorruptionError("manifest layer count != payload count")
        start = r.offset
        blobs = [r.take(n) for n in lengths]
        r.end()
        # the blobs run to the end of the buffer
        if zlib.crc32(memoryview(buf)[start:]) & 0xFFFFFFFF != crc:
            raise CorruptionError("payload checksum mismatch")
        layers = []
        try:
            for entry, blob in zip(manifest["layers"], blobs):
                spec = ConvLayerSpec(**entry["spec"])
                quant = None if entry["quant"] is None else LayerQuant(**entry["quant"])
                layers.append(BundleLayer(
                    name=entry["name"], fmt=entry["format"], spec=spec,
                    dtype=entry["dtype"], has_bias=entry["has_bias"],
                    quant=quant, payload=blob,
                ))
            bundle = cls(manifest["name"], manifest.get("role", "model"), layers)
        except (KeyError, TypeError, DataError, FormatError, TopologyError) as e:
            raise CorruptionError(f"malformed manifest entry: {e}") from None
        if version == 1:
            for layer in bundle.layers:
                layer.payload = _payload_from_v1(layer)
        return bundle

    def save(self, path) -> None:
        with open(path, "wb") as f:
            f.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "ModelBundle":
        with open(path, "rb") as f:
            return cls.from_bytes(f.read())

    def check_role(self, role: str) -> None:
        """Raise DataError unless this bundle's role is ``role``."""
        if self.role != role:
            raise DataError(f"expected a {role} bundle, got role {self.role!r}")

    def payload_bytes(self) -> int:
        return sum(len(layer.payload) for layer in self.layers)


def _payload_from_v1(layer: BundleLayer) -> bytes:
    """``layer``'s bundle version 1 payload as version 2: its FWCS block
    with u8 or u16 counts and positions, its float32 bias tensor as raw
    values.  Raises CorruptionError where version 1 stored no valid layer."""
    buf, spec, name = layer.payload, layer.spec, layer.name
    if layer.fmt == "fwcs":
        weights, off = read_fwcs_v1(buf, 0, layer.dtype)
        block = write_fwcs(weights, spec)
    else:
        _, off = read_tensor(buf, 0) if layer.fmt == "dense" \
            else read_csr(buf, 0, spec, layer.dtype)
        block = buf[:off]
    if layer.has_bias:
        bias_t, off = read_tensor(buf, off)
        if bias_t.dtype != "float32":
            raise CorruptionError(f"layer {name}: bias stored as "
                                  f"{bias_t.dtype}, not float32")
        if bias_t.dims != (spec.n_filters,):
            raise CorruptionError(f"layer {name}: bias shape mismatch")
        bias = bias_t.data
        if layer.dtype == "int8" and not _int32_values(bias):
            raise CorruptionError(
                f"layer {name}: int8 bias not an integer within int32")
        block += bias.astype(BIAS_DTYPES[layer.dtype]).tobytes()
    Reader(buf, off, f"layer {name} payload").end()
    return block


def _int32_values(values: np.ndarray) -> bool:
    """Whether every one of the real ``values`` is an integer within int32."""
    # float64 holds every int32 and every float32 exactly, so neither the
    # range nor the integer test rounds
    wide = values.astype(np.float64)
    return bool(np.all((wide >= _INT32_MIN) & (wide <= _INT32_MAX)
                       & (np.rint(wide) == wide)))


def _bias_bytes(layer: LayerDef) -> bytes:
    """``layer``'s bias as stored: ``BIAS_DTYPES`` of its weight dtype.  An
    int8 layer's bias must hold integers within int32, and an integer bias
    of a float32 layer must be exact as float32, else DataError."""
    bias, dtype = layer.bias, layer.weights.dtype
    if dtype == "int8":
        if not (np.issubdtype(bias.dtype, np.integer)
                or np.issubdtype(bias.dtype, np.floating)) \
                or not _int32_values(bias):
            raise DataError(f"layer {layer.name}: int8 bias is not integers "
                            f"within int32")
        return bias.astype(BIAS_DTYPES[dtype]).tobytes()
    # float32 holds integers exactly only up to 2^24
    packed = bias.astype(BIAS_DTYPES[dtype])
    if np.issubdtype(bias.dtype, np.integer) and \
            np.any(packed.astype(np.int64) != bias):
        raise DataError(f"layer {layer.name}: integer bias not exact as float32")
    return packed.tobytes()


def _bundle_layer(layer: LayerDef, fmt: str, block: bytes) -> BundleLayer:
    """``layer`` stored as the ``fmt`` weight ``block``, then its bias, if
    any."""
    payload = block if layer.bias is None else block + _bias_bytes(layer)
    return BundleLayer(layer.name, fmt, layer.spec, layer.weights.dtype,
                       layer.bias is not None, layer.quant, payload)


def bundle_from_model(model: SequentialModel, role: str = "model") -> ModelBundle:
    """Dense bundle of every layer of ``model``."""
    return ModelBundle(model.name, role, [
        _bundle_layer(layer, "dense", write_tensor(layer.weights))
        for layer in model.layers])


def bundle_from_masks(model: SequentialModel, masks: list[FilterletMask],
                      fmt: str = "fwcs") -> ModelBundle:
    """Pack ``model`` with each layer pruned by its mask, in FWCS or CSR
    form.  Raises FormatError before encoding any layer when one cannot
    store its index."""
    if len(masks) != len(model.layers):
        raise DataError("mask count != layer count")
    if fmt not in ("fwcs", "csr"):
        raise FormatError(f"cannot pack pruned layers as {fmt!r}")
    for layer, mask in zip(model.layers, masks):
        if fmt == "fwcs":
            check_fwcs_index(layer.spec)
        else:
            check_csr_index(layer.spec, int(np.count_nonzero(mask.kept))
                            * layer.spec.channels)
    layers = []
    for layer, mask in zip(model.layers, masks):
        if fmt == "fwcs":
            block = write_fwcs(encode_fwcs(layer.weights, mask), layer.spec)
        else:
            block = write_csr(encode_csr(layer.weights, mask.to_weight_mask()),
                              layer.spec)
        layers.append(_bundle_layer(layer, fmt, block))
    return ModelBundle(model.name, "model", layers)


def model_from_bundle(bundle: ModelBundle) -> SequentialModel:
    """Materialize dense weights for every layer (pruned layers decode to zeros)."""
    bundle.check_role("model")
    layers = []
    for bl in bundle.layers:
        weights, bias = bl.decode_weights()
        if bl.fmt != "dense":
            weights = (decode_fwcs if bl.fmt == "fwcs" else decode_csr)(weights, bl.spec)
        layers.append(LayerDef(bl.name, bl.spec, weights, bias, bl.quant))
    return SequentialModel(bundle.name, layers)


def gradients_from_bundle(bundle: ModelBundle) -> GradientBundle:
    bundle.check_role("grads")
    grads = []
    for bl in bundle.layers:
        if bl.fmt != "dense" or bl.dtype != "float32":
            raise DataError("gradient bundles must hold dense float32 tensors")
        weights, _ = bl.decode_weights()
        grads.append(weights.to_array().astype(np.float64))
    return GradientBundle(grads, provenance="external file")


@dataclass
class RunResult:
    output: Tensor
    layer_counts: list[dict[str, int]]
    saturated: bool


def _filter_sums(weights, spec: ConvLayerSpec) -> np.ndarray:
    """Per filter, the int64 sum of its stored weights (pruned ones are 0)."""
    if isinstance(weights, Tensor):
        return weights.to_array().reshape(spec.n_filters, -1).sum(1, dtype=np.int64)
    return weights.operand(spec, np.int64).sum(0)


def _requantize(acc: np.ndarray, quant: LayerQuant, k: int,
                bias: np.ndarray | None) -> tuple[np.ndarray, bool]:
    """int8 codes of the int64 map ``acc`` and whether it left int32 (where
    it clips first).  |acc| <= k*2^14 + max|bias|, ``k`` the patch length."""
    # in Python ints, since an int64 abs(-2^63) wraps
    bound = (k << 14) + (0 if bias is None else max(int(bias.max()), -int(bias.min())))
    saturated = bound > _INT32_MAX and \
        bool(acc.min() < _INT32_MIN or acc.max() > _INT32_MAX)
    if saturated:
        acc = np.clip(acc, _INT32_MIN, _INT32_MAX)
    mult = quant.input_scale * quant.weight_scale / quant.output_scale
    codes = acc * mult
    np.rint(codes, out=codes)
    if quant.output_zero_point:
        codes += quant.output_zero_point
    np.minimum(codes, 127, out=codes)
    np.maximum(codes, -128, out=codes)
    return codes.astype(np.int8), saturated


def run_bundle(bundle: ModelBundle, input: Tensor,
               schedule: ComputeSchedule = ComputeSchedule.REORDERED,
               cfg: MachineConfig = MachineConfig()) -> RunResult:
    """Execute every layer with its format's operator; int8 layers requantize.
    ``schedule`` and ``cfg`` set only the reported instruction counts."""
    bundle.check_role("model")
    x = input
    counts = []
    saturated = False
    for bl in bundle.layers:
        if x.dims != bl.spec.input_dims:
            raise DataError(
                f"layer {bl.name}: input dims {x.dims} != {bl.spec.input_dims}"
            )
        weights, bias = bl.decode_weights()
        zero = bl.quant.input_zero_point if bl.dtype == "int8" else 0
        if zero:  # sum w*(x - z) = sum w*x - z*sum w, exact in int64
            bias = (0 if bias is None else bias) - zero * _filter_sums(weights, bl.spec)
        if bl.fmt == "dense":
            acc = conv_dense(x, weights, bl.spec, bias)
        elif bl.fmt == "fwcs":
            acc = conv_fwcs(x, weights, bl.spec, bias)
        else:
            acc = conv_csr(x, weights, bl.spec, bias)
        counts.append(layer_stream(weights, bl.spec, schedule, cfg).counts())
        if bl.dtype == "int8":
            k = bl.spec.filterlets_per_filter * bl.spec.channels
            codes, sat = _requantize(acc, bl.quant, k, bias)
            saturated = saturated or sat
            x = Tensor.from_array(codes, "int8")
        else:
            x = Tensor.from_array(acc, "float32")
    return RunResult(x, counts, saturated)
