import io
import json
import struct
import zlib
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bundle_v1
import filterlet.bundle
import filterlet.fwcs
import filterlet.scheduler
from filterlet.bundle import FORMATS, ROLES, BundleLayer, ModelBundle, \
    bundle_from_masks, bundle_from_model, gradients_from_bundle, \
    model_from_bundle, run_bundle
from filterlet.cli import _build_parser, main
from filterlet.convops import conv_csr, conv_dense
from filterlet.costmodel import Budget, LatencyParams, model_size
from filterlet.cyclesim import ComputeSchedule, MachineConfig, layer_stream
from filterlet.errors import CorruptionError, DataError, FormatError, \
    TopologyError
from filterlet.fwcs import CsrLayer, FilterletMask, encode_csr, encode_fwcs, \
    kept_count, write_csr
from filterlet.importance import GradientBundle, apply_mask_zeroing, \
    score_model
from filterlet.model import LayerDef, LayerQuant, SequentialModel
from filterlet.scheduler import ScheduleProblem, anneal
from filterlet.tensor import ConvLayerSpec, Tensor, read_tensor, \
    write_tensor


def int8_chain(seed=0, n_layers=3, wide=False):
    rng = np.random.default_rng(seed)
    layers = []
    ih = iw = 10
    channels = 3
    scale = 0.05
    for i in range(n_layers):
        n = 8 if wide else 4
        spec = ConvLayerSpec(n_filters=n, kernel_h=2, kernel_w=2,
                             channels=channels, input_h=ih, input_w=iw)
        w = Tensor.from_array(
            rng.integers(-100, 100, spec.weight_dims).astype(np.int8))
        bias = rng.integers(-40, 40, n).astype(np.int64)
        quant = LayerQuant(input_scale=scale, weight_scale=0.02,
                           output_scale=scale * 8)
        layers.append(LayerDef(f"conv{i}", spec, w, bias, quant))
        ih, iw, channels, scale = spec.out_h, spec.out_w, n, scale * 8
    return SequentialModel("chain", layers)


def grads_for(model, seed=1):
    rng = np.random.default_rng(seed)
    return GradientBundle(
        [rng.normal(size=layer.spec.weight_dims) for layer in model.layers])


def grads_bundle_for(model, seed=1):
    g = grads_for(model, seed)
    layers = []
    for layer, arr in zip(model.layers, g.layers):
        spec = layer.spec
        gl = LayerDef(layer.name, spec,
                      Tensor.from_array(arr.astype(np.float32), "float32"))
        layers.append(gl)
    b = bundle_from_model(SequentialModel(model.name, layers), role="grads")
    return b


def pipeline_oracle(model, x):
    """Independent dense int8 pipeline: conv, bias, requantize per layer."""
    cur = x.to_array().astype(np.int64)
    for layer in model.layers:
        spec = layer.spec
        out = np.zeros((spec.out_h, spec.out_w, spec.n_filters), np.int64)
        w = layer.weights.to_array().astype(np.int64)
        for oy in range(spec.out_h):
            for ox in range(spec.out_w):
                for n in range(spec.n_filters):
                    acc = 0
                    for h in range(spec.kernel_h):
                        for ww in range(spec.kernel_w):
                            for c in range(spec.channels):
                                acc += int(w[n, h, ww, c]) * int(
                                    cur[oy * spec.stride + h,
                                        ox * spec.stride + ww, c])
                    out[oy, ox, n] = acc + int(layer.bias[n])
        q = layer.quant
        mult = q.input_scale * q.weight_scale / q.output_scale
        cur = np.clip(np.rint(out * mult) + q.output_zero_point,
                      -128, 127).astype(np.int64)
    return cur.astype(np.int8)


def random_masks(model, rng, keep=0.5):
    return [FilterletMask(l.spec, rng.random(
        (l.spec.n_filters, l.spec.filterlets_per_filter)) < keep)
        for l in model.layers]


def manifest_span(raw):
    """(start, end) of the manifest and the offset of the blob CRC."""
    (mlen,) = struct.unpack_from("<I", raw, 6)
    (n_blobs,) = struct.unpack_from("<I", raw, 10 + mlen)
    return 10, 10 + mlen, 14 + mlen + 4 * n_blobs


def with_manifest(raw, manifest):
    """``raw`` with its manifest replaced by the JSON of ``manifest``."""
    _, end, _ = manifest_span(raw)
    text = json.dumps(manifest).encode()
    return raw[:6] + struct.pack("<I", len(text)) + text + raw[end:]


def with_crc(raw, crc_at):
    """``raw`` with the CRC at ``crc_at`` recomputed over the bytes after it."""
    crc = zlib.crc32(bytes(raw[crc_at + 4:])) & 0xFFFFFFFF
    return bytes(raw[:crc_at]) + struct.pack("<I", crc) + bytes(raw[crc_at + 4:])


def overwrite(raw, data, start=0):
    """``raw`` with one to eight bytes overwritten at a drawn offset from
    ``start`` on."""
    raw = bytearray(raw)
    n = data.draw(st.integers(1, 8))
    at = data.draw(st.integers(start, len(raw) - n))
    raw[at:at + n] = data.draw(st.binary(min_size=n, max_size=n))
    return bytes(raw)


def quiet_main(argv):
    """Exit code of the command line on ``argv``, its output discarded."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


def parse_and_decode(raw):
    for layer in ModelBundle.from_bytes(raw).layers:
        layer.decode_weights()


def fuzz_chain():
    """A small int8 chain with biases, and masks of which the second
    empties its layer's first and last filters."""
    model = int8_chain(seed=21, n_layers=2)
    masks = random_masks(model, np.random.default_rng(22), keep=0.6)
    kept = masks[1].kept.copy()
    kept[[0, -1]] = False
    masks[1] = FilterletMask(masks[1].spec, kept)
    return model, masks


def packed(model, masks):
    """``model`` as a bundle in each format, pruned by ``masks`` when packed."""
    return {"dense": bundle_from_model(model),
            **{fmt: bundle_from_masks(model, masks, fmt)
               for fmt in ("fwcs", "csr")}}


FUZZ_BUNDLES = {fmt: b.to_bytes() for fmt, b in packed(*fuzz_chain()).items()}


class TestLayerQuant:
    def test_accepts_positive_scales_and_int8_zero_points(self):
        q = LayerQuant(0.5, np.float64(0.02), 1, -128, np.int64(127))
        assert q.output_zero_point == 127

    @pytest.mark.parametrize("field, value", [
        ("input_scale", 0.0), ("input_scale", float("nan")),
        ("weight_scale", -0.02), ("output_scale", float("inf")),
        ("output_scale", "0.4"), ("weight_scale", True),
        ("input_zero_point", 128), ("output_zero_point", -129),
        ("output_zero_point", 1.0), ("input_zero_point", "3"),
        ("output_zero_point", False),
    ])
    def test_rejects(self, field, value):
        fields = {"input_scale": 0.05, "weight_scale": 0.02,
                  "output_scale": 0.4, field: value}
        with pytest.raises(DataError):
            LayerQuant(**fields)


class TestBundleContainer:
    def test_round_trip_bit_exact(self):
        model = int8_chain()
        bundle = bundle_from_model(model)
        raw = bundle.to_bytes()
        back = ModelBundle.from_bytes(raw)
        assert back.to_bytes() == raw
        assert [l.name for l in back.layers] == [l.name for l in bundle.layers]

    def test_checksum_detects_payload_corruption(self):
        bundle = bundle_from_model(int8_chain())
        raw = bytearray(bundle.to_bytes())
        raw[-1] ^= 0xFF
        with pytest.raises(CorruptionError):
            ModelBundle.from_bytes(bytes(raw))

    def test_truncation_detected(self):
        raw = bundle_from_model(int8_chain()).to_bytes()
        with pytest.raises(CorruptionError):
            ModelBundle.from_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptionError):
            ModelBundle.from_bytes(b"")

    def test_model_round_trip_through_bundle(self):
        model = int8_chain()
        back = model_from_bundle(bundle_from_model(model))
        for a, b in zip(model.layers, back.layers):
            assert np.array_equal(a.weights.data, b.weights.data)
            assert np.array_equal(a.bias, b.bias)
            assert a.quant == b.quant

    def test_inexact_integer_bias_rejected(self):
        # an int8 layer stores its bias as int32: every integer within
        # int32 packs exactly, anything else is refused at pack time
        model = int8_chain(n_layers=1)
        layer = model.layers[0]
        keep = [FilterletMask.all_kept(layer.spec)]
        for value in (2 ** 24, 2 ** 24 + 1, 2 ** 31 - 1, -2 ** 31):
            layer.bias = np.array([value, 0, 0, 0], np.int64)
            for bundle in (bundle_from_model(model),
                           bundle_from_masks(model, keep)):
                back = model_from_bundle(ModelBundle.from_bytes(bundle.to_bytes()))
                assert np.array_equal(back.layers[0].bias, layer.bias)
        for bias in ([2 ** 31, 0, 0, 0], [0, -2 ** 31 - 1, 0, 0],
                     [2.5, 0, 0, 0], [0, 0, 2.0 ** 31, 0], [0, np.nan, 0, 0],
                     [np.inf, 0, 0, 0]):
            layer.bias = np.array(bias)
            for fmt in FORMATS:
                with pytest.raises(DataError, match="layer conv0"):
                    if fmt == "dense":
                        bundle_from_model(model)
                    else:
                        bundle_from_masks(model, keep, fmt)

    def test_bias_that_does_not_fit_the_layer_is_corruption(self):
        # version 1 stored a float32 bias tensor: one that is not an
        # integer, is beyond int32, or is not one value per filter
        layer = int8_chain(n_layers=1).layers[0]
        manifest = bundle_from_model(SequentialModel("c", [layer])).manifest()
        for bias in ([np.nan, 0, 0, 0], [2.5, 0, 0, 0], [1e30, 0, 0, 0],
                     [np.inf, 0, 0, 0], [0, -np.inf, 0, 0],
                     [0, 0, 2.0 ** 31, 0], [0, 0, 0, -2.0 ** 31 - 256],
                     [0, 0, 0]):
            payload = write_tensor(layer.weights) + write_tensor(
                Tensor.from_array(np.array(bias, np.float32)))
            with pytest.raises(CorruptionError):
                ModelBundle.from_bytes(bundle_v1.container(manifest, [payload]))
        # version 2 stores one raw int32 per filter
        for n in (3, 5):
            payload = write_tensor(layer.weights) + bytes(4 * n)
            bl = BundleLayer(layer.name, "dense", layer.spec, "int8", True,
                             layer.quant, payload)
            with pytest.raises(CorruptionError):
                bl.decode_weights()

    @settings(derandomize=True, deadline=None, max_examples=600, database=None)
    @given(fmt=st.sampled_from(FORMATS), in_manifest=st.booleans(),
           data=st.data(), flip=st.integers(1, 255))
    def test_flipped_byte_parses_or_is_corruption(self, fmt, in_manifest,
                                                  data, flip):
        # one byte of the manifest or the blobs, with the CRC made to match
        raw = bytearray(FUZZ_BUNDLES[fmt])
        start, end, crc_at = manifest_span(raw)
        lo, hi = (start, end) if in_manifest else (crc_at + 4, len(raw))
        raw[data.draw(st.integers(lo, hi - 1))] ^= flip
        try:
            parse_and_decode(with_crc(raw, crc_at))
        except CorruptionError:
            pass

    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(fmt=st.sampled_from(FORMATS), data=st.data())
    def test_changed_header_field_is_corruption(self, fmt, data):
        # magic, version, manifest length, blob count or one blob length
        raw = bytearray(FUZZ_BUNDLES[fmt])
        _, end, crc_at = manifest_span(raw)
        at, width = data.draw(st.sampled_from(
            [(0, 4), (4, 2), (6, 4), *((at, 4) for at in range(end, crc_at, 4))]))
        old = int.from_bytes(raw[at:at + width], "little")
        top = 256 ** width - 1
        new = data.draw(st.one_of(
            st.integers(0, top),
            st.integers(max(0, old - 8), min(top, old + 8))).filter(
                lambda v: v != old))
        raw[at:at + width] = new.to_bytes(width, "little")
        with pytest.raises(CorruptionError):
            parse_and_decode(bytes(raw))

    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(fmt=st.sampled_from(FORMATS), data=st.data(), in_blobs=st.booleans())
    def test_spliced_bundle_parses_or_is_corruption(self, fmt, data, in_blobs):
        # a span of the bundle copied over another offset: anywhere, or
        # inside the blobs with the CRC made to match
        raw = FUZZ_BUNDLES[fmt]
        _, _, crc_at = manifest_span(raw)
        n = data.draw(st.integers(2, 64))
        src = data.draw(st.integers(0, len(raw) - n))
        dst = data.draw(st.integers(crc_at + 4 if in_blobs else 0, len(raw) - 1))
        edited = bytearray(raw)
        edited[dst:dst + n] = raw[src:src + n]
        try:
            parse_and_decode(with_crc(edited, crc_at) if in_blobs else bytes(edited))
        except CorruptionError:
            pass

    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(fmt=st.sampled_from(FORMATS), data=st.data(), cut=st.booleans())
    def test_cut_or_extended_bundle_is_corruption(self, fmt, data, cut):
        # a prefix of any length, or the whole bundle with bytes appended
        raw = FUZZ_BUNDLES[fmt]
        if cut:
            edited = raw[:data.draw(st.integers(0, len(raw) - 1))]
        else:
            edited = raw + data.draw(st.binary(min_size=1, max_size=64))
        with pytest.raises(CorruptionError):
            ModelBundle.from_bytes(edited)

    def test_layers_that_do_not_chain_are_rejected(self):
        layers = bundle_from_model(int8_chain(n_layers=3)).layers
        with pytest.raises(TopologyError):
            ModelBundle("gap", "model", [layers[0], layers[2]])


class TestRunBundle:
    def test_dense_bundle_matches_pipeline_oracle(self):
        model = int8_chain(seed=2, n_layers=2)
        rng = np.random.default_rng(3)
        x = Tensor.from_array(rng.integers(-100, 100, (10, 10, 3)).astype(np.int8))
        got = run_bundle(bundle_from_model(model), x)
        assert np.array_equal(got.output.to_array(), pipeline_oracle(model, x))

    def test_fwcs_bundle_schedules_agree_counts_differ(self):
        model = int8_chain(seed=4)
        rng = np.random.default_rng(5)
        masks = [FilterletMask(l.spec,
                               rng.random((l.spec.n_filters,
                                           l.spec.filterlets_per_filter)) < 0.7)
                 for l in model.layers]
        bundle = bundle_from_masks(model, masks)
        x = Tensor.from_array(rng.integers(-100, 100, (10, 10, 3)).astype(np.int8))
        a = run_bundle(bundle, x, ComputeSchedule.DEFAULT)
        b = run_bundle(bundle, x, ComputeSchedule.REORDERED)
        assert np.array_equal(a.output.data, b.output.data)
        assert a.layer_counts != b.layer_counts
        assert all(d["macs"] == r["macs"]
                   for d, r in zip(a.layer_counts, b.layer_counts))

    def test_dense_counts_without_encoding(self, monkeypatch):
        model = int8_chain(seed=13)
        rng = np.random.default_rng(14)
        x = Tensor.from_array(rng.integers(-100, 100, (10, 10, 3)).astype(np.int8))
        kept = bundle_from_masks(
            model, [FilterletMask.all_kept(l.spec) for l in model.layers])
        encodes = []

        def counting_encode(*args):
            encodes.append(args)
            return encode_fwcs(*args)

        monkeypatch.setattr(filterlet.bundle, "encode_fwcs", counting_encode)
        monkeypatch.setattr(filterlet.fwcs, "encode_fwcs", counting_encode)
        dense = bundle_from_model(model)
        for schedule in ComputeSchedule:
            for cfg in (MachineConfig(), MachineConfig(lanes=2, register_count=3)):
                got = run_bundle(dense, x, schedule, cfg)
                want = run_bundle(kept, x, schedule, cfg)
                assert got.layer_counts == want.layer_counts
                assert np.array_equal(got.output.data, want.output.data)
        assert encodes == []

    def test_float32_bundle_matches_conv_oracle(self):
        rng = np.random.default_rng(20)
        spec = ConvLayerSpec(n_filters=3, kernel_h=2, kernel_w=2, channels=2,
                             input_h=6, input_w=6)
        w = Tensor.from_array(rng.normal(size=spec.weight_dims).astype(np.float32))
        bias = rng.normal(size=3).astype(np.float32)
        model = SequentialModel("f", [LayerDef("c0", spec, w, bias)])
        x = Tensor.from_array(rng.normal(size=spec.input_dims).astype(np.float32))
        got = run_bundle(bundle_from_model(model), x)
        want = conv_dense(x, w, spec, bias)
        assert got.output.dtype == "float32"
        assert np.allclose(got.output.to_array(), want, rtol=1e-6)

    def test_pruned_bundle_equals_masked_dense_model(self):
        model = int8_chain(seed=6)
        rng = np.random.default_rng(7)
        masks = [FilterletMask(l.spec,
                               rng.random((l.spec.n_filters,
                                           l.spec.filterlets_per_filter)) < 0.5)
                 for l in model.layers]
        bundle = bundle_from_masks(model, masks)
        x = Tensor.from_array(rng.integers(-100, 100, (10, 10, 3)).astype(np.int8))
        got = run_bundle(bundle, x)
        # oracle: zero the pruned filterlets and run the dense pipeline
        zeroed = SequentialModel(model.name, [
            LayerDef(l.name, l.spec, apply_mask_zeroing(l.weights, m),
                     l.bias, l.quant)
            for l, m in zip(model.layers, masks)])
        assert np.array_equal(got.output.to_array(), pipeline_oracle(zeroed, x))

    def test_int32_edge_biases_run_exactly(self):
        # int8_chain's sums reach about +-5e4: the biases at +-(2^31 - 1)
        # take some accumulators past int32, where run_bundle clips them
        model = int8_chain(seed=26, n_layers=1)
        layer = model.layers[0]
        layer.bias = np.array([2 ** 24 + 1, 2 ** 31 - 1, -(2 ** 31 - 1), 0])
        x = Tensor.from_array(np.random.default_rng(27).integers(
            -100, 100, layer.spec.input_dims).astype(np.int8))
        acc = conv_dense(x, layer.weights, layer.spec) + layer.bias
        saturated = (acc < -2 ** 31) | (acc > 2 ** 31 - 1)
        assert saturated[..., 1].any() and saturated[..., 2].any()
        q = layer.quant
        want = np.clip(np.rint(np.clip(acc, -2 ** 31, 2 ** 31 - 1)
                               * (q.input_scale * q.weight_scale
                                  / q.output_scale)), -128, 127)
        masks = random_masks(model, np.random.default_rng(28), keep=0.7)
        zeroed = SequentialModel(model.name, [LayerDef(
            layer.name, layer.spec, apply_mask_zeroing(layer.weights, masks[0]),
            layer.bias, layer.quant)])
        acc = conv_dense(x, zeroed.layers[0].weights, layer.spec) + layer.bias
        masked = np.clip(np.rint(np.clip(acc, -2 ** 31, 2 ** 31 - 1)
                                 * (q.input_scale * q.weight_scale
                                    / q.output_scale)), -128, 127)
        for fmt, bundle in packed(model, masks).items():
            back = ModelBundle.from_bytes(bundle.to_bytes())
            assert np.array_equal(back.layers[0].decode_weights()[1], layer.bias)
            got = run_bundle(back, x)
            assert got.saturated
            assert np.array_equal(got.output.to_array(),
                                  want if fmt == "dense" else masked)

    def test_csr_index_overflow_is_caught_before_encoding(self, monkeypatch):
        # a 64x3x3x128 layer after a layer that gives it 128 channels: CSR
        # counts every kept weight in a u16 f_idx entry
        first = ConvLayerSpec(n_filters=128, kernel_h=1, kernel_w=1,
                              channels=3, input_h=5, input_w=5)
        wide = ConvLayerSpec(n_filters=64, kernel_h=3, kernel_w=3,
                             channels=128, input_h=5, input_w=5)
        rng = np.random.default_rng(29)
        quant = LayerQuant(input_scale=0.05, weight_scale=0.02,
                           output_scale=4.0)
        model = SequentialModel("wide", [
            LayerDef(f"conv{i}", spec, Tensor.from_array(rng.integers(
                -100, 100, spec.weight_dims).astype(np.int8)),
                rng.integers(-500, 500, spec.n_filters), quant)
            for i, spec in enumerate((first, wide))])

        def masks(keep):
            kept = np.zeros(64 * 9, bool)
            kept[rng.choice(kept.size, kept_count(kept.size, 1 - keep),
                            replace=False)] = True
            return [FilterletMask.all_kept(first),
                    FilterletMask(wide, kept.reshape(64, 9))]

        def no_encoding(*args):
            raise AssertionError("a CSR layer was encoded")

        over = masks(0.9)
        assert over[1].kept.sum() * 128 == 518 * 128 > 65535
        with monkeypatch.context() as m:
            for name in ("encode_csr", "write_csr"):
                m.setattr(filterlet.bundle, name, no_encoding)
            with pytest.raises(FormatError, match="f_idx entry 66304"):
                bundle_from_masks(model, over, "csr")
        fits = masks(0.85)
        assert fits[1].kept.sum() * 128 == 490 * 128 <= 65535
        bundle = ModelBundle.from_bytes(
            bundle_from_masks(model, fits, "csr").to_bytes())
        weights, bias = bundle.layers[1].decode_weights()
        x = Tensor.from_array(rng.integers(-128, 128, wide.input_dims).astype(np.int8))
        dense = apply_mask_zeroing(model.layers[1].weights, fits[1])
        assert np.array_equal(conv_csr(x, weights, wide, bias),
                              conv_dense(x, dense, wide, model.layers[1].bias))

    def test_run_and_bench_never_densify(self, tmp_path, monkeypatch, capsys):
        model = int8_chain(seed=17)
        rng = np.random.default_rng(18)
        masks = random_masks(model, rng)
        x = Tensor.from_array(rng.integers(-100, 100, (10, 10, 3)).astype(np.int8))
        paths = {}
        for fmt in ("fwcs", "csr"):
            paths[fmt] = tmp_path / f"{fmt}.fltb"
            bundle_from_masks(model, masks, fmt).save(paths[fmt])

        def outcomes():
            got = []
            for path in paths.values():
                for schedule in ComputeSchedule:
                    r = run_bundle(ModelBundle.load(path), x, schedule)
                    got.append((r.output.data.tobytes(), r.layer_counts))
                    assert main(["bench", str(path), "--schedule",
                                 schedule.value]) == 0
                    got.append(capsys.readouterr().out)
            return got

        before = outcomes()

        def densify(*args):
            raise AssertionError("a packed layer was expanded to dense")

        for module in (filterlet.bundle, filterlet.fwcs):
            monkeypatch.setattr(module, "decode_fwcs", densify)
            monkeypatch.setattr(module, "decode_csr", densify)
        assert outcomes() == before


@pytest.fixture
def workdir(tmp_path):
    model = int8_chain(seed=8)
    model_path = tmp_path / "model.fltb"
    bundle_from_model(model).save(model_path)
    grads_path = tmp_path / "grads.fltb"
    grads_bundle_for(model).save(grads_path)
    rng = np.random.default_rng(9)
    x = Tensor.from_array(rng.integers(-100, 100, (10, 10, 3)).astype(np.int8))
    input_path = tmp_path / "input.dttn"
    input_path.write_bytes(write_tensor(x))
    return tmp_path, model, model_path, grads_path, input_path


@pytest.fixture(scope="module")
def fuzz_input(tmp_path_factory):
    """Path of an input tensor that the first layer of FUZZ_BUNDLES takes."""
    x = np.random.default_rng(23).integers(-100, 100, (10, 10, 3))
    path = tmp_path_factory.mktemp("fuzz") / "input.dttn"
    path.write_bytes(write_tensor(Tensor.from_array(x.astype(np.int8))))
    return path


def float_chain(seed=0):
    """``int8_chain(seed)`` with float32 weights and biases, no quant."""
    return SequentialModel("float", [
        LayerDef(l.name, l.spec,
                 Tensor.from_array(l.weights.to_array().astype(np.float32)),
                 l.bias.astype(np.float32))
        for l in int8_chain(seed).layers])


def stored_arrays(weights):
    """The arrays a decoded layer holds its weights in."""
    if isinstance(weights, Tensor):
        return [weights.data]
    return [weights.arr, weights.c_ptr, weights.f_idx]


class TestDenseDtype:
    """A dense layer's weights are stored as its manifest's dtype, and a
    version-1 bias as a float32 tensor; anything else is corruption."""

    QUANT = {"input_scale": 0.05, "weight_scale": 0.02, "output_scale": 0.4,
             "input_zero_point": 0, "output_zero_point": 0}

    def test_int8_manifest_over_float32_weights_exits_4(self, workdir):
        tmp, _, _, _, input_path = workdir
        raw = bundle_from_model(float_chain(seed=8)).to_bytes()
        manifest = ModelBundle.from_bytes(raw).manifest()
        for entry in manifest["layers"]:
            entry["dtype"], entry["quant"] = "int8", dict(self.QUANT)
        bad = with_manifest(raw, manifest)
        with pytest.raises(CorruptionError, match="stored dtype float32"):
            model_from_bundle(ModelBundle.from_bytes(bad))
        path = tmp / "relabelled.fltb"
        path.write_bytes(bad)
        assert quiet_main(["run", str(path), str(input_path)]) == 4

    def test_float32_manifest_over_int8_gradients_is_corruption(self):
        raw = bundle_from_model(int8_chain(seed=8), role="grads").to_bytes()
        manifest = ModelBundle.from_bytes(raw).manifest()
        for entry in manifest["layers"]:
            entry["dtype"] = "float32"
        bundle = ModelBundle.from_bytes(with_manifest(raw, manifest))
        with pytest.raises(CorruptionError, match="stored dtype int8"):
            gradients_from_bundle(bundle)

    def test_bias_not_stored_as_float32_is_corruption(self, tmp_path):
        spec = ConvLayerSpec(n_filters=2, kernel_h=1, kernel_w=1, channels=1,
                             input_h=2, input_w=2)
        w = write_tensor(Tensor.from_array(np.ones(spec.weight_dims, np.float32)))
        bias = write_tensor(Tensor.from_array(np.ones(2, np.int8)))
        for role in ROLES:
            layer = BundleLayer("conv0", "dense", spec, "float32", True, None,
                                w + np.ones(2, "<f4").tobytes())
            raw = bundle_v1.container(
                ModelBundle("b", role, [layer]).manifest(), [w + bias])
            with pytest.raises(CorruptionError, match="bias stored as int8"):
                ModelBundle.from_bytes(raw)
            # version 2: two raw float32 values, not two bytes
            layer.payload = w + bytes(2)
            with pytest.raises(CorruptionError, match="truncated"):
                layer.decode_weights()
        bp = tmp_path / "bias.fltb"
        bp.write_bytes(raw)
        with pytest.raises(CorruptionError):
            gradients_from_bundle(ModelBundle.load(bp))
        bp.write_bytes(bundle_v1.container(
            ModelBundle("b", "model", [layer]).manifest(), [w + bias]))
        xp = tmp_path / "x.dttn"
        xp.write_bytes(write_tensor(Tensor.from_array(
            np.zeros(spec.input_dims, np.float32))))
        assert quiet_main(["run", str(bp), str(xp)]) == 4


class TestAliasing:
    X = Tensor.from_array(np.random.default_rng(23).integers(
        -100, 100, (10, 10, 3)).astype(np.int8))

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("wrap", ["bytearray", "memoryview"])
    def test_writes_to_the_callers_buffer_change_nothing(self, fmt, wrap):
        buf = bytearray(FUZZ_BUNDLES[fmt])
        bundle = ModelBundle.from_bytes(
            buf if wrap == "bytearray" else memoryview(buf))
        decoded = [layer.decode_weights() for layer in bundle.layers]
        want = [([a.copy() for a in stored_arrays(w)], b.copy())
                for w, b in decoded]
        out = run_bundle(bundle, self.X).output.data.copy()
        buf[:] = bytes(len(buf))
        for (w, b), (arrays, bias) in zip(decoded, want):
            assert all(np.array_equal(a, e)
                       for a, e in zip(stored_arrays(w), arrays))
            assert np.array_equal(b, bias)
        for layer, (arrays, bias) in zip(bundle.layers, want):
            w, b = layer.decode_weights()
            assert all(np.array_equal(a, e)
                       for a, e in zip(stored_arrays(w), arrays))
            assert np.array_equal(b, bias)
        assert np.array_equal(run_bundle(bundle, self.X).output.data, out)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_bytes_payloads_are_copied_read_only(self, fmt):
        model = float_chain(seed=24)
        masks = random_masks(model, np.random.default_rng(25))
        bundle = bundle_from_model(model) if fmt == "dense" \
            else bundle_from_masks(model, masks, fmt)
        for layer in ModelBundle.from_bytes(bundle.to_bytes()).layers:
            payload = np.frombuffer(layer.payload, np.uint8)
            weights, bias = layer.decode_weights()
            for a in (*stored_arrays(weights), bias):
                assert not a.flags.writeable
                assert not np.shares_memory(a, payload)

    def test_a_layer_keeps_its_own_copy_of_the_callers_array(self):
        src = np.frombuffer(np.arange(8, dtype=np.int8).tobytes(), np.int8)
        layer = filterlet.fwcs.FwcsLayer(src, 2, np.array([0, 2, 0, 2]),
                                         np.array([0, 2, 4]), "int8")
        assert not layer.arr.flags.writeable
        assert not np.shares_memory(layer.arr, src)
        src.shape = (2, 4)
        src.dtype = np.uint8
        assert layer.arr.shape == (8,) and layer.arr.dtype == np.int8

    def test_mutated_counts_do_not_reach_the_next_run(self):
        bundle = ModelBundle.from_bytes(FUZZ_BUNDLES["fwcs"])
        first = run_bundle(bundle, self.X)
        want = [dict(c) for c in first.layer_counts]
        first.layer_counts[0]["macs"] = -1
        first.layer_counts[1].clear()
        assert run_bundle(bundle, self.X).layer_counts == want


def version_bundles():
    """``fuzz_chain``'s bundles, the first bias of the chain 2^24 (the
    largest integer of a run that float32 holds), saved as version 1 and
    as version 2."""
    model, masks = fuzz_chain()
    model.layers[0].bias[0] = 2 ** 24
    bundles = packed(model, masks)
    return ({fmt: bundle_v1.to_bytes(b) for fmt, b in bundles.items()},
            {fmt: b.to_bytes() for fmt, b in bundles.items()})


V1_BUNDLES, V2_BUNDLES = version_bundles()


class TestVersion1:
    """Bundles saved before version 2 read as their version-2 copies."""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_loads_and_saves_as_version_2(self, fmt):
        old, new = V1_BUNDLES[fmt], V2_BUNDLES[fmt]
        assert old[4:6] == b"\x01\x00" and new[4:6] == b"\x02\x00"
        bundle = ModelBundle.from_bytes(old)
        assert bundle.to_bytes() == new
        assert bundle.layers[0].decode_weights()[1][0] == 2 ** 24

    def test_dense_runs_as_the_pipeline_oracle(self):
        model, _ = fuzz_chain()
        model.layers[0].bias[0] = 2 ** 24
        x = TestAliasing.X
        got = run_bundle(ModelBundle.from_bytes(V1_BUNDLES["dense"]), x)
        assert np.array_equal(got.output.to_array(), pipeline_oracle(model, x))

    def test_run_bench_and_compare_read_version_1(self, tmp_path, fuzz_input):
        def outputs(version):
            got = []
            for fmt, raw in (V1_BUNDLES if version == 1 else V2_BUNDLES).items():
                path = tmp_path / f"{fmt}.fltb"
                path.write_bytes(raw)
                out = tmp_path / "y.dttn"
                for argv in (["run", path, fuzz_input, "--out", out],
                             ["bench", path, "--schedule", "default"]):
                    stdout = io.StringIO()
                    with redirect_stdout(stdout):
                        assert main([str(a) for a in argv]) == 0
                    got.append(stdout.getvalue())
                got.append(out.read_bytes())
            model = model_from_bundle(ModelBundle.from_bytes(V2_BUNDLES["dense"]))
            grads = grads_bundle_for(model)
            grads_path = tmp_path / "g.fltb"
            grads_path.write_bytes(bundle_v1.to_bytes(grads) if version == 1
                                   else grads.to_bytes())
            stdout = io.StringIO()
            with redirect_stdout(stdout):
                assert main(["compare", str(tmp_path / "dense.fltb"),
                             str(grads_path), "--ratio", "0.5"]) == 0
            return got + [stdout.getvalue()]

        assert outputs(1) == outputs(2)

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(fmt=st.sampled_from(FORMATS), data=st.data())
    def test_mutated_payload_exits_0_or_4(self, fuzz_input, fmt, data):
        # one to eight bytes of the layer payloads overwritten, the CRC made
        # to match
        raw = V1_BUNDLES[fmt]
        _, _, crc_at = manifest_span(raw)
        raw = with_crc(overwrite(raw, data, crc_at + 4), crc_at)
        path = fuzz_input.parent / "v1.fltb"
        path.write_bytes(raw)
        for command in ("run", "bench"):
            argv = [command, str(path)] + ([str(fuzz_input)]
                                          if command == "run" else [])
            assert quiet_main(argv) in (0, 4)


class TestCliOnMutatedBundles:
    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(fmt=st.sampled_from(FORMATS), command=st.sampled_from(("run", "bench")),
           data=st.data(), how=st.sampled_from(("bytes", "crc", "digit")))
    def test_exits_0_or_4(self, fuzz_input, fmt, command, data, how):
        # one to eight bytes overwritten anywhere, then the CRC made to match
        # or not; or one digit of a number in the manifest changed, so that
        # the JSON still parses; run may exit 3 only when the first layer no
        # longer takes the unchanged input
        raw = bytearray(FUZZ_BUNDLES[fmt])
        start, end, crc_at = manifest_span(raw)
        if how == "digit":
            at = data.draw(st.sampled_from(
                [i for i in range(start, end) if chr(raw[i]).isdigit()]))
            raw[at] = ord(data.draw(st.sampled_from("0123456789")))
        else:
            raw = overwrite(raw, data)
        raw = with_crc(raw, crc_at) if how == "crc" else bytes(raw)
        path = fuzz_input.parent / "bundle.fltb"
        path.write_bytes(raw)
        argv = [command, str(path)]
        if command == "run":
            argv.append(str(fuzz_input))
        code = quiet_main(argv)
        if command == "run" and code == 3:
            first = ModelBundle.from_bytes(raw).layers[0]
            assert first.spec.input_dims != (10, 10, 3)
        else:
            assert code in (0, 4)


@pytest.fixture(scope="module")
def fuzz_grads(fuzz_input):
    """Paths of the dense bundle of FUZZ_BUNDLES and of its gradients."""
    model_path = fuzz_input.parent / "model.fltb"
    model_path.write_bytes(FUZZ_BUNDLES["dense"])
    grads_path = fuzz_input.parent / "grads.fltb"
    grads_bundle_for(model_from_bundle(ModelBundle.load(model_path))
                     ).save(grads_path)
    return model_path, grads_path


class TestCliOnMutatedInputs:
    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(fmt=st.sampled_from(FORMATS), data=st.data(),
           how=st.sampled_from(("bytes", "truncate", "tensor")))
    def test_run_exits_0_3_or_4(self, fuzz_input, fmt, data, how):
        # the input tensor with bytes overwritten, cut short, or replaced by
        # a well-formed tensor of a drawn shape and dtype
        raw = fuzz_input.read_bytes()
        if how == "bytes":
            raw = overwrite(raw, data)
        elif how == "truncate":
            raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
        else:
            dims = data.draw(st.just((10, 10, 3)) | st.lists(
                st.integers(1, 11), min_size=1, max_size=4).map(tuple))
            dtype = data.draw(st.sampled_from(("int8", "float32")))
            values = np.random.default_rng(len(dims)).integers(
                -100, 100, dims).astype(dtype)
            raw = write_tensor(Tensor.from_array(values, dtype))
        bundle_path = fuzz_input.parent / "b.fltb"
        bundle_path.write_bytes(FUZZ_BUNDLES[fmt])
        input_path = fuzz_input.parent / "x.dttn"
        input_path.write_bytes(raw)
        assert quiet_main(["run", str(bundle_path), str(input_path)]) in (0, 3, 4)

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(command=st.sampled_from(("prune", "compare")), data=st.data(),
           how=st.sampled_from(("bytes", "crc", "payload")))
    def test_prune_and_compare_exit_0_2_3_or_4(self, fuzz_grads, command,
                                               data, how):
        # the gradient bundle with one to eight bytes overwritten anywhere,
        # then its CRC made to match or not; or overwritten in the layer
        # payloads, CRC matching
        model_path, grads_path = fuzz_grads
        raw = grads_path.read_bytes()
        _, _, crc_at = manifest_span(raw)
        raw = overwrite(raw, data, crc_at + 4 if how == "payload" else 0)
        raw = raw if how == "bytes" else with_crc(raw, crc_at)
        path = grads_path.parent / "mutated-grads.fltb"
        path.write_bytes(raw)
        argv = [command, str(model_path), str(path)]
        if command == "prune":
            argv += [str(path.parent / "out.fltb"), "--flash", "100000",
                     "--ram", "100000", "--dlmax", "1e9", "--iters", "20"]
        else:
            argv += ["--ratio", "0.5"]
        assert quiet_main(argv) in (0, 2, 3, 4)


class TestCli:
    def test_prune_run_round_trip(self, workdir, capsys):
        tmp, model, model_path, grads_path, input_path = workdir
        out = tmp / "pruned.fltb"
        report = tmp / "report.json"
        code = main(["prune", str(model_path), str(grads_path), str(out),
                     "--flash", "10000000", "--ram", "10000000",
                     "--dlmax", "1e9", "--seed", "0", "--iters", "200",
                     "--report", str(report)])
        assert code == 0
        rep = json.loads(report.read_text())
        assert rep["feasible"] is True
        assert rep["actual_file_bytes"] == out.stat().st_size
        capsys.readouterr()
        code = main(["run", str(out), str(input_path),
                     "--out", str(tmp / "y.dttn")])
        assert code == 0
        captured = capsys.readouterr().out
        run_rep = json.loads(captured)
        assert all("macs" in row for row in run_rep["layers"])
        y, _ = read_tensor((tmp / "y.dttn").read_bytes())
        assert y.dtype == "int8"

    @pytest.mark.parametrize("flash_share, dlmax, exit_code, binding", [
        (0.6, 1e9, 0, None), (0.01, 0.0, 2, "flash"),
        # everything pruned, and the packed payload still over the budget
        (0.01, 1e9, 0, "flash_payload")])
    def test_prune_report_gives_each_slack_and_the_binding_constraint(
            self, workdir, capsys, flash_share, dlmax, exit_code, binding):
        tmp, model, model_path, grads_path, _ = workdir
        flash = int(flash_share * model_size(model.specs, [0.0] * 3))
        ram, report = 10 ** 6, tmp / "report.json"
        assert main(["prune", str(model_path), str(grads_path),
                     str(tmp / "out.fltb"), "--flash", str(flash), "--ram",
                     str(ram), "--dlmax", repr(dlmax), "--iters", "300",
                     "--report", str(report)]) == exit_code
        rep = json.loads(report.read_text())
        pred = rep["predicted"]
        values = {"flash": pred["size_bytes"], "ram": pred["ram_bytes"],
                  "dl": pred["delta_loss"]}
        limits = {"flash": flash, "flash_payload": flash, "ram": ram,
                  "dl": dlmax}
        if exit_code == 0:
            values["flash_payload"] = rep["actual_payload_bytes"]
        assert rep["slack"] == {k: limits[k] - v for k, v in values.items()}
        # the least slack as a share of its limit; a zero limit met exactly
        # has none left
        shares = {k: 0.0 if limits[k] == 0 else 1 - v / limits[k]
                  for k, v in values.items()}
        assert rep["binding"] == min(shares, key=shares.get)
        if binding is not None:
            assert rep["binding"] == binding
        else:
            assert rep["binding"] in ("flash", "flash_payload")

    @pytest.mark.parametrize("flash, dlmax, exit_code", [
        (10000000, 1e9, 0), (10, 0.0, 2)])
    def test_prune_writes_the_annealing_trace(self, workdir, capsys, flash,
                                              dlmax, exit_code):
        tmp, _, model_path, grads_path, _ = workdir
        trace = tmp / "trace.csv"
        code = main(["prune", str(model_path), str(grads_path),
                     str(tmp / "pruned.fltb"), "--flash", str(flash),
                     "--ram", "10000000", "--dlmax", str(dlmax), "--seed", "6",
                     "--iters", "120", "--trace", str(trace)])
        capsys.readouterr()
        assert code == exit_code
        model = model_from_bundle(ModelBundle.load(model_path))
        importance = score_model(
            model, gradients_from_bundle(ModelBundle.load(grads_path)))
        problem = ScheduleProblem(
            model.specs, importance, Budget(flash, 10000000, dlmax),
            LatencyParams(1.0, 1.0, 2.0, 2.0, lanes=4), m=model.value_bits)
        text = trace.read_text()
        assert text == anneal(problem, seed=6, iters=120).trace_csv()
        lines = text.splitlines()
        assert lines[0] == "iter,temp,objective,feasible"
        # a chain that sees nothing feasible runs twice
        steps = 120 if exit_code == 0 else 240
        assert len(lines) == 1 + 1 + steps

    def test_prune_exports_masked_dense_copy(self, workdir, capsys):
        tmp, model, model_path, grads_path, _ = workdir
        out = tmp / "pruned.fltb"
        masked = tmp / "masked.fltb"
        code = main(["prune", str(model_path), str(grads_path), str(out),
                     "--flash", "2000", "--ram", "10000000", "--dlmax", "1e9",
                     "--seed", "0", "--iters", "150",
                     "--export-masked", str(masked)])
        capsys.readouterr()
        assert code == 0
        dense = ModelBundle.load(masked)
        assert all(l.fmt == "dense" for l in dense.layers)
        # the masked dense copy and the packed bundle decode identically
        packed = ModelBundle.load(out)
        for a, b in zip(model_from_bundle(dense).layers,
                        model_from_bundle(packed).layers):
            wa, wb = a.weights, b.weights
            assert np.array_equal(wa.data, wb.data)

    def test_prune_prices_float32_weights_at_32_bits(self, tmp_path, capsys):
        rng = np.random.default_rng(23)
        layers = []
        channels = 3
        for i in range(2):
            spec = ConvLayerSpec(n_filters=4, kernel_h=3, kernel_w=3,
                                 channels=channels, input_h=8 - 2 * i,
                                 input_w=8 - 2 * i)
            w = rng.normal(size=spec.weight_dims).astype(np.float32)
            layers.append(LayerDef(f"conv{i}", spec, Tensor.from_array(w)))
            channels = spec.n_filters
        model = SequentialModel("f", layers)
        mp, gp, out = tmp_path / "m.fltb", tmp_path / "g.fltb", tmp_path / "o.fltb"
        bundle_from_model(model).save(mp)
        grads_bundle_for(model).save(gp)
        assert main(["prune", str(mp), str(gp), str(out), "--flash", "10000000",
                     "--ram", "10000000", "--dlmax", "1e9", "--seed", "0",
                     "--iters", "100"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["predicted"]["size_bytes"] == \
            model_size(model.specs, rep["strategy"], m=32)
        # the prediction prices a u16 index entry per kept filterlet; each
        # stored block adds its magic and a u8 count per filter, and stores
        # each position as u8
        kept = [bl.decode_weights()[0].n_retained
                for bl in ModelBundle.load(out).layers]
        assert rep["actual_payload_bytes"] == rep["predicted"]["size_bytes"] \
            + sum(4 + spec.n_filters - k for spec, k in zip(model.specs, kept))

    def test_prune_rejects_a_kernel_past_u16_positions_before_searching(
            self, tmp_path, capsys, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("anneal ran")

        monkeypatch.setattr(filterlet.scheduler, "anneal", no_search)
        # 65792 kernel positions: a filter's run count needs more than u16
        spec = ConvLayerSpec(n_filters=1, kernel_h=256, kernel_w=257,
                             channels=1, input_h=256, input_w=257)
        w = np.random.default_rng(5).normal(size=spec.weight_dims)
        model = SequentialModel("wide", [
            LayerDef("conv0", spec, Tensor.from_array(w.astype(np.float32)))])
        mp, gp, out = tmp_path / "m.fltb", tmp_path / "g.fltb", tmp_path / "o.fltb"
        bundle_from_model(model).save(mp)
        grads_bundle_for(model).save(gp)
        assert main(["prune", str(mp), str(gp), str(out), "--flash", "10000000",
                     "--ram", "10000000", "--dlmax", "1e9"]) == 3
        assert "run count entry 65792" in capsys.readouterr().err
        assert not out.exists()

    def test_prune_packs_a_layer_past_the_old_u16_size_field(
            self, tmp_path, capsys):
        # 65536 weights per filter: the version-1 block's u16 size field
        # overflowed; version 2 stores no such field, so the layer packs
        spec = ConvLayerSpec(n_filters=1, kernel_h=1, kernel_w=1,
                             channels=65536, input_h=1, input_w=1)
        w = np.random.default_rng(5).normal(size=spec.weight_dims)
        model = SequentialModel("wide", [
            LayerDef("conv0", spec, Tensor.from_array(w.astype(np.float32)))])
        mp, gp, out = tmp_path / "m.fltb", tmp_path / "g.fltb", tmp_path / "o.fltb"
        bundle_from_model(model).save(mp)
        grads_bundle_for(model).save(gp)
        assert main(["prune", str(mp), str(gp), str(out), "--flash", "10000000",
                     "--ram", "10000000", "--dlmax", "1e9", "--seed", "0",
                     "--iters", "10"]) == 0
        capsys.readouterr()
        layer = ModelBundle.load(out).layers[0]
        assert layer.fmt == "fwcs"
        weights, _ = layer.decode_weights()
        back = filterlet.fwcs.decode_fwcs(weights, spec).to_array()
        kept = w if weights.n_retained else np.zeros_like(w)
        assert np.array_equal(back, kept.astype(np.float32))

    def test_prune_rejects_mismatched_grad_names(self, workdir, capsys):
        tmp, model, model_path, _, _ = workdir
        other = SequentialModel("other", [
            LayerDef("else0", l.spec, Tensor.from_array(
                np.zeros(l.spec.weight_dims, np.float32)))
            for l in model.layers[:1]])
        gp = tmp / "badgrads.fltb"
        bundle_from_model(other, role="grads").save(gp)
        code = main(["prune", str(model_path), str(gp), str(tmp / "o.fltb"),
                     "--flash", "2000", "--ram", "10000", "--dlmax", "1"])
        assert code == 3

    def test_prune_infeasible_exits_2(self, workdir, capsys):
        tmp, model, model_path, grads_path, _ = workdir
        code = main(["prune", str(model_path), str(grads_path),
                     str(tmp / "x.fltb"), "--flash", "10", "--ram", "10000000",
                     "--dlmax", "0", "--seed", "0", "--iters", "100"])
        assert code == 2

    @pytest.mark.parametrize("setting", [["--iters", "0"], ["--iters", "-1"],
                                         ["--dlmax", "-0.05"],
                                         ["--ram", "0"],
                                         ["--dlmax", "nan"]])
    def test_meaningless_search_settings_exit_3(self, workdir, capsys,
                                                setting):
        tmp, _, model_path, grads_path, _ = workdir
        code = main(["prune", str(model_path), str(grads_path),
                     str(tmp / "x.fltb"), "--flash", "2000", "--ram",
                     "10000000", "--dlmax", "1e9", "--iters", "20", *setting])
        assert code == 3
        assert "error:" in capsys.readouterr().err

    def test_missing_grads_exits_3(self, workdir, capsys):
        tmp, model, model_path, _, _ = workdir
        code = main(["prune", str(model_path), str(tmp / "nope.fltb"),
                     str(tmp / "x.fltb"), "--flash", "10000", "--ram", "10000",
                     "--dlmax", "1"])
        assert code == 3

    @pytest.mark.parametrize("lanes, code", [("8", 0), ("4.9", 3), ("4.0", 3)])
    def test_params_file_lanes_must_be_an_integer(self, workdir, capsys,
                                                  lanes, code):
        tmp, _, model_path, grads_path, _ = workdir
        params = tmp / "params.txt"
        params.write_text("t_mem=1.0\nt_idx=1.0\nt_com=2.0\nt_post=2.0\n"
                          f"lanes={lanes}\n")
        assert main(["prune", str(model_path), str(grads_path),
                     str(tmp / "x.fltb"), "--flash", "10000000", "--ram",
                     "10000000", "--dlmax", "1e9", "--iters", "10",
                     "--params", str(params)]) == code
        if code:
            assert "lanes" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_unreadable_bundle_exits_3(self, workdir, capsys, command):
        tmp, _, _, _, input_path = workdir
        argv = [command, str(tmp)]  # a directory
        if command == "run":
            argv.append(str(input_path))
        assert main(argv) == 3

    @pytest.mark.parametrize("command", ["run", "bench", "prune", "compare"])
    def test_grads_bundle_as_model_exits_3(self, workdir, capsys, command):
        tmp, _, _, grads_path, input_path = workdir
        argv = {"run": [input_path], "bench": [],
                "prune": [grads_path, tmp / "x.fltb", "--flash", "10000000",
                          "--ram", "10000000", "--dlmax", "1e9"],
                "compare": [grads_path, "--ratio", "0.5"]}[command]
        assert main([command, str(grads_path), *map(str, argv)]) == 3
        assert "expected a model bundle" in capsys.readouterr().err

    def test_corrupt_bundle_exits_4(self, workdir, capsys):
        tmp, _, model_path, _, input_path = workdir
        raw = bytearray(model_path.read_bytes())
        raw[-2] ^= 0x55
        bad = tmp / "bad.fltb"
        bad.write_bytes(bytes(raw))
        assert main(["run", str(bad), str(input_path)]) == 4

    def test_csr_block_with_decreasing_f_idx_exits_4(self, tmp_path, capsys):
        spec = ConvLayerSpec(n_filters=3, kernel_h=1, kernel_w=1, channels=4,
                             input_h=2, input_w=2)
        block = write_csr(CsrLayer(np.array([1, 2, 3, 4], np.int8),
                                   np.array([0, 1, 2, 3]),
                                   np.array([0, 3, 1, 4]), "int8"))
        quant = LayerQuant(input_scale=0.05, weight_scale=0.02, output_scale=0.4)
        bp = tmp_path / "bad.fltb"
        ModelBundle("bad", "model", [BundleLayer(
            "conv0", "csr", spec, "int8", False, quant, block)]).save(bp)
        xp = tmp_path / "x.dttn"
        xp.write_bytes(write_tensor(Tensor.from_array(np.zeros(spec.input_dims, np.int8))))
        assert main(["run", str(bp), str(xp)]) == 4

    @pytest.mark.parametrize("command", ["run", "bench"])
    def test_malformed_manifest_exits_4(self, workdir, capsys, command):
        tmp, _, model_path, _, input_path = workdir
        raw = model_path.read_bytes()
        bad = []
        for key, value in (("format", "zip"), ("dtype", "int9")):
            bad.append(ModelBundle.from_bytes(raw).manifest())
            bad[-1]["layers"][1][key] = value
        for key, value in (("output_scale", 0.0), ("output_zero_point", "3"),
                           ("weight_scale", -0.02), ("input_scale", float("nan"))):
            bad.append(ModelBundle.from_bytes(raw).manifest())
            bad[-1]["layers"][1]["quant"][key] = value
        bad.append({**ModelBundle.from_bytes(raw).manifest(), "role": "modem"})
        for key, value in (("n_filters", 4.0), ("stride", 1.0)):
            bad.append(ModelBundle.from_bytes(raw).manifest())
            bad[-1]["layers"][1]["spec"][key] = value
        bad.append(ModelBundle.from_bytes(raw).manifest())
        bad[-1]["layers"][1]["quant"] = None
        for key, value in (("has_bias", "no"), ("name", 5)):
            bad.append(ModelBundle.from_bytes(raw).manifest())
            bad[-1]["layers"][1][key] = value
        bad.append({**ModelBundle.from_bytes(raw).manifest(), "name": 7})
        # layer 0 still takes the input but no longer feeds layer 1
        bad.append(ModelBundle.from_bytes(raw).manifest())
        bad[-1]["layers"][0]["spec"]["stride"] = 2
        argv = [command, str(tmp / "bad.fltb")]
        if command == "run":
            argv.append(str(input_path))
        for manifest in ([], {"layers": 5}, *bad):
            (tmp / "bad.fltb").write_bytes(with_manifest(raw, manifest))
            assert main(argv) == 4

    @pytest.mark.parametrize("n_bytes", [1, 40])
    @pytest.mark.parametrize("command, target", [
        ("run", "bundle"), ("run", "input"), ("bench", "bundle")])
    def test_trailing_bytes_exit_4(self, workdir, capsys, command, target,
                                   n_bytes):
        tmp, _, model_path, _, input_path = workdir
        paths = {"bundle": model_path, "input": input_path}
        bad = tmp / f"bad.{target}"
        bad.write_bytes(paths[target].read_bytes() + bytes(range(n_bytes)))
        paths[target] = bad
        argv = [command, str(paths["bundle"])]
        if command == "run":
            argv.append(str(paths["input"]))
        assert main(argv) == 4

    def test_empty_input_exits_4(self, workdir, capsys):
        tmp, _, model_path, _, _ = workdir
        empty = tmp / "empty.dttn"
        empty.write_bytes(b"")
        assert main(["run", str(model_path), str(empty)]) == 4

    def test_run_dense_equals_oracle(self, workdir, capsys):
        tmp, model, model_path, _, input_path = workdir
        out = tmp / "y.dttn"
        assert main(["run", str(model_path), str(input_path),
                     "--out", str(out)]) == 0
        y, _ = read_tensor(out.read_bytes())
        x, _ = read_tensor(input_path.read_bytes())
        assert np.array_equal(y.to_array(), pipeline_oracle(model, x))

    def test_bench_demo_reports_nine_and_seven(self, workdir, capsys):
        code = main(["bench", "--demo", "fig9"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        cycles = {row["scenario"]: row["cycles"] for row in rep["demo"]}
        assert cycles == {"fig9a": 9, "fig9b": 7}

    def test_bench_lane_scaling(self, tmp_path, capsys):
        # needs layers wider than the narrow lane count to see a difference
        model = int8_chain(seed=12, n_layers=2, wide=True)
        mp = tmp_path / "m.fltb"
        bundle_from_model(model).save(mp)
        totals = {}
        for lanes in (4, 8):
            assert main(["bench", str(mp), "--lanes", str(lanes)]) == 0
            totals[lanes] = json.loads(capsys.readouterr().out)["total_cycles"]
        assert totals[4] > totals[8]

    def test_bench_reports_counts_of_the_lowered_stream(self, tmp_path, capsys):
        model = int8_chain(seed=15)
        rng = np.random.default_rng(16)
        masks = [FilterletMask(l.spec, rng.random(
            (l.spec.n_filters, l.spec.filterlets_per_filter)) < 0.5)
            for l in model.layers]
        paths = {"dense": tmp_path / "d.fltb", "fwcs": tmp_path / "f.fltb",
                 "csr": tmp_path / "c.fltb"}
        bundle_from_model(model).save(paths["dense"])
        bundle_from_masks(model, masks).save(paths["fwcs"])
        bundle_from_masks(model, masks, "csr").save(paths["csr"])
        kinds = {"macv": "macs", "macs": "macs", "ldv": "vector_loads",
                 "lds": "scalar_loads"}
        for fmt, path in paths.items():
            for schedule in ComputeSchedule:
                assert main(["bench", str(path), "--lanes", "2",
                             "--schedule", schedule.value]) == 0
                rep = json.loads(capsys.readouterr().out)
                cfg = MachineConfig(lanes=2)
                for row, layer, mask in zip(rep["layers"], model.layers, masks):
                    if fmt == "csr":
                        packed = encode_csr(layer.weights, mask.to_weight_mask())
                    else:
                        if fmt == "dense":
                            mask = FilterletMask.all_kept(layer.spec)
                        packed = encode_fwcs(layer.weights, mask)
                    stream = layer_stream(packed, layer.spec, schedule, cfg)
                    want = dict.fromkeys(kinds.values(), 0)
                    for ins in stream.expand():
                        want[kinds[ins.kind]] += 1
                    assert {k: row[k] for k in want} == want
                    assert row["cycles"] == stream.cycles()
                    assert want["macs"] > 0

    def test_compare_index_ratio_and_cycles(self, tmp_path, capsys):
        # five synthetic layer configurations at 90% of the weights pruned
        model = int8_chain(seed=10, n_layers=5, wide=True)
        mp = tmp_path / "m.fltb"
        bundle_from_model(model).save(mp)
        gp = tmp_path / "g.fltb"
        grads_bundle_for(model).save(gp)
        assert main(["compare", str(mp), str(gp), "--ratio", "0.9",
                     "--lanes", "8"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert len(rep["layers"]) == 5
        for row, layer in zip(rep["layers"], model.layers):
            c = layer.spec.channels
            assert row["csr"]["index_entries"] == c * row["fwcs"]["index_entries"]
            assert row["csr"]["index_bytes"] == c * row["fwcs"]["index_bytes"]
            assert row["fwcs"]["cycles"] < row["csr"]["cycles"]
            assert row["fwcs"]["bytes"] < row["csr"]["bytes"]

    def test_compare_ratio_zero_near_dense(self, tmp_path, capsys):
        model = int8_chain(seed=11, n_layers=1)
        mp = tmp_path / "m.fltb"
        bundle_from_model(model).save(mp)
        gp = tmp_path / "g.fltb"
        grads_bundle_for(model).save(gp)
        assert main(["compare", str(mp), str(gp), "--ratio", "0"]) == 0
        rep = json.loads(capsys.readouterr().out)
        row = rep["layers"][0]
        spec = model.layers[0].spec
        # all formats within the per-layer index/header slack of dense
        slack = 2 * (spec.n_filters * spec.filterlets_per_filter
                     + spec.n_filters + 2)
        for fmt in ("structured", "csr", "fwcs"):
            assert abs(row[fmt]["bytes"] - row["dense"]["bytes"]) <= \
                slack * spec.channels

    def test_simulate_demo_trace(self, capsys):
        assert main(["simulate", "--demo", "fig9b"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 7

    def test_simulate_out_writes_the_printed_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.txt"
        assert main(["simulate", "--demo", "fig9b", "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == capsys.readouterr().out

    def test_only_prune_takes_seed(self):
        parser = _build_parser()
        args = parser.parse_args(["prune", "m", "g", "o", "--flash", "1",
                                  "--ram", "1", "--dlmax", "1", "--seed", "3"])
        assert args.seed == 3
        for argv in (["run", "b", "x"], ["bench", "b"], ["compare", "m", "g",
                     "--ratio", "0.5"], ["simulate"]):
            assert "seed" not in vars(parser.parse_args(argv))
            with pytest.raises(SystemExit):
                parser.parse_args(argv + ["--seed", "3"])

    def test_deterministic_given_seed(self, workdir, capsys, monkeypatch):
        tmp, model, model_path, grads_path, _ = workdir
        outs = []
        for _ in range(2):
            out = tmp / "p.fltb"
            code = main(["prune", str(model_path), str(grads_path), str(out),
                         "--flash", "2000", "--ram", "10000000",
                         "--dlmax", "1e9", "--seed", "7", "--iters", "150"])
            assert code == 0
            outs.append(out.read_bytes())
            capsys.readouterr()
        assert outs[0] == outs[1]
