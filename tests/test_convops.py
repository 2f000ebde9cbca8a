from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterlet.bundle import _INT32_MAX, _INT32_MIN, ModelBundle, \
    _requantize, bundle_from_masks, bundle_from_model, run_bundle
from filterlet.convops import _operand_dtype, conv_csr, conv_dense, \
    conv_fwcs, conv_fwcs_reordered
from filterlet.cyclesim import MachineConfig
from filterlet.errors import ConfigError, DataError
from filterlet.fwcs import FilterletMask, decode_fwcs, encode_csr, encode_fwcs
from filterlet.importance import apply_mask_zeroing
from filterlet.model import LayerDef, LayerQuant, SequentialModel
from filterlet.tensor import ConvLayerSpec, Tensor, patch_matrix


def nested_loop_conv(x, w, spec, bias=None):
    """Independent brute-force oracle: literal nested loops over the formula."""
    out = np.zeros((spec.out_h, spec.out_w, spec.n_filters))
    xa = x.to_array().astype(np.float64)
    wa = w.to_array().astype(np.float64)
    for oy in range(spec.out_h):
        for ox in range(spec.out_w):
            for n in range(spec.n_filters):
                s = 0.0
                for h in range(spec.kernel_h):
                    for ww in range(spec.kernel_w):
                        for c in range(spec.channels):
                            s += wa[n, h, ww, c] * \
                                xa[oy * spec.stride + h, ox * spec.stride + ww, c]
                out[oy, ox, n] = s + (0 if bias is None else bias[n])
    return out


def rand_instance(rng, dtype="int8", max_in=8, max_n=8, max_c=8):
    kh = int(rng.integers(1, 4))
    kw = int(rng.integers(1, 4))
    ih = int(rng.integers(kh, max_in + 1))
    iw = int(rng.integers(kw, max_in + 1))
    spec = ConvLayerSpec(
        n_filters=int(rng.integers(1, max_n + 1)), kernel_h=kh, kernel_w=kw,
        channels=int(rng.integers(1, max_c + 1)), input_h=ih, input_w=iw,
        stride=int(rng.integers(1, 3)),
    )
    if dtype == "int8":
        x = Tensor.from_array(rng.integers(-128, 128, spec.input_dims).astype(np.int8))
        w = Tensor.from_array(rng.integers(-128, 128, spec.weight_dims).astype(np.int8))
    else:
        x = Tensor.from_array(rng.normal(size=spec.input_dims).astype(np.float32))
        w = Tensor.from_array(rng.normal(size=spec.weight_dims).astype(np.float32))
    return spec, x, w


def rand_mask(spec, rng, density=None):
    density = rng.random() if density is None else density
    kept = rng.random((spec.n_filters, spec.filterlets_per_filter)) < density
    return FilterletMask(spec, kept)


class TestConvDense:
    def test_1x1_identity_filter_selects_channel(self):
        spec = ConvLayerSpec(n_filters=1, kernel_h=1, kernel_w=1, channels=3,
                             input_h=4, input_w=4)
        rng = np.random.default_rng(0)
        x = Tensor.from_array(rng.normal(size=(4, 4, 3)).astype(np.float32))
        w = np.zeros((1, 1, 1, 3), np.float32)
        w[0, 0, 0, 1] = 1.0
        out = conv_dense(x, Tensor.from_array(w), spec)
        assert np.allclose(out[:, :, 0], x.to_array()[:, :, 1])

    def test_all_ones_kernel_is_sliding_sum(self):
        spec = ConvLayerSpec(n_filters=1, kernel_h=2, kernel_w=2, channels=1,
                             input_h=4, input_w=4)
        arr = np.arange(16, dtype=np.float32).reshape(4, 4, 1)
        x = Tensor.from_array(arr)
        w = Tensor.from_array(np.ones((1, 2, 2, 1), np.float32))
        out = conv_dense(x, w, spec)
        assert np.allclose(out, nested_loop_conv(x, w, spec))

    def test_zero_filters(self):
        spec = ConvLayerSpec(n_filters=2, kernel_h=2, kernel_w=2, channels=2,
                             input_h=3, input_w=3)
        x = Tensor.from_array(np.random.default_rng(1).normal(
            size=spec.input_dims).astype(np.float32))
        out = conv_dense(x, Tensor.from_array(np.zeros(spec.weight_dims)), spec)
        assert not out.any()

    def test_matches_nested_loops_with_stride_and_bias(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            spec, x, w = rand_instance(rng, dtype="float32")
            bias = rng.normal(size=spec.n_filters).astype(np.float32)
            out = conv_dense(x, w, spec, bias)
            assert np.allclose(out, nested_loop_conv(x, w, spec, bias),
                               rtol=1e-5, atol=1e-4)

    def test_int8_accumulates_exactly(self):
        rng = np.random.default_rng(3)
        spec, x, w = rand_instance(rng, dtype="int8")
        out = conv_dense(x, w, spec)
        assert out.dtype == np.int64
        assert np.array_equal(out, nested_loop_conv(x, w, spec).astype(np.int64))


class TestConvFwcs:
    def test_all_kept_equals_dense(self):
        rng = np.random.default_rng(4)
        for trial in range(50):
            dtype = "int8" if trial % 2 else "float32"
            spec, x, w = rand_instance(rng, dtype)
            layer = encode_fwcs(w, FilterletMask.all_kept(spec))
            want = conv_dense(x, w, spec)
            assert np.array_equal(conv_fwcs(x, layer, spec), want)

    def test_fully_pruned_is_zero_plus_bias(self):
        rng = np.random.default_rng(5)
        spec, x, w = rand_instance(rng, "float32")
        layer = encode_fwcs(w, FilterletMask.none_kept(spec))
        bias = rng.normal(size=spec.n_filters).astype(np.float32)
        out = conv_fwcs(x, layer, spec, bias)
        assert np.allclose(out, np.broadcast_to(bias, out.shape))

    def test_masked_matches_dense_on_decoded(self):
        rng = np.random.default_rng(6)
        for trial in range(30):
            dtype = "int8" if trial % 2 else "float32"
            spec, x, w = rand_instance(rng, dtype)
            mask = rand_mask(spec, rng)
            layer = encode_fwcs(w, mask)
            want = conv_dense(x, decode_fwcs(layer, spec), spec)
            assert np.array_equal(conv_fwcs(x, layer, spec), want)

    def test_non_finite_input_meets_pruned_zeros(self):
        # the pruned filterlet's zero weight times inf is NaN, as in dense
        spec = ConvLayerSpec(n_filters=2, kernel_h=1, kernel_w=2, channels=1,
                             input_h=1, input_w=3)
        x = Tensor.from_array(np.array([[[1.0], [np.inf], [2.0]]], np.float32))
        w = Tensor.from_array(np.ones(spec.weight_dims, np.float32))
        layer = encode_fwcs(w, FilterletMask(spec, [[True, False], [True, True]]))
        with np.errstate(invalid="ignore"):
            got = conv_fwcs(x, layer, spec)
            want = conv_dense(x, decode_fwcs(layer, spec), spec)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[0, 0, 0]) and got[0, 1, 0] == np.inf


class TestConvFwcsReordered:
    def test_single_filterlet_degenerates(self):
        spec = ConvLayerSpec(n_filters=1, kernel_h=1, kernel_w=1, channels=4,
                             input_h=3, input_w=3)
        rng = np.random.default_rng(9)
        x = Tensor.from_array(rng.integers(-50, 50, spec.input_dims).astype(np.int8))
        w = Tensor.from_array(rng.integers(-50, 50, spec.weight_dims).astype(np.int8))
        layer = encode_fwcs(w, FilterletMask.all_kept(spec))
        assert np.array_equal(conv_fwcs(x, layer, spec), conv_dense(x, w, spec))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            dtype = "int8" if trial % 2 else "float32"
            spec, x, w = rand_instance(rng, dtype)
            mask = rand_mask(spec, rng)
            layer = encode_fwcs(w, mask)
            want = conv_dense(x, decode_fwcs(layer, spec), spec)
            assert np.array_equal(conv_fwcs_reordered(x, layer, spec), want)


class TestConvCsr:
    def test_all_kept_equals_dense(self):
        rng = np.random.default_rng(12)
        spec, x, w = rand_instance(rng, "int8")
        n, per = spec.n_filters, spec.filterlets_per_filter * spec.channels
        layer = encode_csr(w, np.ones((n, per), bool))
        assert np.array_equal(conv_csr(x, layer, spec), conv_dense(x, w, spec))

    def test_empty_is_zero(self):
        rng = np.random.default_rng(13)
        spec, x, w = rand_instance(rng, "int8")
        n, per = spec.n_filters, spec.filterlets_per_filter * spec.channels
        layer = encode_csr(w, np.zeros((n, per), bool))
        assert not conv_csr(x, layer, spec).any()

    def test_random_mask_matches_dense_oracle(self):
        rng = np.random.default_rng(14)
        for trial in range(20):
            dtype = "int8" if trial % 2 else "float32"
            spec, x, w = rand_instance(rng, dtype)
            n, per = spec.n_filters, spec.filterlets_per_filter * spec.channels
            wmask = rng.random((n, per)) < 0.7
            layer = encode_csr(w, wmask)
            dense_w = w.to_array().reshape(n, per).copy()
            dense_w[~wmask] = 0
            want = conv_dense(x, Tensor.from_array(
                dense_w.reshape(spec.weight_dims), dtype), spec)
            assert np.array_equal(conv_csr(x, layer, spec), want)


def einsum_conv(x, w, spec):
    """Independent int64 oracle: one einsum per kernel position over the
    strided input slab that position reads."""
    return slab_conv(x.to_array().astype(np.int64),
                     w.to_array().astype(np.int64), spec)


def slab_conv(xa, wa, spec):
    """``einsum_conv`` over plain arrays, in their common dtype."""
    s = spec.stride
    out = np.zeros((spec.out_h, spec.out_w, spec.n_filters),
                   np.result_type(xa, wa))
    for h in range(spec.kernel_h):
        for ww in range(spec.kernel_w):
            slab = xa[h:h + s * spec.out_h:s, ww:ww + s * spec.out_w:s]
            out += np.einsum("xyc,nc->xyn", slab, wa[:, h, ww])
    return out


class TestInt8Exactness:
    """K = 4096 int8 products per output with biases at the int32 limits.
    All -128 operands give the largest sums (2^26); random ones in
    [-128, -100] give sums above 2^25 whose low bits float32 would drop."""

    SPEC = ConvLayerSpec(n_filters=4, kernel_h=4, kernel_w=4, channels=256,
                         input_h=10, input_w=10, stride=2)

    def operands(self, seed=None):
        spec = self.SPEC
        if seed is None:
            x = np.full(spec.input_dims, -128, np.int8)
            w = np.full(spec.weight_dims, -128, np.int8)
        else:
            rng = np.random.default_rng(seed)
            x = rng.integers(-128, -99, spec.input_dims).astype(np.int8)
            w = rng.integers(-128, -99, spec.weight_dims).astype(np.int8)
        return spec, Tensor.from_array(x), Tensor.from_array(w)

    @pytest.mark.parametrize("seed", [None, 16])
    def test_every_operator_equals_einsum(self, seed):
        spec, x, w = self.operands(seed)
        assert spec.filterlets_per_filter * spec.channels >= 4096
        bias = np.array([2 ** 31 - 1, -2 ** 31, 2 ** 31 - 2 ** 26 - 1,
                         -2 ** 31 - 2 ** 26 - 1], np.int64)
        rng = np.random.default_rng(15)
        for mask in (FilterletMask.all_kept(spec), rand_mask(spec, rng, 0.6)):
            layer = encode_fwcs(w, mask)
            dense_w = decode_fwcs(layer, spec)
            want = einsum_conv(x, dense_w, spec) + bias
            for got in (conv_dense(x, dense_w, spec, bias),
                        conv_fwcs(x, layer, spec, bias),
                        conv_csr(x, encode_csr(w, mask.to_weight_mask()),
                                 spec, bias)):
                assert got.dtype == np.int64
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("bias, saturated", [
        # int32 biases: filter 0 sums to 2^26 before its bias, filter 1,
        # whose weights are 127, to -127 * 2^19
        ([2 ** 31 - 2 ** 26 - 1, -2 ** 31 + 127 * 2 ** 19, 0, 5], False),
        ([2 ** 31 - 2 ** 26, -2 ** 31 + 127 * 2 ** 19, 0, 5], True),
        ([2 ** 31 - 2 ** 26 - 1, -2 ** 31 + 127 * 2 ** 19 - 1, 0, 5], True),
    ])
    def test_run_bundle_saturation_flag(self, bias, saturated):
        spec, x, w = self.operands()
        w = w.to_array().copy()
        w[1] = 127
        w = Tensor.from_array(w)
        quant = LayerQuant(input_scale=1.0, weight_scale=1.0,
                           output_scale=2.0 ** 24)
        bias = np.array(bias, np.int64)
        model = SequentialModel("edge", [LayerDef("conv0", spec, w, bias, quant)])
        acc = einsum_conv(x, w, spec) + bias
        assert bool(np.any((acc < -2 ** 31) | (acc > 2 ** 31 - 1))) == saturated
        want = np.clip(np.rint(np.clip(acc, -2 ** 31, 2 ** 31 - 1) / 2 ** 24),
                       -128, 127).astype(np.int8)
        keep = [FilterletMask.all_kept(spec)]
        for bundle in (bundle_from_model(model),
                       bundle_from_masks(model, keep, "fwcs"),
                       bundle_from_masks(model, keep, "csr")):
            got = run_bundle(bundle, x)
            assert got.saturated is saturated
            assert np.array_equal(got.output.to_array(), want)


def every_operator(x, w, spec, mask, bias=None):
    """conv_dense on the masked weights, then conv_fwcs and conv_csr."""
    layer = encode_fwcs(w, mask)
    return (conv_dense(x, decode_fwcs(layer, spec), spec, bias),
            conv_fwcs(x, layer, spec, bias),
            conv_csr(x, encode_csr(w, mask.to_weight_mask()), spec, bias))


class TestFloat32Bound:
    """int8 layers with K <= 1024 run on a float32 GEMM, every other layer
    on a float64 one (ROADMAP item 13)."""

    def test_operand_dtype_switches_above_k_1024(self):
        at = ConvLayerSpec(n_filters=2, kernel_h=2, kernel_w=2, channels=256,
                           input_h=4, input_w=4)
        above = ConvLayerSpec(n_filters=2, kernel_h=1, kernel_w=1,
                              channels=1025, input_h=4, input_w=4)
        assert _operand_dtype("int8", at) is np.float32
        assert _operand_dtype("int8", above) is np.float64
        assert _operand_dtype("float32", at) is np.float64

    def test_k_1024_all_min_codes_sum_to_2_pow_24(self):
        spec = ConvLayerSpec(n_filters=3, kernel_h=2, kernel_w=2, channels=256,
                             input_h=5, input_w=4, stride=1)
        x = Tensor.from_array(np.full(spec.input_dims, -128, np.int8))
        w = Tensor.from_array(np.full(spec.weight_dims, -128, np.int8))
        bias = np.array([-1, 0, 1], np.int64)
        for got in every_operator(x, w, spec, FilterletMask.all_kept(spec), bias):
            assert got.dtype == np.int64
            assert np.array_equal(got, np.broadcast_to(2 ** 24 + bias, got.shape))

    def test_k_above_1024_stays_exact(self):
        # codes in [-128, -120] at K = 1152 put every sum above 2^24, where
        # float32 drops odd values; codes in [-128, -100] would not get there
        spec = ConvLayerSpec(n_filters=4, kernel_h=3, kernel_w=3, channels=128,
                             input_h=6, input_w=7, stride=1)
        rng = np.random.default_rng(17)
        x, w = (Tensor.from_array(rng.integers(-128, -119, dims).astype(np.int8))
                for dims in (spec.input_dims, spec.weight_dims))
        want = einsum_conv(x, w, spec)
        assert want.min() > 2 ** 24
        in_float32 = patch_matrix(x, spec).astype(np.float32) @ \
            w.to_array().reshape(spec.n_filters, -1).T.astype(np.float32)
        assert np.any(in_float32.reshape(want.shape) != want)
        for mask in (FilterletMask.all_kept(spec), rand_mask(spec, rng, 0.6)):
            dense_w = apply_mask_zeroing(w, mask)
            for got in every_operator(x, w, spec, mask):
                assert np.array_equal(got, einsum_conv(x, dense_w, spec))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_float32_layers_keep_the_float64_gemm(self, stride):
        spec = ConvLayerSpec(n_filters=6, kernel_h=3, kernel_w=3, channels=32,
                             input_h=10, input_w=9, stride=stride)
        rng = np.random.default_rng(stride)
        x = Tensor.from_array(rng.normal(size=spec.input_dims).astype(np.float32))
        w = Tensor.from_array(rng.normal(size=spec.weight_dims).astype(np.float32))
        mask = rand_mask(spec, rng, 0.7)
        bias = rng.normal(size=spec.n_filters).astype(np.float32)
        patches = patch_matrix(x, spec)
        operand = apply_mask_zeroing(w, mask).to_array().reshape(
            spec.n_filters, -1).T

        def gemm(dtype):
            acc = patches.astype(dtype) @ np.ascontiguousarray(operand, dtype)
            return (acc + bias).astype(np.float32).reshape(
                spec.out_h, spec.out_w, spec.n_filters)

        want = gemm(np.float64)
        assert not np.array_equal(gemm(np.float32), want)
        for got in every_operator(x, w, spec, mask, bias):
            assert got.dtype == np.float32
            assert np.array_equal(got, want)


def float_reference(x_codes, layer):
    """Dequantize, convolve and requantize one int8 layer in float64."""
    q = layer.quant
    xf = (x_codes.astype(np.float64) - q.input_zero_point) * q.input_scale
    wf = layer.weights.to_array().astype(np.float64) * q.weight_scale
    y = slab_conv(xf, wf, layer.spec) + layer.bias * q.input_scale * q.weight_scale
    return np.clip(np.rint(y / q.output_scale) + q.output_zero_point, -128, 127)


class TestInputZeroPoint:
    """run_bundle accumulates sum w*(x - z) for an input zero point z."""

    ZEROS = (10, -37, 25, 3)  # input zero point of each layer, then the output's

    def chain(self):
        rng = np.random.default_rng(21)
        geometry = [(6, 3, 3, 3, 10, 10), (5, 3, 3, 6, 8, 8), (4, 2, 2, 5, 6, 6)]
        layers = []
        for i, (n, kh, kw, c, ih, iw) in enumerate(geometry):
            spec = ConvLayerSpec(n_filters=n, kernel_h=kh, kernel_w=kw,
                                 channels=c, input_h=ih, input_w=iw)
            w = rng.integers(-128, 128, spec.weight_dims).astype(np.int8)
            bias = rng.integers(-3000, 3000, n).astype(np.int64)
            quant = LayerQuant(input_scale=0.05, weight_scale=0.02,
                               output_scale=0.7 * np.sqrt(c * kh * kw / 27),
                               input_zero_point=self.ZEROS[i],
                               output_zero_point=self.ZEROS[i + 1])
            layers.append(LayerDef(f"conv{i}", spec, Tensor.from_array(w),
                                   bias, quant))
        model = SequentialModel("zero-points", layers)
        masks = [rand_mask(layer.spec, rng, 0.7) for layer in layers]
        x = rng.integers(-128, 128, layers[0].spec.input_dims).astype(np.int8)
        return model, masks, x

    @pytest.mark.parametrize("fmt", ["dense", "fwcs", "csr"])
    def test_chain_matches_float_reference_layer_by_layer(self, fmt):
        model, masks, x = self.chain()
        pruned = [replace(layer, weights=apply_mask_zeroing(layer.weights, m))
                  for layer, m in zip(model.layers, masks)]
        bundle = bundle_from_model(SequentialModel(model.name, pruned)) \
            if fmt == "dense" else bundle_from_masks(model, masks, fmt)
        codes = x
        for i, layer in enumerate(pruned):
            prefix = ModelBundle(bundle.name, "model", bundle.layers[:i + 1])
            got = run_bundle(prefix, Tensor.from_array(x)).output.to_array()
            want = float_reference(codes, layer)
            assert np.abs(got - want).max() <= 1
            assert np.mean(np.abs(want) >= 127) < 0.2  # not mostly clipped
            # the accumulator without the zero point, sum w*x, is off by more
            ignored = replace(layer, quant=replace(layer.quant, input_zero_point=0))
            assert np.abs(float_reference(codes, ignored) - want).max() > 1
            codes = got

    # the random masks never empty a filter nor keep one whole, so the
    # edges are set on filter 0 or 1 of every layer
    @pytest.mark.parametrize("edge", [None, (0, False), (1, True)],
                             ids=["random", "emptied", "whole"])
    def test_packed_bundles_equal_the_dense_bundle(self, edge):
        model, masks, x = self.chain()
        if edge is not None:
            filt, keep = edge
            edged = []
            for m in masks:
                kept = m.kept.copy()
                kept[filt] = keep
                edged.append(FilterletMask(m.spec, kept))
            masks = edged
        pruned = SequentialModel(model.name, [
            replace(layer, weights=apply_mask_zeroing(layer.weights, m))
            for layer, m in zip(model.layers, masks)])
        x = Tensor.from_array(x)
        want = run_bundle(bundle_from_model(pruned), x).output
        for fmt in ("fwcs", "csr"):
            got = run_bundle(bundle_from_masks(model, masks, fmt), x).output
            assert got.dims == want.dims
            assert np.array_equal(got.data, want.data)


class TestSaturationBound:
    """The saturation scan runs only where K*2^14 + max|bias| can exceed
    int32; all -128 inputs and weights reach K*2^14 at every position."""

    @settings(derandomize=True, deadline=None, max_examples=80, database=None)
    @given(kh=st.integers(1, 3), kw=st.integers(1, 3), c=st.integers(1, 4),
           zero_in=st.integers(-128, 127).filter(bool),
           zero_out=st.integers(-128, 127).filter(bool),
           above=st.lists(st.booleans(), min_size=1, max_size=3))
    def test_saturated_flag_and_codes_match_a_range_check(
            self, kh, kw, c, zero_in, zero_out, above):
        n, k = len(above), kh * kw * c
        spec = ConvLayerSpec(n_filters=n, kernel_h=kh, kernel_w=kw,
                             channels=c, input_h=kh + 1, input_w=kw)
        limit = _INT32_MAX - k * 2 ** 14
        # the bias added is the stored bias minus zero_in * (sum w) =
        # stored + 128 * zero_in * k
        added = np.array([limit + 1 if a else limit - 127 for a in above])
        quant = LayerQuant(input_scale=131.0, weight_scale=1.0,
                           output_scale=2.0 ** 32, input_zero_point=zero_in,
                           output_zero_point=zero_out)
        layer = LayerDef("c0", spec,
                         Tensor.from_array(np.full(spec.weight_dims, -128, np.int8)),
                         added - 128 * zero_in * k, quant)
        model = SequentialModel("sat", [layer])
        if layer.bias.max() > _INT32_MAX:
            # at zero_in -128 every input minus its zero point is 0, so the
            # accumulator is the stored bias: past int32 only where the
            # bias is, and such a bias is refused when packed
            with pytest.raises(DataError, match="layer c0"):
                bundle_from_model(model)
            return
        x = Tensor.from_array(np.full(spec.input_dims, -128, np.int8))
        got = run_bundle(bundle_from_model(model), x)
        acc = np.broadcast_to(k * 2 ** 14 + added,
                              (spec.out_h, spec.out_w, n)).astype(np.int64)
        assert got.saturated == bool(((acc < _INT32_MIN) |
                                      (acc > _INT32_MAX)).any())
        # a code of 131 / 2^32 * 2^31 = 65.5 rounds to 66 but the clipped
        # accumulator gives 65, so a missed clip changes the codes
        mult = quant.input_scale * quant.weight_scale / quant.output_scale
        want = np.clip(np.rint(np.clip(acc, _INT32_MIN, _INT32_MAX) * mult)
                       + zero_out, -128, 127)
        assert np.array_equal(got.output.to_array(), want)

    def test_a_bias_of_int64_min_does_not_wrap_the_bound(self):
        quant = LayerQuant(input_scale=1.0, weight_scale=1.0, output_scale=1.0)
        bias = np.array([-2 ** 63], np.int64)
        acc = np.full((1, 1, 1), -2 ** 63 + 2 ** 14, np.int64)
        codes, saturated = _requantize(acc, quant, 1, bias)
        assert saturated and codes.item() == -128


class TestLaneConfig:
    def test_rejects_bad_lane_count(self):
        with pytest.raises(ConfigError):
            MachineConfig(lanes=3)

    def test_dtype_mismatch_raises(self):
        spec = ConvLayerSpec(n_filters=1, kernel_h=1, kernel_w=1, channels=1,
                             input_h=2, input_w=2)
        x = Tensor.from_array(np.zeros(spec.input_dims))
        w = Tensor.from_array(np.zeros(spec.weight_dims, np.int8))
        with pytest.raises(DataError):
            conv_dense(x, w, spec)

    @pytest.mark.parametrize("bad", ["filters", "bias"])
    def test_shape_mismatch_raises(self, bad):
        spec = ConvLayerSpec(n_filters=2, kernel_h=1, kernel_w=1, channels=1,
                             input_h=2, input_w=2)
        x = Tensor.from_array(np.zeros(spec.input_dims, np.float32))
        w = Tensor.from_array(np.zeros(spec.weight_dims, np.float32))
        bias = np.zeros(spec.n_filters)
        if bad == "filters":
            w = Tensor.from_array(np.zeros((3, 1, 1, 1), np.float32))
        else:
            bias = np.zeros(spec.n_filters + 1)
        with pytest.raises(DataError, match=bad[:4]):
            conv_dense(x, w, spec, bias)
