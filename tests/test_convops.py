import numpy as np
import pytest

from filterlet.convops import conv_csr, conv_dense, conv_fwcs, \
    conv_fwcs_reordered, conv_structured
from filterlet.cyclesim import MachineConfig
from filterlet.errors import ConfigError, DataError, EmptyOutputError
from filterlet.fwcs import FilterletMask, decode_fwcs, encode_csr, encode_fwcs
from filterlet.tensor import ConvLayerSpec, Tensor


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


def assert_matches(got, want, dtype):
    if dtype == "int8":
        assert np.array_equal(got, want)
    else:
        denom = np.maximum(np.abs(want), 1e-6)
        assert np.max(np.abs(got - want) / denom) <= 1e-5


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
        out = conv_dense(x, Tensor.zeros(spec.weight_dims), spec)
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
            assert_matches(conv_fwcs(x, layer, spec), want, dtype)

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
            assert_matches(conv_fwcs(x, layer, spec), want, dtype)


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
            assert_matches(conv_fwcs_reordered(x, layer, spec), want, dtype)


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
            assert_matches(conv_csr(x, layer, spec), want, dtype)


class TestConvStructured:
    def test_all_kept_equals_dense(self):
        rng = np.random.default_rng(15)
        spec, x, w = rand_instance(rng, "float32")
        out = conv_structured(x, w, np.ones(spec.n_filters, bool), spec)
        assert np.allclose(out, conv_dense(x, w, spec))

    def test_single_filter_is_that_channel(self):
        rng = np.random.default_rng(16)
        spec, x, w = rand_instance(rng, "float32", max_n=6)
        kept = np.zeros(spec.n_filters, bool)
        kept[0] = True
        out = conv_structured(x, w, kept, spec)
        assert out.shape[-1] == 1
        assert np.allclose(out[:, :, 0], conv_dense(x, w, spec)[:, :, 0])

    def test_half_kept_is_channel_subset(self):
        rng = np.random.default_rng(17)
        spec = ConvLayerSpec(n_filters=6, kernel_h=2, kernel_w=2, channels=3,
                             input_h=5, input_w=5)
        x = Tensor.from_array(rng.normal(size=spec.input_dims).astype(np.float32))
        w = Tensor.from_array(rng.normal(size=spec.weight_dims).astype(np.float32))
        kept = np.array([True, False, True, False, True, False])
        out = conv_structured(x, w, kept, spec)
        dense = conv_dense(x, w, spec)
        assert np.allclose(out, dense[:, :, kept])

    def test_all_pruned_is_an_error(self):
        rng = np.random.default_rng(18)
        spec, x, w = rand_instance(rng, "float32")
        with pytest.raises(EmptyOutputError):
            conv_structured(x, w, np.zeros(spec.n_filters, bool), spec)


class TestLaneConfig:
    def test_rejects_bad_lane_count(self):
        with pytest.raises(ConfigError):
            MachineConfig(lanes=3)

    def test_dtype_mismatch_raises(self):
        spec = ConvLayerSpec(n_filters=1, kernel_h=1, kernel_w=1, channels=1,
                             input_h=2, input_w=2)
        x = Tensor.zeros(spec.input_dims, "float32")
        w = Tensor.zeros(spec.weight_dims, "int8")
        with pytest.raises(DataError):
            conv_dense(x, w, spec)
