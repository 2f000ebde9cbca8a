import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterlet.errors import BoundsError, CorruptionError, DataError
from filterlet.tensor import ConvLayerSpec, QuantParams, Tensor, \
    dequantize, extract_patch, flat_index, patch_matrix, quantize, \
    read_tensor, write_tensor


def spec_for(kh, kw, c, n=1, ih=None, iw=None, stride=1):
    return ConvLayerSpec(n_filters=n, kernel_h=kh, kernel_w=kw, channels=c,
                         input_h=ih or kh, input_w=iw or kw, stride=stride)


# extents whose product is 2**64 + 4
WRAPS_TO_4 = (3340214413, 2761311370, 2)
TENSOR_HEAD = b"DTTN" + bytes([1])  # magic and the int8 tag
FUZZ_BLOBS = [write_tensor(Tensor.from_array(np.arange(24, dtype=np.int8)
                                             .reshape(2, 3, 4))),
              write_tensor(Tensor.from_array(np.ones((5, 3), np.float32)))]


class TestFlatIndex:
    def test_origin(self):
        assert flat_index(spec_for(3, 3, 3), 0, 0, 0) == 0

    def test_second_row_start_of_3x3x3_kernel(self):
        # first weight of the filterlet at kernel position (1, 0) lands at 9
        assert flat_index(spec_for(3, 3, 3), 1, 0, 0) == 9

    def test_bijection_2x2x4(self):
        spec = spec_for(2, 2, 4)
        seen = set()
        for h in range(2):
            for w in range(2):
                for c in range(4):
                    seen.add(flat_index(spec, h, w, c))
        assert seen == set(range(16))
        assert flat_index(spec, 1, 1, 3) == 15

    def test_out_of_range(self):
        spec = spec_for(2, 2, 4)
        with pytest.raises(BoundsError):
            flat_index(spec, 2, 0, 0)
        with pytest.raises(BoundsError):
            flat_index(spec, 0, 0, 4)


class TestTensor:
    def test_channel_major_layout(self):
        arr = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        t = Tensor.from_array(arr)
        for h in range(2):
            for w in range(3):
                for c in range(4):
                    assert t.data[(h * 3 + w) * 4 + c] == arr[h, w, c]

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            Tensor((2, 2), "float32", np.zeros(5))

    def test_immutable(self):
        t = Tensor.from_array(np.zeros((2, 2), np.int8))
        with pytest.raises(ValueError):
            t.data[0] = 1

    def test_data_is_a_private_read_only_copy(self):
        raw = np.arange(-4, 4, dtype=np.int8).tobytes()
        for buf in (raw, bytearray(raw), memoryview(bytearray(raw))):
            src = np.frombuffer(buf, np.int8)
            t = Tensor((2, 4), "int8", src)
            assert not t.data.flags.writeable
            assert not np.shares_memory(t.data, src)

    def test_blob_round_trip(self):
        rng = np.random.default_rng(0)
        for dtype, gen in (("float32", lambda s: rng.normal(size=s).astype(np.float32)),
                           ("int8", lambda s: rng.integers(-128, 128, s).astype(np.int8))):
            t = Tensor.from_array(gen((3, 4, 5)), dtype)
            back, off = read_tensor(write_tensor(t))
            assert off == len(write_tensor(t))
            assert back.dims == t.dims and back.dtype == dtype
            assert np.array_equal(back.data, t.data)

    def test_blob_corruption(self):
        blob = write_tensor(Tensor.from_array(np.zeros((2, 2), np.int8)))
        with pytest.raises(CorruptionError):
            read_tensor(b"XXXX" + blob[4:])
        with pytest.raises(CorruptionError):
            read_tensor(blob[:-1])
        with pytest.raises(CorruptionError):
            read_tensor(b"")

    def test_extents_are_exact(self):
        # int64 products of these extents wrap to 0 and to 4
        with pytest.raises(DataError):
            Tensor((2**32, 2**32), "int8", [])
        with pytest.raises(DataError):
            Tensor(WRAPS_TO_4, "int8", np.arange(4))

    def test_blob_with_huge_extents_is_truncated(self):
        for dims in ((2**16,) * 4, WRAPS_TO_4):
            blob = TENSOR_HEAD + struct.pack(f"<B{len(dims)}I", len(dims), *dims)
            with pytest.raises(CorruptionError, match="truncated"):
                read_tensor(blob + bytes(4))

    @settings(derandomize=True, deadline=None, max_examples=400, database=None)
    @given(blob=st.sampled_from(FUZZ_BLOBS), data=st.data(),
           field=st.sampled_from(("header", "rank", "dims", "cut", "extend")))
    def test_mutated_blob_parses_or_is_corruption(self, blob, data, field):
        raw = bytearray(blob)
        if field == "header":  # magic and dtype tag
            raw[data.draw(st.integers(0, 4))] ^= data.draw(st.integers(1, 255))
        elif field == "rank":
            raw[5] = data.draw(st.integers(0, 255))
        elif field == "dims":
            k = data.draw(st.integers(0, raw[5] - 1))
            struct.pack_into("<I", raw, 6 + 4 * k,
                             data.draw(st.integers(0, 2**32 - 1)))
        elif field == "cut":
            del raw[data.draw(st.integers(0, len(raw) - 1)):]
        else:
            raw += data.draw(st.binary(min_size=1, max_size=16))
        try:
            read_tensor(bytes(raw))
        except CorruptionError:
            pass


class TestSpec:
    def test_output_geometry(self):
        spec = ConvLayerSpec(n_filters=2, kernel_h=3, kernel_w=2, channels=1,
                             input_h=7, input_w=8, stride=2)
        assert spec.out_h == (7 - 3) // 2 + 1 == 3
        assert spec.out_w == (8 - 2) // 2 + 1 == 4
        assert spec.weight_count == 2 * 3 * 2 * 1
        assert spec.filterlets_per_filter == 6
        assert spec.filterlet_length == 1

    def test_kernel_must_fit(self):
        with pytest.raises(DataError):
            ConvLayerSpec(n_filters=1, kernel_h=4, kernel_w=1, channels=1,
                          input_h=3, input_w=3)

    def test_numpy_integers_become_python_ints(self):
        spec = ConvLayerSpec(n_filters=np.int64(2), kernel_h=np.int32(3),
                             kernel_w=2, channels=np.uint8(1), input_h=7,
                             input_w=8, stride=np.int16(2))
        assert spec == spec_for(3, 2, 1, n=2, ih=7, iw=8, stride=2)
        assert all(type(v) is int for v in (spec.n_filters, spec.kernel_h,
                                             spec.channels, spec.stride))

    @pytest.mark.parametrize("field, value", [
        ("n_filters", 4.0), ("stride", 1.0), ("channels", True),
        ("input_h", "8"), ("kernel_w", None), ("n_filters", 0),
        ("stride", -1), ("kernel_h", np.float64(3.0)),
    ])
    def test_rejects_fields_that_are_not_positive_integers(self, field, value):
        fields = {"n_filters": 4, "kernel_h": 3, "kernel_w": 3, "channels": 2,
                  "input_h": 8, "input_w": 8, "stride": 1, field: value}
        with pytest.raises(DataError):
            ConvLayerSpec(**fields)


class TestQuantize:
    def test_zero_maps_to_zero_point(self):
        t = Tensor.from_array(np.zeros((1, 1, 1), np.float32))
        assert quantize(t, QuantParams(1.0, 0)).data[0] == 0
        assert quantize(t, QuantParams(1.0, 5)).data[0] == 5

    def test_saturation(self):
        t = Tensor.from_array(np.array([[[1.27, 10.0, -10.0]]], np.float32))
        q = quantize(t, QuantParams(0.01, 0))
        assert list(q.data) == [127, 127, -128]

    def test_round_trip_error_bound(self):
        rng = np.random.default_rng(1)
        scale = 1.0 / 127.0
        x = rng.uniform(-1, 1, 1000).astype(np.float32)
        t = Tensor.from_array(x.reshape(10, 10, 10))
        back = dequantize(quantize(t, QuantParams(scale, 0)), QuantParams(scale, 0))
        err = np.max(np.abs(back.data - t.data))
        assert err <= scale / 2 + 1e-7

    def test_idempotent_on_grid(self):
        scale = 0.5
        grid = np.arange(-64, 64, dtype=np.float32).reshape(8, 16) * scale
        t = Tensor.from_array(grid)
        q = QuantParams(scale, 0)
        once = quantize(t, q)
        twice = quantize(dequantize(once, q), q)
        assert np.array_equal(once.data, twice.data)

    def test_non_finite_rejected(self):
        t = Tensor.from_array(np.array([np.nan], np.float32).reshape(1, 1, 1))
        with pytest.raises(DataError):
            quantize(t, QuantParams(1.0, 0))

    def test_params_accept_numpy_numbers(self):
        q = QuantParams(np.float32(0.5), np.int8(-128))
        assert q.zero_point == -128

    @pytest.mark.parametrize("scale, zero_point", [
        ("0.1", 0), (0.0, 0), (float("nan"), 0), (True, 0),
        (0.1, 500), (0.1, -129), (0.1, "a"), (0.1, 1.0), (0.1, True),
    ])
    def test_params_rejected(self, scale, zero_point):
        with pytest.raises(DataError):
            QuantParams(scale, zero_point)


class TestExtractPatch:
    def test_1x1_kernel_is_identity(self):
        spec = spec_for(1, 1, 3, ih=4, iw=4)
        rng = np.random.default_rng(2)
        x = Tensor.from_array(rng.normal(size=(4, 4, 3)).astype(np.float32))
        patch = extract_patch(x, spec, 2, 3)
        assert np.array_equal(patch, x.to_array()[2, 3, :])

    def test_matches_coordinate_lookup(self):
        # ramp input so every value is unique; brute-force the coordinates
        spec = spec_for(3, 3, 2, ih=4, iw=4)
        arr = np.arange(4 * 4 * 2, dtype=np.float32).reshape(4, 4, 2)
        x = Tensor.from_array(arr)
        patch = extract_patch(x, spec, 0, 0)
        assert patch.shape == (18,)
        for h in range(3):
            for w in range(3):
                for c in range(2):
                    assert patch[flat_index(spec, h, w, c)] == arr[h, w, c]

    def test_stride_moves_origin(self):
        spec = spec_for(2, 2, 1, ih=6, iw=6, stride=2)
        arr = np.arange(36, dtype=np.float32).reshape(6, 6, 1)
        x = Tensor.from_array(arr)
        patch = extract_patch(x, spec, 1, 1)
        assert patch[0] == arr[2, 2, 0]

    def test_out_of_range_position(self):
        spec = spec_for(2, 2, 1, ih=4, iw=4)
        x = Tensor.from_array(np.zeros((4, 4, 1)))
        with pytest.raises(BoundsError):
            extract_patch(x, spec, 3, 0)

    def test_patch_matrix_covers_all_receptive_fields(self):
        cases = [  # kh, kw, c, ih, iw, stride, plain ndarray input
            (2, 3, 2, 5, 6, 2, False),
            (1, 1, 3, 4, 5, 1, False),  # 1x1 kernel
            (3, 4, 2, 3, 4, 1, False),  # kernel equal to the input
            (2, 2, 3, 7, 7, 2, False),  # stride 2, last row and column unused
            (2, 3, 2, 5, 6, 1, True),   # float64 array, as forward_float64
        ]
        rng = np.random.default_rng(3)
        for kh, kw, c, ih, iw, stride, plain in cases:
            spec = spec_for(kh, kw, c, ih=ih, iw=iw, stride=stride)
            x = Tensor.from_array(rng.normal(size=(ih, iw, c)).astype(np.float32))
            src = x.to_array().astype(np.float64) if plain else x
            mat = patch_matrix(src, spec)
            assert mat.shape == (spec.out_positions, kh * kw * c)
            assert mat.dtype == (np.float64 if plain else np.float32)
            assert mat.flags.writeable
            assert not np.shares_memory(mat, src if plain else x.data)
            row = 0
            for oh in range(spec.out_h):
                for ow in range(spec.out_w):
                    assert np.array_equal(mat[row], extract_patch(x, spec, oh, ow))
                    row += 1

    @pytest.mark.parametrize("view, kh, kw, stride", [
        (lambda big: big[::2, 1:], 2, 3, 1),
        (lambda big: big[::2, 1:], 3, 2, 2),
        (lambda big: big[::-1], 2, 2, 1),
        (lambda big: big[:, ::-2, ::-1], 3, 2, 2),
        (lambda big: big[1:, :, ::2], 1, 1, 1),
    ], ids=["rows-by-2", "rows-by-2-stride-2", "rows-reversed",
            "columns-and-channels-reversed", "every-other-channel-1x1"])
    def test_patch_matrix_on_strided_views(self, view, kh, kw, stride):
        big = np.random.default_rng(5).normal(size=(12, 9, 4))
        src = view(big)
        assert not src.flags.c_contiguous
        spec = spec_for(kh, kw, src.shape[2], ih=src.shape[0], iw=src.shape[1],
                        stride=stride)
        mat = patch_matrix(src, spec)
        assert mat.flags.writeable
        assert not np.shares_memory(mat, big)
        x = Tensor.from_array(np.ascontiguousarray(src, np.float32))
        assert mat.shape == (spec.out_positions, kh * kw * spec.channels)
        for row, (oh, ow) in enumerate(np.ndindex(spec.out_h, spec.out_w)):
            assert np.array_equal(mat[row].astype(np.float32),
                                  extract_patch(x, spec, oh, ow))
