import numpy as np
import pytest

from filterlet.bundle import BundleLayer
from filterlet.errors import CorruptionError, DataError, FormatError
from filterlet.fwcs import CSR_FRAMING_BYTES, FWCS_FRAMING_BYTES, \
    CsrLayer, FilterletMask, FwcsLayer, decode_csr, decode_fwcs, encode_csr, \
    encode_fwcs, kept_count, read_csr, read_fwcs, storage_footprint, \
    write_csr, write_fwcs
from filterlet.model import LayerQuant
from filterlet.tensor import ConvLayerSpec, Tensor


def make_spec(n=3, kh=3, kw=3, c=3):
    return ConvLayerSpec(n_filters=n, kernel_h=kh, kernel_w=kw, channels=c,
                         input_h=kh, input_w=kw)


def random_weights(spec, rng, dtype="float32"):
    if dtype == "int8":
        arr = rng.integers(-128, 128, spec.weight_dims).astype(np.int8)
    else:
        arr = rng.normal(size=spec.weight_dims).astype(np.float32)
    return Tensor.from_array(arr, dtype)


def zero_pruned_oracle(weights, mask):
    """Independent dense oracle: zero every pruned filterlet by plain loops."""
    spec = mask.spec
    w = weights.to_array().copy()
    for n in range(spec.n_filters):
        for p in range(spec.filterlets_per_filter):
            if not mask.kept[n, p]:
                h, w_ = divmod(p, spec.kernel_w)
                w[n, h, w_, :] = 0
    return w


class TestKeptCount:
    def test_endpoints(self):
        assert kept_count(9, 0.0) == 9
        assert kept_count(9, 1.0) == 0

    def test_round_half_up(self):
        assert kept_count(3, 0.5) == 2  # (1-0.5)*3 = 1.5 rounds up
        assert kept_count(144, 0.5) == 72

    def test_bad_alpha(self):
        with pytest.raises(DataError):
            kept_count(4, 1.5)


class TestEncodeFwcs:
    def test_three_filter_layout(self):
        # 3 filters, 3x3 kernel, 3 channels; filter 0 keeps kernel positions
        # {0, 3}, filter 1 keeps {2, 5}, filter 2 keeps {4}
        spec = make_spec(n=3, kh=3, kw=3, c=3)
        rng = np.random.default_rng(0)
        w = random_weights(spec, rng)
        kept = np.zeros((3, 9), bool)
        kept[0, [0, 3]] = True
        kept[1, [2, 5]] = True
        kept[2, 4] = True
        layer = encode_fwcs(w, FilterletMask(spec, kept))
        assert layer.size == 3
        assert list(layer.c_ptr) == [0, 9, 6, 15, 12]
        assert list(layer.f_idx) == [0, 2, 4, 5]
        # second retained run of filter 0 starts at flat offset 9
        assert layer.c_ptr[1] == 9
        # filter 1's first retained filterlet sits at c_ptr[2] = 6
        assert layer.f_idx[1] == 2 and layer.c_ptr[2] == 6
        dense = decode_fwcs(layer, spec).to_array()
        assert np.array_equal(dense[0].reshape(-1)[9:12], w.to_array()[0, 1, 0, :])

    def test_all_kept_is_dense_order(self):
        spec = make_spec(n=2, kh=2, kw=2, c=4)
        rng = np.random.default_rng(1)
        w = random_weights(spec, rng)
        layer = encode_fwcs(w, FilterletMask.all_kept(spec))
        assert np.array_equal(layer.arr, w.data)
        assert list(layer.c_ptr) == [0, 4, 8, 12] * 2
        assert list(layer.f_idx) == [0, 4, 8]

    def test_none_kept(self):
        spec = make_spec()
        w = random_weights(spec, np.random.default_rng(2))
        layer = encode_fwcs(w, FilterletMask.none_kept(spec))
        assert layer.arr.size == 0
        assert list(layer.f_idx) == [0, 0, 0, 0]

    def test_round_trip_random_masks(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            spec = make_spec(n=int(rng.integers(1, 5)),
                             kh=int(rng.integers(1, 4)),
                             kw=int(rng.integers(1, 4)),
                             c=int(rng.integers(1, 6)))
            dtype = "int8" if trial % 2 else "float32"
            w = random_weights(spec, rng, dtype)
            kept = rng.random((spec.n_filters, spec.filterlets_per_filter)) < rng.random()
            mask = FilterletMask(spec, kept)
            dense = decode_fwcs(encode_fwcs(w, mask), spec)
            assert np.array_equal(dense.to_array(), zero_pruned_oracle(w, mask))

    def test_shape_mismatch(self):
        spec = make_spec()
        other = make_spec(c=4)
        w = random_weights(other, np.random.default_rng(4))
        with pytest.raises(FormatError):
            encode_fwcs(w, FilterletMask.all_kept(spec))

    def test_decode_rejects_corrupt_cptr(self):
        spec = make_spec(n=1, kh=2, kw=2, c=2)
        good = encode_fwcs(random_weights(spec, np.random.default_rng(5)),
                           FilterletMask.all_kept(spec))
        bad = FwcsLayer(good.arr, good.size, np.array([0, 3, 4, 6]),
                        good.f_idx, good.dtype)  # 3 is not a multiple of size
        with pytest.raises(CorruptionError):
            decode_fwcs(bad, spec)
        bad2 = FwcsLayer(good.arr, good.size, np.array([0, 2, 4, 8]),
                         good.f_idx, good.dtype)  # 8+2 overruns the filter
        with pytest.raises(CorruptionError):
            decode_fwcs(bad2, spec)


class TestEncodeCsr:
    def test_all_kept_indexes_run_dense(self):
        spec = make_spec(n=2, kh=2, kw=2, c=2)
        w = random_weights(spec, np.random.default_rng(6))
        mask = np.ones((2, 8), bool)
        layer = encode_csr(w, mask)
        assert list(layer.c_ptr) == list(range(8)) * 2
        assert np.array_equal(layer.arr, w.data)

    def test_filterlet_mask_gives_c_times_fewer_indexes(self):
        rng = np.random.default_rng(7)
        for c in (2, 3, 4, 8):
            spec = make_spec(n=3, kh=3, kw=3, c=c)
            w = random_weights(spec, rng)
            kept = rng.random((3, 9)) < 0.5
            mask = FilterletMask(spec, kept)
            fw = encode_fwcs(w, mask)
            cs = encode_csr(w, mask.to_weight_mask())
            assert len(cs.c_ptr) == c * len(fw.c_ptr)

    def test_round_trip_random_weight_mask(self):
        rng = np.random.default_rng(8)
        for trial in range(100):
            spec = make_spec(n=int(rng.integers(1, 5)),
                             kh=int(rng.integers(1, 4)),
                             kw=int(rng.integers(1, 4)),
                             c=int(rng.integers(1, 6)))
            dtype = "int8" if trial % 2 else "float32"
            w = random_weights(spec, rng, dtype)
            per_filter = spec.filterlets_per_filter * spec.channels
            mask = rng.random((spec.n_filters, per_filter)) < rng.random()
            if trial % 3 == 0:
                mask[[0, -1]] = False
            layer = encode_csr(w, mask)
            assert layer.arr.dtype == w.data.dtype
            dense = decode_csr(layer, spec)
            assert dense.dtype == dtype
            expect = w.to_array().reshape(spec.n_filters, per_filter).copy()
            expect[~mask] = 0
            assert np.array_equal(
                dense.to_array().reshape(spec.n_filters, per_filter), expect)

    def test_rejects_decreasing_f_idx(self):
        # filter 1 would span [3, 1) and filter 2 [1, 4): six weights from four
        spec = make_spec(n=3, kh=1, kw=1, c=4)
        blob = write_csr(CsrLayer(np.array([1, 2, 3, 4], np.int8),
                                  np.array([0, 1, 2, 3]),
                                  np.array([0, 3, 1, 4]), "int8"))
        layer, _ = read_csr(blob, 0, "int8")
        with pytest.raises(CorruptionError):
            layer.validate(spec)
        with pytest.raises(CorruptionError):
            decode_csr(layer, spec)


def layer_from_rows(fmt, spec, rows):
    """int8 FWCS or CSR layer whose filter n keeps the entries ``rows[n]``,
    counted in the format's c_ptr width: a filterlet for FWCS, a weight for
    CSR.  Every kept weight is 1."""
    f_idx = np.cumsum([0] + [len(r) for r in rows])
    entries = np.array([e for r in rows for e in r], np.int64)
    if fmt == "fwcs":
        c = spec.channels
        return FwcsLayer(np.ones(len(entries) * c, np.int8), c, entries * c,
                         f_idx, "int8")
    return CsrLayer(np.ones(len(entries), np.int8), entries, f_idx, "int8")


class TestCPtrCheck:
    """The c_ptr rules FWCS and CSR share, through ``validate`` and through a
    bundle layer's ``decode_weights``; 4 filters of 4 filterlets of 2."""

    SPEC = make_spec(n=4, kh=2, kw=2, c=2)
    VALID = {
        "empty first filter": [[], [0, 2], [1], [3]],
        "empty last filter": [[0], [1, 3], [2], []],
        "empty filters between": [[1], [], [], [0, 3]],
        "all filters empty": [[], [], [], []],
        "next filter starts lower": [[2, 3], [0, 1], [1], [0]],
        "lower start after an empty first filter": [[], [3], [0], [1, 2]],
    }
    INVALID = {
        "drop within a filter": [[0], [3, 1], [], [2]],
        "drop after an empty first filter": [[], [3, 1], [], []],
        "repeated entry": [[0], [1, 1], [], [2]],
        "repeated entry in the last filter": [[0], [], [], [2, 2]],
    }

    @staticmethod
    def decode(fmt, layer):
        block = write_fwcs(layer) if fmt == "fwcs" else write_csr(layer)
        quant = LayerQuant(input_scale=0.05, weight_scale=0.02, output_scale=0.4)
        return BundleLayer("conv0", fmt, TestCPtrCheck.SPEC, "int8", False,
                           quant, block).decode_weights()

    @pytest.mark.parametrize("fmt", ["fwcs", "csr"])
    @pytest.mark.parametrize("case", sorted(VALID))
    def test_valid(self, fmt, case):
        rows = self.VALID[case]
        layer = layer_from_rows(fmt, self.SPEC, rows)
        layer.validate(self.SPEC)
        stored, _ = self.decode(fmt, layer)
        assert np.array_equal(stored.c_ptr, layer.c_ptr)
        decode = decode_fwcs if fmt == "fwcs" else decode_csr
        width = self.SPEC.channels if fmt == "fwcs" else 1
        want = np.zeros((4, 8), np.int8)
        for n, row in enumerate(rows):
            for e in row:
                want[n, e * width:(e + 1) * width] = 1
        assert np.array_equal(
            decode(stored, self.SPEC).to_array().reshape(4, 8), want)

    @pytest.mark.parametrize("fmt", ["fwcs", "csr"])
    @pytest.mark.parametrize("case", sorted(INVALID) + ["entry past the end"])
    def test_invalid(self, fmt, case):
        # the last filterlet (FWCS) or weight (CSR) of a filter is entry 3 or 7
        top = 4 if fmt == "fwcs" else 8
        rows = self.INVALID.get(case, [[0], [top], [], []])
        layer = layer_from_rows(fmt, self.SPEC, rows)
        with pytest.raises(CorruptionError):
            layer.validate(self.SPEC)
        with pytest.raises(CorruptionError):
            self.decode(fmt, layer)

    @pytest.mark.parametrize("fmt", ["fwcs", "csr"])
    def test_accepted_layer_is_still_checked_for_other_specs(self, fmt):
        layer = layer_from_rows(fmt, self.SPEC, self.VALID["empty last filter"])
        layer.validate(self.SPEC)
        layer.validate(self.SPEC)
        # one filter fewer; three channels, which no FWCS run of 2 fits and
        # whose three weights per filter end before CSR entry 3
        for spec in (make_spec(n=3, kh=2, kw=2, c=2),
                     make_spec(n=4, kh=1, kw=1, c=3)):
            with pytest.raises(CorruptionError):
                layer.validate(spec)
        layer.validate(self.SPEC)


class TestLayerArrays:
    def test_constructor_leaves_the_callers_array_alone(self):
        arr = np.ones(8, np.int8)
        for layer in (FwcsLayer(arr, 2, np.arange(0, 8, 2), np.array([0, 4]),
                                "int8"),
                      CsrLayer(arr, np.arange(8), np.array([0, 8]), "int8")):
            assert arr.flags.writeable
            arr[0] = 5
            assert layer.arr[0] == 1
            assert not layer.arr.flags.writeable
            arr[0] = 1


class TestFootprint:
    def setup_method(self):
        self.spec = ConvLayerSpec(n_filters=16, kernel_h=3, kernel_w=3,
                                  channels=8, input_h=3, input_w=3)
        rng = np.random.default_rng(9)
        self.w = random_weights(self.spec, rng, "int8")
        kept = np.zeros((16, 9), bool)
        kept.reshape(-1)[:72] = True  # half of the 144 filterlets
        self.mask = FilterletMask(self.spec, kept)

    def test_dense(self):
        assert storage_footprint(self.spec, m=8) == 1152
        assert storage_footprint(self.w, m=8) == 1152

    def test_fwcs_half_pruned(self):
        layer = encode_fwcs(self.w, self.mask)
        # 576 weight bytes + 72 u16 c_ptr + 17 u16 f_idx + u16 size
        assert storage_footprint(layer, m=8, m0=16) == 576 + 144 + 34 + 2 == 756

    def test_csr_half_pruned_exceeds_dense(self):
        layer = encode_csr(self.w, self.mask.to_weight_mask())
        total = storage_footprint(layer, m=8, m0=16)
        assert total == 576 + 1152 + 34 == 1762
        assert total > storage_footprint(self.spec, m=8)

    def test_footprint_equals_serialized_payload(self):
        rng = np.random.default_rng(10)
        for dtype, m in (("int8", 8), ("float32", 32)):
            w = random_weights(self.spec, rng, dtype)
            fw = encode_fwcs(w, self.mask)
            cs = encode_csr(w, self.mask.to_weight_mask())
            assert len(write_fwcs(fw)) - FWCS_FRAMING_BYTES == \
                storage_footprint(fw, m=m, m0=16)
            assert len(write_csr(cs)) - CSR_FRAMING_BYTES == \
                storage_footprint(cs, m=m, m0=16)


class TestSerialization:
    def test_fwcs_round_trip(self):
        rng = np.random.default_rng(11)
        for dtype in ("int8", "float32"):
            spec = make_spec(n=4, kh=2, kw=3, c=5)
            w = random_weights(spec, rng, dtype)
            kept = rng.random((4, 6)) < 0.6
            layer = encode_fwcs(w, FilterletMask(spec, kept))
            blob = write_fwcs(layer)
            back, off = read_fwcs(blob, 0, dtype)
            assert off == len(blob)
            assert back.size == layer.size
            assert np.array_equal(back.arr, layer.arr)
            assert np.array_equal(back.c_ptr, layer.c_ptr)
            assert np.array_equal(back.f_idx, layer.f_idx)

    def test_csr_round_trip(self):
        rng = np.random.default_rng(12)
        spec = make_spec(n=2, kh=2, kw=2, c=3)
        w = random_weights(spec, rng, "int8")
        layer = encode_csr(w, rng.random((2, 12)) < 0.5)
        blob = write_csr(layer)
        back, off = read_csr(blob, 0, "int8")
        assert off == len(blob)
        assert np.array_equal(back.arr, layer.arr)
        assert np.array_equal(back.c_ptr, layer.c_ptr)

    def test_truncation_detected(self):
        spec = make_spec()
        layer = encode_fwcs(random_weights(spec, np.random.default_rng(13)),
                            FilterletMask.all_kept(spec))
        blob = write_fwcs(layer)
        with pytest.raises(CorruptionError):
            read_fwcs(blob[:-3], 0, "float32")
        with pytest.raises(CorruptionError):
            read_fwcs(b"ZZZZ" + blob[4:], 0, "float32")
