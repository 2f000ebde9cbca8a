import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bundle_v1
from filterlet.bundle import BundleLayer
from filterlet.convops import conv_csr, conv_fwcs
from filterlet.errors import CorruptionError, DataError, FormatError
from filterlet.fwcs import CSR_FRAMING_BYTES, CsrLayer, FilterletMask, \
    FwcsLayer, check_csr_index, check_fwcs_index, decode_csr, decode_fwcs, \
    encode_csr, encode_fwcs, kept_count, read_csr, read_fwcs, read_fwcs_v1, \
    storage_footprint, write_csr, write_fwcs
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

    @pytest.mark.parametrize("alpha", [
        0.0, 1.0, 0.5, 0.25, 0.75, 0.125,
        # fractions as +-0.05 moves leave them
        0.7000000000000001, 0.44999999999999996, 0.5499999999999999,
        0.8500000000000002, 0.9500000000000003, 0.30000000000000004])
    def test_equals_numpy_floor(self, alpha):
        for total in (1, 2, 3, 9, 10, 27, 144, 2 ** 20 + 1):
            got = kept_count(total, alpha)
            assert type(got) is int
            assert got == int(np.floor((1.0 - alpha) * total + 0.5)), total

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
        layer = CsrLayer(np.array([1, 2, 3, 4], np.int8),
                         np.array([0, 1, 2, 3]), np.array([0, 3, 1, 4]), "int8")
        with pytest.raises(CorruptionError):
            read_csr(bundle_v1.csr_block(layer), 0, spec, "int8")
        with pytest.raises(CorruptionError):
            write_csr(layer, spec)
        with pytest.raises(CorruptionError):
            layer.slots(spec)
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


def fwcs_block(layer):
    """The version-2 FWCS block of an FWCS layer of at most 255 filterlets
    per filter, written without ``write_fwcs``'s check: counts and kernel
    positions as u8, then the values."""
    counts = np.diff(layer.f_idx)
    return (b"FWCS" + counts.astype(np.uint8).tobytes()
            + (layer.c_ptr // layer.size).astype(np.uint8).tobytes()
            + layer.arr.tobytes())


class TestCPtrCheck:
    """The c_ptr rules FWCS and CSR share, through ``slots``, the block
    writers and a bundle layer's ``decode_weights``; 4 filters of 4
    filterlets of 2."""

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
        block = fwcs_block(layer) if fmt == "fwcs" \
            else bundle_v1.csr_block(layer)
        quant = LayerQuant(input_scale=0.05, weight_scale=0.02, output_scale=0.4)
        return BundleLayer("conv0", fmt, TestCPtrCheck.SPEC, "int8", False,
                           quant, block).decode_weights()

    @pytest.mark.parametrize("fmt", ["fwcs", "csr"])
    @pytest.mark.parametrize("case", sorted(VALID))
    def test_valid(self, fmt, case):
        rows = self.VALID[case]
        layer = layer_from_rows(fmt, self.SPEC, rows)
        layer.slots(self.SPEC)
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
            layer.slots(self.SPEC)
        with pytest.raises(CorruptionError):
            self.decode(fmt, layer)
        with pytest.raises(CorruptionError):
            (write_fwcs if fmt == "fwcs" else write_csr)(layer, self.SPEC)

    @pytest.mark.parametrize("fmt", ["fwcs", "csr"])
    def test_accepted_layer_is_still_checked_for_other_specs(self, fmt):
        layer = layer_from_rows(fmt, self.SPEC, self.VALID["empty last filter"])
        write = write_fwcs if fmt == "fwcs" else write_csr
        layer.slots(self.SPEC)
        layer.slots(self.SPEC)
        # one filter fewer; three channels, which no FWCS run of 2 fits and
        # whose three weights per filter end before CSR entry 3
        for spec in (make_spec(n=3, kh=2, kw=2, c=2),
                     make_spec(n=4, kh=1, kw=1, c=3)):
            with pytest.raises(CorruptionError):
                layer.slots(spec)
            with pytest.raises(CorruptionError):
                write(layer, spec)
        layer.slots(self.SPEC)


def reference_slots(layer, spec):
    """The check of ``slots`` in an earlier form, with ``np.diff`` and a
    mask of the entries that open a filter: the reference the one-pass
    check must match in every decision and message."""
    if isinstance(layer, FwcsLayer) and layer.size != spec.filterlet_length:
        raise CorruptionError(f"size {layer.size} != channels {spec.channels}")
    f_idx, c_ptr, width = layer.f_idx, layer.c_ptr, layer.width
    if len(f_idx) != spec.n_filters + 1 or f_idx[0] != 0:
        raise CorruptionError("f_idx length or leading entry wrong")
    if np.any(c_ptr % width != 0):
        raise CorruptionError("c_ptr entry not a multiple of its width")
    if np.any(np.diff(f_idx) < 0):
        raise CorruptionError("negative run count")
    if len(c_ptr) != f_idx[-1]:
        raise CorruptionError("c_ptr length != retained count")
    if np.any(c_ptr < 0) or np.any(c_ptr + width > spec.filterlets_per_filter
                                   * spec.channels):
        raise CorruptionError("run index outside its filter")
    opens = np.zeros(len(c_ptr) + 1, bool)
    opens[f_idx] = True
    if np.any((np.diff(c_ptr) <= 0) & ~opens[1:-1]):
        raise CorruptionError("run indices not rising strictly within a filter")


def small_spec():
    return st.builds(make_spec, n=st.integers(1, 4), kh=st.integers(1, 3),
                     kw=st.integers(1, 2), c=st.integers(1, 3))


@st.composite
def run_layers(draw):
    """(layer, spec) pairs: a well-formed FWCS or CSR layer, or one with
    f_idx or c_ptr mutated, or checked against another spec."""
    fmt = draw(st.sampled_from(["fwcs", "csr"]))
    spec = draw(small_spec())
    width = spec.channels if fmt == "fwcs" else 1
    runs = spec.filterlets_per_filter * spec.channels // width
    rows = [sorted(draw(st.sets(st.integers(0, runs - 1), max_size=runs)))
            for _ in range(spec.n_filters)]
    f_idx = [0]
    for row in rows:
        f_idx.append(f_idx[-1] + len(row))
    c_ptr = [e * width for row in rows for e in row]
    mutation = draw(st.sampled_from(
        ["none", "f_idx entry", "f_idx length", "c_ptr offset", "c_ptr range",
         "repeat", "swap", "other spec"]))
    i = draw(st.integers(0, max(len(c_ptr) - 2, 0)))
    if mutation == "f_idx entry":
        # never the sentinel, which the constructor ties to the run count
        k = draw(st.integers(0, spec.n_filters - 1))
        f_idx[k] = draw(st.integers(-2, len(c_ptr) + 2))
    elif mutation == "f_idx length":
        k = draw(st.integers(1, spec.n_filters))
        if spec.n_filters > 1 and draw(st.booleans()):
            del f_idx[min(k, spec.n_filters - 1)]
        else:
            f_idx.insert(k, draw(st.integers(-1, len(c_ptr) + 1)))
    elif mutation == "c_ptr offset" and c_ptr:
        c_ptr[i] += draw(st.integers(-width - 1, width + 1))
    elif mutation == "c_ptr range" and c_ptr:
        c_ptr[i] = draw(st.sampled_from([-width, -1, runs * width - 1,
                                         runs * width, (runs + 1) * width]))
    elif mutation == "repeat" and len(c_ptr) > 1:
        c_ptr[i + 1] = c_ptr[i]
    elif mutation == "swap" and len(c_ptr) > 1:
        c_ptr[i], c_ptr[i + 1] = c_ptr[i + 1], c_ptr[i]
    elif mutation == "other spec":
        spec = draw(small_spec())
    arr = np.ones(len(c_ptr) * width, np.int8)
    if fmt == "fwcs":
        return FwcsLayer(arr, width, c_ptr, f_idx, "int8"), spec
    return CsrLayer(arr, c_ptr, f_idx, "int8"), spec


def check_outcome(check, layer, spec):
    """None when ``check`` accepts, else its CorruptionError message."""
    try:
        check(layer, spec)
    except CorruptionError as e:
        return str(e)
    return None


class TestValidateMatchesReference:
    @settings(derandomize=True, deadline=None, max_examples=500, database=None)
    @given(case=run_layers())
    def test_same_decision_and_message(self, case):
        layer, spec = case
        want = check_outcome(reference_slots, layer, spec)
        assert check_outcome(type(layer).slots, layer, spec) == want
        # a second look, now from the memo, decides the same
        assert check_outcome(type(layer).slots, layer, spec) == want


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

    @pytest.mark.parametrize("fmt", ["fwcs", "csr"])
    def test_values_must_be_stored_as_the_layers_dtype(self, fmt):
        # one filter of one 1x1 filterlet of two channels, both kept
        spec = make_spec(n=1, kh=1, kw=1, c=2)
        x = Tensor.from_array(np.ones(spec.input_dims, np.int8))
        if fmt == "fwcs":
            def make(arr, dtype="int8"):
                return FwcsLayer(arr, 2, [0], [0, 1], dtype)
            write, read, conv = write_fwcs, read_fwcs, conv_fwcs
        else:
            def make(arr, dtype="int8"):
                return CsrLayer(arr, [0, 1], [0, 2], dtype)
            write, read, conv = write_csr, read_csr, conv_csr
        # values of another dtype are rejected, never cast on write
        with pytest.raises(DataError, match="float64"):
            make(np.array([1.7, 1.7]))
        with pytest.raises(DataError, match="int16"):
            make(np.ones(2, np.int8), "int16")
        layer = make(np.ones(2, np.int8))
        back, _ = read(write(layer, spec), 0, spec, "int8")
        assert conv(x, layer, spec)[0, 0, 0] == conv(x, back, spec)[0, 0, 0] == 2


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
        assert storage_footprint(self.w) == 1152
        assert storage_footprint(Tensor.from_array(
            self.w.to_array().astype(np.float32))) == 4 * 1152

    def test_only_stored_layers(self):
        with pytest.raises(DataError):
            storage_footprint(self.spec)

    def test_fwcs_half_pruned(self):
        layer = encode_fwcs(self.w, self.mask)
        # 576 weight bytes + 72 u16 c_ptr + 17 u16 f_idx + u16 size
        assert storage_footprint(layer) == 576 + 144 + 34 + 2 == 756

    def test_csr_half_pruned_exceeds_dense(self):
        layer = encode_csr(self.w, self.mask.to_weight_mask())
        total = storage_footprint(layer)
        assert total == 576 + 1152 + 34 == 1762
        assert total > storage_footprint(self.w)

    def test_footprint_equals_serialized_payload(self):
        # FWCS: the paper's layout, the version-1 block; version 2 stores
        # the index narrower, see TestVersion2Block
        rng = np.random.default_rng(10)
        for dtype in ("int8", "float32"):
            w = random_weights(self.spec, rng, dtype)
            fw = encode_fwcs(w, self.mask)
            cs = encode_csr(w, self.mask.to_weight_mask())
            assert len(bundle_v1.fwcs_block(fw)) - \
                bundle_v1.FWCS_FRAMING_BYTES == storage_footprint(fw)
            assert len(write_csr(cs, self.spec)) - CSR_FRAMING_BYTES == \
                storage_footprint(cs)


class TestIndexWidth:
    """FWCS stores run counts and kernel positions, bounded by the kernel;
    CSR stores u16 weight offsets and running totals, bounded by the layer."""

    @pytest.mark.parametrize("dims, entry", [
        ((1, 3, 3, 8192), "c_ptr"), ((7282, 3, 3, 1), "f_idx")])
    def test_an_entry_past_u16_under_some_mask_is_rejected(self, dims, entry):
        spec = make_spec(*dims)
        with pytest.raises(FormatError, match=f"{entry} entry"):
            check_csr_index(spec, spec.weight_count)
        # the CSR layer with every weight kept is one such mask
        w = Tensor.from_array(np.zeros(spec.weight_dims, np.int8))
        with pytest.raises(FormatError, match=f"{entry} .*outside u16"):
            write_csr(encode_csr(w, np.ones((spec.n_filters, spec.weight_count
                                             // spec.n_filters), bool)), spec)

    @pytest.mark.parametrize("dims", [(1, 3, 3, 8192), (7282, 3, 3, 1),
                                      (1, 1, 1, 65536)])
    def test_fwcs_layers_past_u16_offsets_pack(self, dims):
        # their u16 c_ptr, f_idx or size field overflowed in version 1
        spec = make_spec(*dims)
        assert check_fwcs_index(spec) == np.uint8
        w = Tensor.from_array(np.zeros(spec.weight_dims, np.int8))
        layer = encode_fwcs(w, FilterletMask.all_kept(spec))
        back, _ = read_fwcs(write_fwcs(layer, spec), 0, spec, "int8")
        assert np.array_equal(back.c_ptr, layer.c_ptr)
        assert np.array_equal(back.f_idx, layer.f_idx)

    @pytest.mark.parametrize("dims", [(1, 1, 65535, 1), (65535, 1, 1, 1),
                                      (1, 1, 1, 65536)])
    def test_entries_at_the_u16_limit_pass(self, dims):
        # FWCS: up to 65535 positions per filter; CSR: c_ptr 65535 (the
        # last of 65536 weights) and f_idx 65535 (that many kept)
        spec = make_spec(*dims)
        w = Tensor.from_array(np.zeros(spec.weight_dims, np.int8))
        layer = encode_fwcs(w, FilterletMask.all_kept(spec))
        write_fwcs(layer, spec)
        kept = np.ones((spec.n_filters, spec.weight_count // spec.n_filters),
                       bool)
        kept.reshape(-1)[:-65535] = False
        check_csr_index(spec, int(kept.sum()))
        write_csr(encode_csr(w, kept), spec)

    @pytest.mark.parametrize("kernel, width", [
        ((15, 17), np.uint8), ((16, 16), np.uint16), ((1, 65535), np.uint16)])
    def test_the_index_width_follows_the_kernel(self, kernel, width):
        spec = make_spec(2, *kernel, 1)
        assert check_fwcs_index(spec) == width

    def test_a_kernel_past_u16_positions_is_rejected_from_the_spec(self):
        spec = make_spec(1, 256, 257, 1)
        with pytest.raises(FormatError, match="run count entry 65792"):
            check_fwcs_index(spec)
        with pytest.raises(CorruptionError, match="65792"):
            read_fwcs(b"FWCS" + bytes(8), 0, spec, "int8")


class TestVersion2Block:
    """The FWCS block: magic, per filter its run count, per kept run its
    kernel position, then the kept values; nothing else."""

    SPEC = make_spec(n=3, kh=2, kw=2, c=2)

    def block(self, counts, positions):
        values = np.arange(2 * len(positions), dtype=np.int8)
        return b"FWCS" + bytes(counts) + bytes(positions) + values.tobytes()

    def test_bytes_of_a_known_layer(self):
        kept = np.array([[1, 0, 1, 0], [0, 0, 0, 0], [0, 1, 1, 1]], bool)
        w = Tensor.from_array(np.arange(24, dtype=np.int8).reshape(
            self.SPEC.weight_dims))
        blob = write_fwcs(encode_fwcs(w, FilterletMask(self.SPEC, kept)),
                          self.SPEC)
        assert blob == b"FWCS" + bytes([2, 0, 3]) + bytes([0, 2, 1, 2, 3]) \
            + bytes([0, 1, 4, 5, 18, 19, 20, 21, 22, 23])

    def test_read_layer_is_accepted_for_its_spec(self, monkeypatch):
        layer, end = read_fwcs(self.block([2, 0, 1], [1, 3, 0]), 0,
                               self.SPEC, "int8")
        assert end == 4 + 3 + 3 + 6
        assert list(layer.c_ptr) == [2, 6, 0]
        assert list(layer.f_idx) == [0, 2, 2, 3]

        def no_check(*args):
            raise AssertionError("checked again")

        # the reader's checks stand in for the structural check
        monkeypatch.setattr(np, "divmod", no_check)
        layer.slots(self.SPEC)
        assert decode_fwcs(layer, self.SPEC).to_array()[0, 0, 1, 1] == 1

    def test_encoded_layer_is_accepted_for_its_spec(self, monkeypatch):
        kept = np.array([[0, 1, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]], bool)
        w = random_weights(self.SPEC, np.random.default_rng(16), "int8")
        layer = encode_fwcs(w, FilterletMask(self.SPEC, kept))
        run, filt = layer.slots(self.SPEC)
        assert list(run) == [1, 2, 0, 3] and list(filt) == [0, 0, 1, 2]
        assert not run.flags.writeable and not filt.flags.writeable

        def no_check(*args):
            raise AssertionError("checked again")

        monkeypatch.setattr(np, "divmod", no_check)
        back, _ = read_fwcs(write_fwcs(layer, self.SPEC), 0, self.SPEC, "int8")
        assert np.array_equal(back.c_ptr, layer.c_ptr)

    @pytest.mark.parametrize("counts, positions, what", [
        ([5, 0, 0], [0, 1, 2, 3, 3], "not rising"),
        ([1, 0, 1], [0, 4], "outside"),
        ([2, 0, 0], [2, 1], "not rising"),
        ([2, 0, 0], [1, 1], "not rising"),
        ([1, 1, 2], [3, 0, 3, 2], "not rising")])
    def test_malformed_index_is_corruption(self, counts, positions, what):
        with pytest.raises(CorruptionError, match=what):
            read_fwcs(self.block(counts, positions), 0, self.SPEC, "int8")

    def test_a_filter_may_start_below_the_last(self):
        layer, _ = read_fwcs(self.block([1, 1, 1], [3, 0, 2]), 0,
                             self.SPEC, "int8")
        assert list(layer.c_ptr) == [6, 0, 4]

    def test_truncated_block_is_corruption(self):
        blob = self.block([1, 1, 1], [3, 0, 2])
        for cut in range(len(blob)):
            with pytest.raises(CorruptionError):
                read_fwcs(blob[:cut], 0, self.SPEC, "int8")

    def test_u16_index_round_trip(self):
        spec = make_spec(n=2, kh=16, kw=16, c=1)
        kept = np.zeros((2, 256), bool)
        kept[0, [0, 255]] = kept[1, 7] = True
        w = random_weights(spec, np.random.default_rng(14), "int8")
        layer = encode_fwcs(w, FilterletMask(spec, kept))
        blob = write_fwcs(layer, spec)
        assert blob[4:14] == np.array([2, 1, 0, 255, 7], "<u2").tobytes()
        back, end = read_fwcs(blob, 0, spec, "int8")
        assert end == len(blob) == 4 + 10 + 3
        assert np.array_equal(back.c_ptr, layer.c_ptr)

    def test_version_1_block_converts(self):
        rng = np.random.default_rng(15)
        spec = make_spec(n=4, kh=2, kw=3, c=5)
        layer = encode_fwcs(random_weights(spec, rng, "float32"),
                            FilterletMask(spec, rng.random((4, 6)) < 0.5))
        old, end = read_fwcs_v1(bundle_v1.fwcs_block(layer), 0, "float32")
        assert end == len(bundle_v1.fwcs_block(layer))
        assert write_fwcs(old, spec) == write_fwcs(layer, spec)


class TestSerialization:
    def test_fwcs_round_trip(self):
        rng = np.random.default_rng(11)
        for dtype in ("int8", "float32"):
            spec = make_spec(n=4, kh=2, kw=3, c=5)
            w = random_weights(spec, rng, dtype)
            kept = rng.random((4, 6)) < 0.6
            layer = encode_fwcs(w, FilterletMask(spec, kept))
            blob = write_fwcs(layer, spec)
            back, off = read_fwcs(blob, 0, spec, dtype)
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
        blob = write_csr(layer, spec)
        back, off = read_csr(blob, 0, spec, "int8")
        assert off == len(blob)
        assert np.array_equal(back.arr, layer.arr)
        assert np.array_equal(back.c_ptr, layer.c_ptr)

    def test_read_csr_layer_is_accepted_for_its_spec(self, monkeypatch):
        rng = np.random.default_rng(17)
        spec = ConvLayerSpec(n_filters=2, kernel_h=2, kernel_w=2, channels=3,
                             input_h=4, input_w=4)
        layer = encode_csr(random_weights(spec, rng, "int8"),
                           rng.random((2, 12)) < 0.5)
        x = Tensor.from_array(rng.integers(-128, 128, spec.input_dims)
                              .astype(np.int8))
        want = conv_csr(x, layer, spec)
        back, _ = read_csr(write_csr(layer, spec), 0, spec, "int8")

        def no_check(*args):
            raise AssertionError("checked again")

        # read_csr checked the layer for spec, so nothing checks it again
        monkeypatch.setattr(np, "divmod", no_check)
        back.slots(spec)
        assert np.array_equal(conv_csr(x, back, spec), want)

    def test_truncation_detected(self):
        spec = make_spec()
        layer = encode_fwcs(random_weights(spec, np.random.default_rng(13)),
                            FilterletMask.all_kept(spec))
        blob = write_fwcs(layer, spec)
        with pytest.raises(CorruptionError):
            read_fwcs(blob[:-3], 0, spec, "float32")
        with pytest.raises(CorruptionError):
            read_fwcs(b"ZZZZ" + blob[4:], 0, spec, "float32")
