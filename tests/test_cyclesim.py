import numpy as np
import pytest

from filterlet.cyclesim import ComputeSchedule, Instruction, LOAD_SCALAR, \
    LOAD_VEC, MAC_VEC, MachineConfig, dump_trace, layer_stream, lds, ldv, \
    macv, simulate, two_mac_default_stream, two_mac_pinned_stream
from filterlet.errors import ConfigError, StreamError
from filterlet.fwcs import FilterletMask, encode_csr, encode_fwcs
from filterlet.tensor import ConvLayerSpec, Tensor

CFG = MachineConfig(lanes=4)


def rand_layer(rng, min_c=1, max_c=8, density=None, max_in=8):
    kh = int(rng.integers(1, 4))
    kw = int(rng.integers(1, 4))
    ih = int(rng.integers(kh, max_in + 1))
    iw = int(rng.integers(kw, max_in + 1))
    spec = ConvLayerSpec(
        n_filters=int(rng.integers(1, 9)), kernel_h=kh, kernel_w=kw,
        channels=int(rng.integers(min_c, max_c + 1)), input_h=ih, input_w=iw,
        stride=int(rng.integers(1, 3)),
    )
    w = Tensor.from_array(
        rng.integers(-128, 128, spec.weight_dims).astype(np.int8))
    density = rng.random() if density is None else density
    kept = rng.random((spec.n_filters, spec.filterlets_per_filter)) < density
    return spec, encode_fwcs(w, FilterletMask(spec, kept)), w


def alu_idle(trace, lo, hi):
    return [c for c, _, alu in trace.records if lo <= c <= hi and alu == "idle"]


class TestSimulate:
    def test_single_load_takes_two_cycles(self):
        assert simulate([ldv("q0", 4)], CFG).total_cycles == 2

    def test_two_macs_fresh_operands_take_nine_cycles(self):
        trace = simulate(two_mac_default_stream(), CFG)
        assert trace.total_cycles == 9
        # the ALU stalls for two cycles while both operands of the second
        # MAC stream in
        assert alu_idle(trace, 4, 9) == [6, 7]

    def test_two_macs_pinned_operand_take_seven_cycles(self):
        trace = simulate(two_mac_pinned_stream(), CFG)
        assert trace.total_cycles == 7
        # once warmed up the ALU never waits
        assert alu_idle(trace, 4, 7) == []

    def test_two_register_variant_stalls_three_cycles(self):
        # only q0/q1: both reloads wait for the first MAC to finish
        trace = simulate([ldv("q0", 4), ldv("q1", 4), macv("q0", "q1", 4),
                          ldv("q0", 4), ldv("q1", 4), macv("q0", "q1", 4)], CFG)
        assert trace.total_cycles == 10
        assert alu_idle(trace, 6, 8) == [6, 7, 8]

    def test_mac_waits_for_operand_loads_to_start(self):
        # second operand load starts at cycle 3, so the MAC starts at 4
        trace = simulate([ldv("q0"), ldv("q1"), macv("q0", "q1")], CFG)
        ops = {op.ins.kind: op for op in trace.ops}
        assert ops[MAC_VEC].start == 4

    def test_overlap_disabled_waits_for_full_load(self):
        cfg = MachineConfig(lanes=4, overlap_enabled=False)
        trace = simulate([ldv("q0"), ldv("q1"), macv("q0", "q1")], cfg)
        mac = [op for op in trace.ops if op.ins.kind == MAC_VEC][0]
        assert mac.start == 5

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        spec, layer, _ = rand_layer(rng, density=0.5)
        stream = layer_stream(layer, spec, ComputeSchedule.DEFAULT, CFG).expand()
        a = simulate(stream, CFG).total_cycles
        b = simulate(stream, CFG).total_cycles
        assert a == b

    def test_register_out_of_range(self):
        with pytest.raises(ConfigError):
            simulate([ldv("q8", 4)], CFG)

    def test_mac_on_unwritten_register(self):
        with pytest.raises(StreamError):
            simulate([ldv("q0"), macv("q0", "q1")], CFG)

    def test_unknown_kind(self):
        with pytest.raises(StreamError):
            simulate([Instruction("jmp")], CFG)

    def test_trace_occupancy_invariants(self):
        # every instruction occupies exactly its duration on exactly one unit
        trace = simulate(two_mac_default_stream(), CFG)
        for op in trace.ops:
            assert op.end - op.start + 1 == 2
        mem_cycles = [c for c, mem, _ in trace.records if mem != "idle"]
        assert len(mem_cycles) == 8  # four loads, two cycles each


class TestLowerSchedule:
    def test_minimal_default_stream_vector_skeleton(self):
        # one filterlet, channels == lanes, one output position
        spec = ConvLayerSpec(n_filters=1, kernel_h=1, kernel_w=1, channels=4,
                             input_h=1, input_w=1)
        w = Tensor.from_array(np.ones(spec.weight_dims, np.int8), "int8")
        layer = encode_fwcs(w, FilterletMask.all_kept(spec))
        stream = layer_stream(layer, spec, ComputeSchedule.DEFAULT, CFG).expand()
        vec = [i.kind for i in stream if i.kind in (LOAD_VEC, MAC_VEC)]
        assert vec == [LOAD_VEC, LOAD_VEC, MAC_VEC]
        # plus the patch prefetch and one index read on the scalar side
        assert sum(1 for i in stream if i.kind == LOAD_SCALAR) == 4 + 1

    def test_reordered_single_filterlet_two_positions(self):
        spec = ConvLayerSpec(n_filters=1, kernel_h=1, kernel_w=1, channels=4,
                             input_h=1, input_w=2)
        w = Tensor.from_array(np.ones(spec.weight_dims, np.int8), "int8")
        layer = encode_fwcs(w, FilterletMask.all_kept(spec))
        stream = layer_stream(layer, spec, ComputeSchedule.REORDERED, CFG).expand()
        counts = {}
        for i in stream:
            counts[i.kind] = counts.get(i.kind, 0) + 1
        # weights loaded once, features twice, two MACs
        assert counts[LOAD_VEC] == 1 + 2
        assert counts[MAC_VEC] == 2
        weight_loads = [i for i in stream if i.kind == LOAD_VEC and i.dst == "q0"]
        assert len(weight_loads) == 1

    def test_eight_weight_filterlet_four_lanes_two_chunks(self):
        spec = ConvLayerSpec(n_filters=1, kernel_h=1, kernel_w=1, channels=8,
                             input_h=1, input_w=1)
        w = Tensor.from_array(np.ones(spec.weight_dims, np.int8), "int8")
        layer = encode_fwcs(w, FilterletMask.all_kept(spec))
        counts = layer_stream(layer, spec, ComputeSchedule.DEFAULT, CFG).counts()
        assert counts["macs"] == 2  # ceil(8/4) chunks per position

    def test_mac_count_matches_closed_form(self):
        rng = np.random.default_rng(1)
        for schedule in ComputeSchedule:
            for _ in range(10):
                spec, layer, _ = rand_layer(rng)
                stream = layer_stream(layer, spec, schedule, CFG)
                want = stream.counts()
                got = {"macs": 0, "vector_loads": 0, "scalar_loads": 0}
                for ins in stream.expand():
                    key = {MAC_VEC: "macs", LOAD_VEC: "vector_loads",
                           LOAD_SCALAR: "scalar_loads"}[ins.kind]
                    got[key] += 1
                assert got == want
                retained_chunks = -(-spec.channels // CFG.lanes)
                assert want["macs"] == \
                    layer.n_retained * retained_chunks * spec.out_positions

    def test_default_two_loads_per_mac(self):
        rng = np.random.default_rng(2)
        spec, layer, _ = rand_layer(rng, density=0.6)
        counts = layer_stream(layer, spec, ComputeSchedule.DEFAULT, CFG).counts()
        assert counts["vector_loads"] == 2 * counts["macs"]

    def test_reordered_one_load_per_mac_plus_pinned(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            spec, layer, _ = rand_layer(rng, density=0.6)
            counts = layer_stream(layer, spec, ComputeSchedule.REORDERED, CFG).counts()
            tile = max(1, CFG.register_count - 2)
            n_tiles = -(-spec.out_positions // tile)
            chunks = -(-spec.channels // CFG.lanes)
            assert counts["vector_loads"] == \
                counts["macs"] + layer.n_retained * chunks * n_tiles


class TestLayerCycles:
    def test_empty_layer_costs_post_processing_only(self):
        spec = ConvLayerSpec(n_filters=3, kernel_h=2, kernel_w=2, channels=4,
                             input_h=5, input_w=5)
        w = Tensor.from_array(np.ones(spec.weight_dims, np.int8), "int8")
        layer = encode_fwcs(w, FilterletMask.none_kept(spec))
        for schedule in ComputeSchedule:
            assert layer_stream(layer, spec, schedule, CFG).cycles() == \
                spec.n_filters * spec.out_positions * CFG.post_cycles

    def test_reordered_never_slower_and_usually_faster(self):
        rng = np.random.default_rng(4)
        strict_checked = 0
        for _ in range(100):
            spec, layer, _ = rand_layer(rng)
            d = layer_stream(layer, spec, ComputeSchedule.DEFAULT, CFG).cycles()
            r = layer_stream(layer, spec, ComputeSchedule.REORDERED, CFG).cycles()
            assert r <= d
            if layer.n_retained and spec.out_positions >= 2:
                assert r < d
                strict_checked += 1
        assert strict_checked > 50

    def test_halving_lanes_increases_cycles_when_channels_exceed_eight(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            spec, layer, _ = rand_layer(rng, min_c=9, max_c=24, density=0.7)
            if layer.n_retained == 0:
                continue
            c16 = layer_stream(layer, spec, ComputeSchedule.REORDERED,
                               MachineConfig(lanes=16)).cycles()
            c8 = layer_stream(layer, spec, ComputeSchedule.REORDERED,
                              MachineConfig(lanes=8)).cycles()
            assert c8 > c16

    def test_reordered_alu_gapless_within_a_chunk_run(self):
        # one filterlet spanning two chunks, streamed over a full tile: the
        # ALU must run back-to-back MACs inside each chunk's position run
        spec = ConvLayerSpec(n_filters=1, kernel_h=1, kernel_w=1, channels=8,
                             input_h=2, input_w=3)
        w = Tensor.from_array(np.ones(spec.weight_dims, np.int8), "int8")
        layer = encode_fwcs(w, FilterletMask.all_kept(spec))
        stream = layer_stream(layer, spec, ComputeSchedule.REORDERED, CFG).expand()
        trace = simulate(stream, CFG)
        macs = [op for op in trace.ops if op.ins.kind == MAC_VEC]
        width = spec.out_positions  # 6 positions fit one tile
        assert len(macs) == 2 * width
        for chunk in (macs[:width], macs[width:]):
            for prev, cur in zip(chunk, chunk[1:]):
                assert cur.start == prev.end + 1

    def test_csr_cycles_exceed_fwcs_for_wide_channels(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            spec, layer, w = rand_layer(rng, min_c=8, max_c=16, density=0.5)
            if layer.n_retained == 0:
                continue
            mask_bits = np.zeros(
                (spec.n_filters, spec.filterlets_per_filter), bool)
            for n in range(spec.n_filters):
                for j in range(layer.f_idx[n], layer.f_idx[n + 1]):
                    mask_bits[n, layer.c_ptr[j] // spec.channels] = True
            csr = encode_csr(w, FilterletMask(spec, mask_bits).to_weight_mask())
            stream = layer_stream(csr, spec, ComputeSchedule.DEFAULT, CFG)
            assert stream.cycles() > \
                layer_stream(layer, spec, ComputeSchedule.REORDERED, CFG).cycles()
            assert stream.counts()["macs"] == \
                sum(1 for i in stream.expand() if i.kind == "macs")


def stream_counts(stream):
    kinds = {MAC_VEC: "macs", "macs": "macs", LOAD_VEC: "vector_loads",
             LOAD_SCALAR: "scalar_loads"}
    got = dict.fromkeys(kinds.values(), 0)
    for ins in stream:
        got[kinds[ins.kind]] += 1
    return got


def grid_layers():
    rng = np.random.default_rng(30)

    def layer(density, **geometry):
        spec = ConvLayerSpec(**geometry)
        w = Tensor.from_array(
            rng.integers(-128, 128, spec.weight_dims).astype(np.int8))
        kept = rng.random((spec.n_filters, spec.filterlets_per_filter)) < density
        mask = FilterletMask(spec, kept)
        return spec, encode_fwcs(w, mask), encode_csr(w, mask.to_weight_mask())

    return [
        # 19 positions: one left over after every tile of 2, 6 and 9
        layer(1.0, n_filters=3, kernel_h=1, kernel_w=1, channels=6,
              input_h=1, input_w=19),
        layer(0.6, n_filters=4, kernel_h=3, kernel_w=3, channels=5,
              input_h=7, input_w=7, stride=2),
        layer(0.0, n_filters=2, kernel_h=2, kernel_w=2, channels=4,
              input_h=5, input_w=5),
        # one output position
        layer(0.7, n_filters=3, kernel_h=3, kernel_w=3, channels=9,
              input_h=3, input_w=3),
        layer(0.5, n_filters=2, kernel_h=2, kernel_w=2, channels=17,
              input_h=5, input_w=4),
    ]


class TestPricingWithoutExpansion:
    def test_matches_full_simulation_on_a_grid(self):
        layers = grid_layers()
        assert [spec.out_positions for spec, *_ in layers] == [19, 9, 16, 1, 12]
        assert layers[2][1].n_retained == 0
        flags = [(overlap, vic) for overlap in (True, False) for vic in (1, 2, 3)]
        for li, (spec, fw, cs) in enumerate(layers):
            for ci, (lanes, regs) in enumerate(
                    (lanes, regs) for lanes in (2, 4, 8, 16)
                    for regs in (3, 4, 8, 11)):
                overlap, vic = flags[(li + ci) % len(flags)]
                cfg = MachineConfig(lanes=lanes, register_count=regs,
                                    overlap_enabled=overlap,
                                    vec_instr_cycles=vic)
                post = spec.n_filters * spec.out_positions * cfg.post_cycles
                for schedule in ComputeSchedule:
                    stream = layer_stream(fw, spec, schedule, cfg)
                    ops = stream.expand()
                    assert stream.cycles() == \
                        simulate(ops, cfg).total_cycles + post
                    assert stream.counts() == stream_counts(ops)
            # the CSR stream uses neither vector lanes nor vector registers
            for overlap, vic in flags:
                cfg = MachineConfig(overlap_enabled=overlap,
                                    vec_instr_cycles=vic)
                post = spec.n_filters * spec.out_positions * cfg.post_cycles
                stream = layer_stream(cs, spec, ComputeSchedule.DEFAULT, cfg)
                ops = stream.expand()
                assert stream.cycles() == simulate(ops, cfg).total_cycles + post
                assert stream.counts() == stream_counts(ops)


class TestDumps:
    def test_instruction_labels(self):
        labels = [i.label() for i in (ldv("q0", 4), lds(), macv("q0", "q0", 4))]
        assert labels == ["LD q0 4", "LD - 1", "MAC a0 q0 q0"]

    def test_trace_dump_one_line_per_cycle(self):
        trace = simulate(two_mac_pinned_stream(), CFG)
        lines = dump_trace(trace).splitlines()
        assert len(lines) == 7
        assert lines[0].startswith("1,LD q0 4,")
        assert all(line.count(",") == 2 for line in lines)
