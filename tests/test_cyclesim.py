from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from claims import AFFINE_KINDS, affine_failure, kept_units
from filterlet import cyclesim
from filterlet.cyclesim import ComputeSchedule, Instruction, LOAD_SCALAR, \
    LOAD_VEC, LayerStream, MAC_SCALAR, MAC_VEC, MachineConfig, VALID_LANES, \
    _Block, _apply, _check_reads, _chunk_lengths, _compile, _compose, \
    _csr_units, _pinned_units, _rotating_units, _state_key, dump_trace, \
    layer_stream, lds, ldv, macs, macv, simulate, two_mac_default_stream, \
    two_mac_pinned_stream
from filterlet.errors import ConfigError, StreamError
from filterlet.fwcs import FilterletMask, encode_csr, encode_fwcs, kept_count
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


class TestMachineConfig:
    @pytest.mark.parametrize("field, value", [
        ("lanes", 4.0), ("lanes", True), ("vec_instr_cycles", 2.5),
        ("vec_instr_cycles", "2"), ("register_count", 6.5),
        ("register_count", None), ("post_cycles", 2.0),
        ("overlap_enabled", "no"), ("overlap_enabled", 1),
        ("overlap_enabled", np.True_)])
    def test_rejects_fields_of_the_wrong_type(self, field, value):
        with pytest.raises(ConfigError):
            MachineConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("vec_instr_cycles", 0), ("register_count", 2), ("post_cycles", -1)])
    def test_rejects_values_out_of_range(self, field, value):
        with pytest.raises(ConfigError, match=field.split("_")[0]):
            MachineConfig(**{field: value})

    def test_numpy_integers_become_python_ints(self):
        cfg = MachineConfig(lanes=np.int64(8), register_count=np.int32(5))
        assert type(cfg.lanes) is int and type(cfg.register_count) is int
        assert cfg == MachineConfig(lanes=8, register_count=5)

    def test_configs_of_python_and_numpy_ints_share_one_program(self):
        a = MachineConfig(lanes=8, vec_instr_cycles=3, register_count=5)
        b = MachineConfig(lanes=np.int16(8), vec_instr_cycles=np.int64(3),
                          register_count=np.uint8(5))
        assert hash(a) == hash(b)
        chunks = _chunk_lengths(17, 8)
        assert _rotating_units(chunks, a) is _rotating_units(chunks, b)
        assert _pinned_units(chunks, 3, a) is _pinned_units(chunks, 3, b)

    def test_a_replaced_field_gets_its_own_hash(self):
        cfg = MachineConfig()
        for field, value in (("lanes", 8), ("vec_instr_cycles", 1),
                             ("overlap_enabled", False),
                             ("register_count", 6), ("post_cycles", 0)):
            other = replace(cfg, **{field: value})
            assert hash(other) == hash(MachineConfig(**{field: value}))
            assert hash(other) != hash(cfg) and other != cfg


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


def price_chain():
    """The benchmark's pricing chain: four 16x3x3x16 layers from a 14x14
    input, half of each layer's filterlets kept."""
    rng = np.random.default_rng(7)
    layers = []
    side = 14
    for _ in range(4):
        spec = ConvLayerSpec(n_filters=16, kernel_h=3, kernel_w=3, channels=16,
                             input_h=side, input_w=side)
        total = spec.n_filters * spec.filterlets_per_filter
        kept = np.zeros(total, bool)
        kept[rng.choice(total, kept_count(total, 0.5), replace=False)] = True
        w = Tensor.from_array(
            rng.integers(-100, 101, spec.weight_dims).astype(np.int8))
        mask = FilterletMask(spec, kept.reshape(spec.n_filters, -1))
        layers.append((spec, encode_fwcs(w, mask)))
        side = spec.out_h
    return layers


class TestPriceChain:
    def test_cycle_totals_are_pinned(self):
        cfg = MachineConfig()
        totals = {schedule: sum(layer_stream(layer, spec, schedule, cfg).cycles()
                                for spec, layer in price_chain())
                  for schedule in ComputeSchedule}
        assert totals == {ComputeSchedule.DEFAULT: 481604,
                          ComputeSchedule.REORDERED: 329396}

    @pytest.mark.parametrize("field, value", [
        ("vec_instr_cycles", 3), ("overlap_enabled", False),
        ("register_count", 4)])
    def test_configs_do_not_share_compiled_units(self, field, value):
        # priced back to back in both orders, each config matches a full
        # simulation under a freshly built equal config
        base = MachineConfig()
        other = replace(base, **{field: value})
        layers = [(spec, fw) for spec, fw, _ in grid_layers()]
        runs = [(spec, layer, schedule) for spec, layer in layers
                for schedule in ComputeSchedule]

        def reference(cfg):
            fresh = replace(cfg)
            return [simulate(layer_stream(layer, spec, schedule, fresh).expand(),
                             fresh).total_cycles
                    + spec.n_filters * spec.out_positions * cfg.post_cycles
                    for spec, layer, schedule in runs]

        want = {base: reference(base), other: reference(other)}
        assert want[base] != want[other]
        for order in ((base, other), (other, base)):
            for cfg in order:
                assert [layer_stream(layer, spec, schedule, cfg).cycles()
                        for spec, layer, schedule in runs] == want[cfg]


class TestClosedFormCounts:
    def test_counts_equal_the_expanded_stream(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            spec, fw, w = rand_layer(rng, max_c=6, max_in=6)
            kept = rng.random((spec.n_filters, spec.filterlets_per_filter)) < 0.5
            cs = encode_csr(w, FilterletMask(spec, kept).to_weight_mask())
            for layer in (fw, cs, w):
                for schedule in ComputeSchedule:
                    for cfg in (CFG, MachineConfig(lanes=2, register_count=5)):
                        stream = layer_stream(layer, spec, schedule, cfg)
                        assert stream.counts() == stream_counts(stream.expand())

    def test_counts_are_a_fresh_dict_each_time(self):
        spec, fw, _ = rand_layer(np.random.default_rng(32))
        stream = layer_stream(fw, spec, ComputeSchedule.DEFAULT, CFG)
        want = dict(stream.counts())
        stream.counts()["macs"] = -1
        assert stream.counts() == want


class TestLoweredStream:
    def test_assigning_to_a_field_raises(self):
        spec, fw, _ = rand_layer(np.random.default_rng(33))
        stream = layer_stream(fw, spec, ComputeSchedule.DEFAULT, CFG)
        for field in ("blocks", "outputs", "cfg"):
            with pytest.raises(AttributeError):
                setattr(stream, field, getattr(stream, field))

    @pytest.mark.parametrize("schedule", list(ComputeSchedule))
    def test_lowering_a_layer_again_compiles_nothing(self, schedule,
                                                     monkeypatch):
        # 7x7 positions: six-wide tiles and a one-position remainder
        spec = ConvLayerSpec(n_filters=3, kernel_h=3, kernel_w=3, channels=6,
                             input_h=9, input_w=9)
        rng = np.random.default_rng(34)
        w = Tensor.from_array(
            rng.integers(-128, 128, spec.weight_dims).astype(np.int8))
        kept = rng.random((spec.n_filters, spec.filterlets_per_filter)) < 0.5
        layers = (w, encode_fwcs(w, FilterletMask(spec, kept)),
                  encode_csr(w, FilterletMask(spec, kept).to_weight_mask()))

        def priced():
            return [(s.counts(), s.cycles(), len(s.expand()))
                    for s in (layer_stream(layer, spec, schedule, CFG)
                              for layer in layers)]

        want = priced()

        def compiles(*_):
            raise AssertionError("compiled again")

        monkeypatch.setattr(cyclesim, "_compile", compiles)
        monkeypatch.setattr(cyclesim, "_function", compiles)
        assert priced() == want


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


class IssueState(NamedTuple):
    mem_free: int
    alu_free: int
    ready: dict  # register -> first cycle a MAC may read it
    reader_end: dict  # register -> last cycle of its latest reader


FRESH = IssueState(1, 1, {}, {})


def reference_issue(stream, cfg, state=FRESH) -> IssueState:
    """Issue ``stream`` after ``state`` one instruction at a time, with the
    three timing rules written out over dicts: the plain loop that the
    simulator's composed maps must agree with."""
    mem_free, alu_free = state.mem_free, state.alu_free
    ready, reader_end = dict(state.ready), dict(state.reader_end)
    for ins in stream:
        d = cfg.vec_instr_cycles if ins.kind in (LOAD_VEC, MAC_VEC) else 1
        if ins.kind in (MAC_VEC, MAC_SCALAR):
            start = alu_free
            for r in ins.srcs:
                if r not in ready:
                    raise StreamError(f"MAC reads {r} before any load wrote it")
                start = max(start, ready[r])
            alu_free = start + d
            for r in ins.srcs:
                reader_end[r] = alu_free - 1
        elif ins.dst is None:
            mem_free += d
        else:
            # a load waits for every earlier reader of its register to end
            start = max(mem_free, reader_end.get(ins.dst, 0) + 1)
            ready[ins.dst] = start + 1 if cfg.overlap_enabled else start + d
            mem_free = start + d
    return IssueState(mem_free, alu_free, ready, reader_end)


def slots_of(state: IssueState, regs) -> list[int]:
    """``state`` as the simulator's flat slots over the registers ``regs``."""
    x = [state.mem_free, state.alu_free]
    for r in regs:
        x += [state.ready.get(r, 0), state.reader_end.get(r, 0)]
    return x


@st.composite
def machines(draw):
    return MachineConfig(vec_instr_cycles=draw(st.integers(1, 3)),
                         overlap_enabled=draw(st.booleans()),
                         register_count=draw(st.integers(3, 11)))


@st.composite
def pools(draw, cfg):
    """A few vector registers of ``cfg``'s file and a few scalar ones."""
    q = draw(st.lists(st.integers(0, cfg.register_count - 1), min_size=1,
                      max_size=4, unique=True))
    s = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
    return [f"q{k}" for k in q], [f"s{k}" for k in s]


def load_list(pool):
    q, s = pool
    return [ldv(r, span) for r in q for span in (1, 3)] + \
        [lds(r) for r in s] + [lds()]


def instructions(pool):
    q, s = pool
    return st.sampled_from(
        load_list(pool) + [macv(a, b, span) for a in q for b in q
                           for span in (1, 3)]
        + [macs((a, b)) for a in s for b in s])


class TestAgainstReferenceIssue:
    @settings(derandomize=True, deadline=None, max_examples=200, database=None)
    @given(data=st.data())
    def test_a_unit_map_gives_the_reference_slots(self, data):
        cfg = data.draw(machines())
        pool = data.draw(pools(cfg))
        before = reference_issue(data.draw(st.lists(st.sampled_from(
            load_list(pool)), max_size=8)),
                                 cfg)
        unit = tuple(data.draw(st.lists(instructions(pool), min_size=1,
                                        max_size=10)))
        prog = _compile((unit,), 1, cfg)
        loaded = set(before.ready)
        try:
            want = reference_issue(unit, cfg, before)
        except StreamError:
            with pytest.raises(StreamError):
                _check_reads(prog.units[0], loaded)
            return
        _check_reads(prog.units[0], loaded)
        x = slots_of(before, prog.regs)
        _apply(prog.units[0], x)
        assert x == slots_of(want, prog.regs)
        assert loaded == set(want.ready)

    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(data=st.data())
    def test_blocks_price_like_the_reference_on_their_expansion(self, data):
        cfg = data.draw(machines())
        blocks = []
        for _ in range(data.draw(st.integers(1, 2))):
            pool = data.draw(pools(cfg))
            if data.draw(st.booleans()):
                # load every register of the pool first, so that most
                # streams read nothing unloaded
                blocks.append(_Block(1, 0, 1, _compile((tuple(
                    ldv(r) for r in pool[0]) + tuple(lds(r) for r in pool[1]),
                ), 0, cfg)))
            n = data.draw(st.integers(1, 4))
            variants = tuple(
                tuple(data.draw(st.lists(instructions(pool), min_size=1,
                                         max_size=6)))
                for _ in range(n))
            blocks.append(_Block(
                repeats=data.draw(st.integers(0, 12)),
                head=data.draw(st.integers(0, 5)),
                units=data.draw(st.integers(0, 24)),
                program=_compile(variants, data.draw(st.integers(0, 5)), cfg),
                phase=data.draw(st.integers(0, n - 1))))
        stream = LayerStream(tuple(blocks), data.draw(st.integers(0, 3)), cfg)
        ops = stream.expand()
        try:
            want = reference_issue(ops, cfg)
        except StreamError:
            with pytest.raises(StreamError):
                stream.cycles()
            with pytest.raises(StreamError):
                simulate(ops, cfg)
            return
        total = max(want.mem_free, want.alu_free) - 1
        assert simulate(ops, cfg).total_cycles == total
        assert stream.cycles() == total + stream.outputs * cfg.post_cycles

    def test_a_read_before_any_load_raises_before_anything_is_issued(self):
        applied, keys = [], []
        # the second block's second phase reads q2, which nothing loads
        pair = (ldv("q0"), ldv("q1"), macv("q0", "q1"))
        blocks = (_Block(20, 3, 5, _compile((pair,), 0, CFG)),
                  _Block(4, 1, 3, _compile(((ldv("q0"), macv("q0", "q0")),
                                            (ldv("q1"), macv("q1", "q2"))),
                                           1, CFG)))
        stream = LayerStream(blocks, 0, CFG)
        with pytest.raises(StreamError, match="q2"):
            counted(stream, applied, keys).cycles()
        assert applied == keys == []
        with pytest.raises(StreamError, match="q2"):
            reference_issue(stream.expand(), CFG)
        with pytest.raises(StreamError, match="q2"):
            simulate(stream.expand(), CFG)


def counted(stream, applied, keys):
    """``stream`` with every compiled map of its blocks appending to
    ``applied`` when it runs, and every state key to ``keys``."""
    def counting(f, calls):
        return lambda *args: calls.append(1) or f(*args)

    blocks = []
    for b in stream.blocks:
        code = b.program.code
        code = code._replace(
            units=tuple(counting(f, applied) for f in code.units),
            cycles=tuple(counting(f, applied) for f in code.cycles),
            powers=tuple((tuple(counting(f, applied) for f in fs), gain)
                         for fs, gain in code.powers),
            key=counting(code.key, keys))
        blocks.append(b._replace(program=b.program._replace(code=code)))
    return LayerStream(tuple(blocks), stream.outputs, stream.cfg)


class TestIssueCounts:
    # map applications and period keys of one price_chain() layer; issuing
    # one instruction, or one unit, at a time would take hundreds
    PINNED = {ComputeSchedule.DEFAULT: (2, 3),
              ComputeSchedule.REORDERED: (2, 3)}

    @pytest.mark.parametrize("schedule", list(ComputeSchedule))
    def test_one_layer_takes_a_few_maps_and_keys(self, schedule):
        spec, layer = price_chain()[0]
        stream = layer_stream(layer, spec, schedule, MachineConfig())
        applied, keys = [], []
        cycles = counted(stream, applied, keys).cycles()
        assert cycles == stream.cycles()
        assert (len(applied), len(keys)) == self.PINNED[schedule]


def map_rows(m):
    """``m`` as {slot: {source: offset}}, whatever the order of its terms."""
    return {s: dict(terms) for s, terms in zip(m.slots, m.terms)}


def swept_programs():
    """Rotating, pinned and CSR programs over ``vec_instr_cycles`` 1-3,
    overlap on and off, and a sweep of unit shapes.  Lanes only shape the
    chunks, and the register count only picks the tile width."""
    chunkings = sorted({_chunk_lengths(size, lanes) for size in (1, 3, 8, 17)
                        for lanes in VALID_LANES})
    for vic in (1, 2, 3):
        for overlap in (True, False):
            cfg = MachineConfig(vec_instr_cycles=vic, overlap_enabled=overlap)
            yield cfg, _csr_units(cfg)
            for chunks in chunkings:
                yield cfg, _rotating_units(chunks, cfg)
                for width in (2, 3, 9):
                    yield cfg, _pinned_units(chunks, width, cfg)


class TestCyclePowers:
    def test_each_stored_power_is_one_cycle_more_and_the_last_gains_d(self):
        for _, prog in swept_programs():
            assert prog.powers
            for phase, (maps, gain) in enumerate(prog.powers):
                c = prog.cycles[phase]
                assert maps[0] == c
                for before, power in zip(maps, maps[1:]):
                    assert map_rows(power) == map_rows(_compose(before, c))
                after = map_rows(_compose(maps[-1], c))
                assert after == {s: {src: off + gain for src, off in row.items()}
                                 for s, row in map_rows(maps[-1]).items()}

    def test_blocks_price_alike_with_and_without_powers(self):
        for cfg, prog in swept_programs():
            stepped = prog._replace(powers=(),
                                    code=prog.code._replace(powers=()))
            k = max(len(maps) for maps, _ in prog.powers)
            for full in (1, k, k + 3):
                for rest in {0, prog.period - 1}:
                    phase = (full + rest) % len(prog.variants)
                    blocks = [_Block(2, 2, full * prog.period + rest, p, phase)
                              for p in (prog, stepped)]
                    want = simulate(LayerStream(blocks[:1], 0, cfg).expand(),
                                    cfg).total_cycles
                    assert [LayerStream((b,), 0, cfg).cycles()
                            for b in blocks] == [want, want]

    def test_a_cycle_map_that_leaves_a_slot_alone_gets_no_powers(self):
        # q1 is loaded once ahead of the block, whose unit only reads it, so
        # its cycle map never writes q1's ready slot
        prog = _compile(((ldv("q0"), macv("q0", "q1")),), 1, CFG)
        assert prog.regs == ("q0", "q1") and 4 not in prog.cycles[0].slots
        assert prog.powers == ()
        stream = LayerStream((_Block(1, 0, 1, _compile(((ldv("q1"),),), 0, CFG)),
                              _Block(5, 2, 7, prog)), 3, CFG)
        assert stream.cycles() == simulate(stream.expand(), CFG).total_cycles \
            + 3 * CFG.post_cycles


def reference_key(phase, x):
    """The state key rule over a whole state: the phase, then every slot
    relative to the memory unit's next free cycle, ready cycles clamped to
    the ALU's and reader ends to the cycle before the memory unit's."""
    m, a = x[0], x[1]
    return (phase, a - m, *[(v if v > a else a) - m for v in x[2::2]],
            *[(v if v >= m else m - 1) - m for v in x[3::2]])


class TestStraightLineCode:
    def test_each_compiled_map_leaves_the_state_as_its_map_does(self):
        rng = np.random.default_rng(3)
        for _, prog in swept_programs():
            code = prog.code
            # (map, function, whether it also takes a gain)
            pairs = [(m, f, False) for m, f in (*zip(prog.units, code.units),
                                                *zip(prog.cycles, code.cycles))]
            assert len(pairs) == 2 * len(prog.variants)
            assert [g for _, g in code.powers] == [g for _, g in prog.powers]
            for (maps, _), (fs, _) in zip(prog.powers, code.powers):
                assert len(fs) == len(maps)
                pairs += [(m, f, True) for m, f in zip(maps, fs)]
            width = 2 + 2 * len(prog.regs)
            for _ in range(3):
                x = rng.integers(-20, 60, width).tolist()
                gain = int(rng.integers(0, 40))
                for m, f, gains in pairs:
                    want, got = list(x), list(x)
                    _apply(m, want)
                    if gains:  # a power writes every slot, each plus the gain
                        f(got, gain)
                        want = [v + gain for v in want]
                    else:
                        f(got)
                    assert got == want

    def test_the_state_key_follows_the_key_rule(self):
        rng = np.random.default_rng(4)
        for width in range(4, 21, 2):
            key = _state_key(width)
            assert _state_key(width) is key
            for _ in range(200):
                # slots near both units' next free cycles, to take every
                # side of each clamp
                x = rng.integers(0, 9, width).tolist()
                phase = int(rng.integers(0, 5))
                assert key(phase, x) == reference_key(phase, x)


class TestAffineInKeptCount:
    @settings(derandomize=True, deadline=None, max_examples=150, database=None)
    @given(data=st.data())
    def test_cycles_are_affine_in_the_kept_count(self, data):
        kh, kw = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        spec = ConvLayerSpec(
            n_filters=data.draw(st.integers(2, 4)), kernel_h=kh, kernel_w=kw,
            channels=data.draw(st.integers(1, 39)),
            input_h=data.draw(st.integers(kh, kh + 6)),
            input_w=data.draw(st.integers(kw, kw + 6)),
            stride=data.draw(st.integers(1, 2)))
        cfg = MachineConfig(lanes=data.draw(st.sampled_from(VALID_LANES)),
                            vec_instr_cycles=data.draw(st.integers(1, 3)),
                            overlap_enabled=data.draw(st.booleans()),
                            register_count=data.draw(st.integers(3, 11)))
        kind = data.draw(st.sampled_from(sorted(AFFINE_KINDS)))
        counts = data.draw(st.lists(st.integers(0, kept_units(spec, kind)),
                                    min_size=1, max_size=4))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        assert affine_failure(spec, kind, cfg, counts, rng) is None
