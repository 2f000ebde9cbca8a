"""Dual-unit cycle-level simulator for abstract vector instruction streams.

The machine has two independent units: a memory unit that executes loads and
an ALU that executes multiply-accumulates.  Vector instructions occupy their
unit for ``vec_instr_cycles`` consecutive cycles (two on the modeled core);
scalar bookkeeping ops take one.  Issue is greedy and in order per unit, and
three timing rules govern overlap:

  * a consumer may start one cycle after the load producing its operand
    starts, because the first slice of the register is already usable;
  * with overlap disabled, a consumer waits for the full load instead;
  * a load that overwrites a register waits until every earlier MAC reading
    that register has fully finished.

Under these rules the canned two-MAC demos complete in 9 cycles (fresh
operand pair per MAC, ALU idle for two cycles mid-stream) versus 7 cycles
(one operand pinned, alternating feature loads, no ALU idling).

A layer's stream is described once, as blocks of nested repeats: per output
position (or position tile) a run of patch loads, then one unit per retained
filterlet, where a unit's registers depend only on a small rotation phase.
``layer_stream`` picks the description from the type of the layer as
stored and returns it as a ``LayerStream``.  Lowering expands it, counting
multiplies each unit's counts by its repeats, and ``LayerStream.cycles``
runs the same issue state as ``simulate`` over it without expanding it.
After each unit and each block that state is keyed on the phase and on
every time relative to the memory unit's next free cycle, with times that
can no longer delay anything clamped.  Equal keys give equal futures up to
a shift, so when a key recurs after P steps and D cycles, whole periods are
skipped by adding D per period to every time, and only the remainder is
simulated.  Every distinct unit is simulated before any skip, so the
register checks still fire, and the cycle count is exact.
"""

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial

from .errors import ConfigError, StreamError
from .fwcs import CsrLayer, FwcsLayer
from .tensor import ConvLayerSpec

LOAD_VEC = "ldv"
LOAD_SCALAR = "lds"
MAC_VEC = "macv"
MAC_SCALAR = "macs"

_MEM_KINDS = (LOAD_VEC, LOAD_SCALAR)
_ALU_KINDS = (MAC_VEC, MAC_SCALAR)
_VEC_KINDS = (LOAD_VEC, MAC_VEC)

VALID_LANES = (2, 4, 8, 16)


class ComputeSchedule(Enum):
    """Loop order of the simulated sparse kernel; both compute the same values."""

    DEFAULT = "default"
    REORDERED = "reordered"


@dataclass(frozen=True)
class MachineConfig:
    """Simulated core parameters."""

    lanes: int = 4
    vec_instr_cycles: int = 2
    overlap_enabled: bool = True
    register_count: int = 8
    post_cycles: int = 2  # scalar cycles per output value for bias + requantize

    def __post_init__(self):
        if self.vec_instr_cycles < 1:
            raise ConfigError("vec_instr_cycles must be >= 1")
        if self.lanes not in VALID_LANES:
            raise ConfigError(f"lanes {self.lanes} not in {VALID_LANES}")
        if self.register_count < 3:
            raise ConfigError("need at least 3 vector registers")
        if self.post_cycles < 0:
            raise ConfigError("post_cycles must be >= 0")


@dataclass(frozen=True)
class Instruction:
    """One abstract op.  Registers are names like 'q0' (vector) or 's1' (scalar)."""

    kind: str
    dst: str | None = None
    srcs: tuple[str, ...] = ()
    span: int = 1

    def label(self) -> str:
        if self.kind in _MEM_KINDS:
            return f"LD {self.dst or '-'} {self.span}"
        return f"MAC a0 {' '.join(self.srcs) if self.srcs else '- -'}"


def ldv(dst: str, span: int = 1) -> Instruction:
    return Instruction(LOAD_VEC, dst=dst, span=span)


def lds(dst: str | None = None) -> Instruction:
    return Instruction(LOAD_SCALAR, dst=dst)


def macv(a: str, b: str, span: int = 1) -> Instruction:
    return Instruction(MAC_VEC, srcs=(a, b), span=span)


def macs(srcs: tuple[str, ...]) -> Instruction:
    return Instruction(MAC_SCALAR, srcs=srcs)


def duration(ins: Instruction, cfg: MachineConfig) -> int:
    return cfg.vec_instr_cycles if ins.kind in _VEC_KINDS else 1


@dataclass(frozen=True)
class ScheduledOp:
    ins: Instruction
    start: int
    end: int  # inclusive


@dataclass(frozen=True)
class CycleTrace:
    """Issue schedule of one simulated stream."""

    ops: tuple[ScheduledOp, ...]
    total_cycles: int

    @cached_property
    def records(self) -> list[tuple[int, str, str]]:
        """(cycle, mem label, alu label) rows; 'idle' where a unit has no op."""
        mem = ["idle"] * self.total_cycles
        alu = ["idle"] * self.total_cycles
        for op in self.ops:
            lane = mem if op.ins.kind in _MEM_KINDS else alu
            for c in range(op.start, op.end + 1):
                lane[c - 1] = op.ins.label()
        return [(c + 1, mem[c], alu[c]) for c in range(self.total_cycles)]

    def count(self, kind: str) -> int:
        return sum(1 for op in self.ops if op.ins.kind == kind)


_VREG = re.compile(r"^q(\d+)$")


def _check_register(name: str | None, cfg: MachineConfig) -> None:
    if name is None:
        return
    m = _VREG.match(name)
    if m and int(m.group(1)) >= cfg.register_count:
        raise ConfigError(
            f"register {name} outside the {cfg.register_count}-register file"
        )


class _Timing:
    """Resumable issue state of the two units; every simulation path runs it."""

    def __init__(self, cfg: MachineConfig):
        self.cfg = cfg
        self.mem_free = 1
        self.alu_free = 1
        self.load_start: dict[str, int] = {}
        self.load_end: dict[str, int] = {}
        self.reader_end: dict[str, int] = {}

    @property
    def total(self) -> int:
        # each unit's latest op ends the cycle before it frees; 0 if none ran
        return max(self.mem_free, self.alu_free) - 1

    def issue(self, ins: Instruction) -> int:
        """Schedule ``ins`` after everything issued so far; return its start."""
        d = duration(ins, self.cfg)
        if ins.kind in _MEM_KINDS:
            _check_register(ins.dst, self.cfg)
            start = self.mem_free
            if ins.dst is not None:
                # WAR: every earlier consumer of this register must be done
                start = max(start, self.reader_end.get(ins.dst, 0) + 1)
                self.load_start[ins.dst] = start
                self.load_end[ins.dst] = start + d - 1
            self.mem_free = start + d
        elif ins.kind in _ALU_KINDS:
            start = self.alu_free
            for r in ins.srcs:
                _check_register(r, self.cfg)
                if r not in self.load_start:
                    raise StreamError(f"MAC reads {r} before any load wrote it")
                ready = (self.load_start[r] + 1) if self.cfg.overlap_enabled \
                    else (self.load_end[r] + 1)
                start = max(start, ready)
            self.alu_free = start + d
            for r in ins.srcs:
                self.reader_end[r] = max(self.reader_end.get(r, 0), start + d - 1)
        else:
            raise StreamError(f"unknown instruction kind {ins.kind!r}")
        return start

    def run(self, instructions) -> None:
        for ins in instructions:
            self.issue(ins)

    def key(self) -> tuple:
        """Everything that decides later issue times, relative to ``mem_free``.

        A load never starts before ``mem_free`` and a MAC never before
        ``alu_free``, both of which only grow, so a reader end below
        ``mem_free`` and a load time below ``alu_free`` can no longer bind
        and are clamped to one cycle before them.
        """
        m, a = self.mem_free, self.alu_free
        return (a - m,
                tuple((r, max(v, m - 1) - m) for r, v in self.reader_end.items()),
                tuple((r, max(v, a - 1) - m) for r, v in self.load_start.items()),
                tuple((r, max(v, a - 1) - m) for r, v in self.load_end.items()))

    def shift(self, cycles: int) -> None:
        self.mem_free += cycles
        self.alu_free += cycles
        for times in (self.load_start, self.load_end, self.reader_end):
            for r in times:
                times[r] += cycles


def simulate(stream, cfg: MachineConfig = MachineConfig()) -> CycleTrace:
    """Greedy in-order dual-unit schedule of ``stream``; cycles are 1-based."""
    timing = _Timing(cfg)
    ops: list[ScheduledOp] = []
    for ins in stream:
        start = timing.issue(ins)
        ops.append(ScheduledOp(ins, start, start + duration(ins, cfg) - 1))
    return CycleTrace(tuple(ops), timing.total)


def two_mac_default_stream(span: int = 4) -> list[Instruction]:
    """Two MACs, each consuming a fresh operand pair, over three rotating registers."""
    return [
        ldv("q0", span), ldv("q1", span), macv("q0", "q1", span),
        ldv("q2", span), ldv("q0", span), macv("q2", "q0", span),
    ]


def two_mac_pinned_stream(span: int = 4) -> list[Instruction]:
    """Two MACs sharing a pinned operand; q1/q2 alternate the fresh one."""
    return [
        ldv("q0", span), ldv("q1", span), macv("q0", "q1", span),
        ldv("q2", span), macv("q0", "q2", span),
    ]


DEMO_STREAMS = {
    "fig9a": two_mac_default_stream,
    "fig9b": two_mac_pinned_stream,
}


def _chunk_lengths(size: int, lanes: int) -> list[int]:
    return [min(lanes, size - k) for k in range(0, size, lanes)]


def _repeat(timing: _Timing, n: int, phase: int, step) -> int:
    """Apply ``step`` (phase -> next phase) ``n`` times from ``phase``.

    Once the phase and the clamped state repeat, with a period of P steps
    and a gain of D cycles, the next whole periods are skipped by shifting
    every time by D per period; the remainder is run step by step.
    """
    seen: dict | None = {}
    i = 0
    while i < n:
        if seen is not None:
            key = (phase, timing.key())
            if key in seen:
                j, mem_free = seen[key]
                periods = (n - i) // (i - j)
                timing.shift(periods * (timing.mem_free - mem_free))
                i += periods * (i - j)
                seen = None
                continue
            seen[key] = (i, timing.mem_free)
        phase = step(phase)
        i += 1
    return phase


@dataclass(frozen=True)
class _Block:
    """``repeats`` x [``head`` scalar loads, then ``units`` units].

    The unit at phase ``p`` is ``variants[p]``; each unit advances the phase
    by ``step`` (mod the number of variants), starting from ``phase``.
    """

    repeats: int
    head: int
    units: int
    variants: tuple[tuple[Instruction, ...], ...]
    step: int
    phase: int = 0

    def next_phase(self, phase: int) -> int:
        return (phase + self.step) % len(self.variants)

    def run_unit(self, timing: _Timing, phase: int) -> int:
        timing.run(self.variants[phase])
        return self.next_phase(phase)

    def run_once(self, timing: _Timing, phase: int) -> int:
        timing.run([lds()] * self.head)
        return _repeat(timing, self.units, phase, partial(self.run_unit, timing))


_COUNT_KEYS = {LOAD_VEC: "vector_loads", LOAD_SCALAR: "scalar_loads",
               MAC_VEC: "macs", MAC_SCALAR: "macs"}


@dataclass(frozen=True)
class LayerStream:
    """A lowered layer as nested repeats, its output count and the machine
    it was lowered for.

    Expanding it yields the instruction stream; counting and pricing it
    never do.
    """

    blocks: tuple[_Block, ...]
    outputs: int
    cfg: MachineConfig

    def expand(self) -> list[Instruction]:
        stream: list[Instruction] = []
        for b in self.blocks:
            phase = b.phase
            for _ in range(b.repeats):
                stream.extend([lds()] * b.head)
                for _ in range(b.units):
                    stream.extend(b.variants[phase])
                    phase = b.next_phase(phase)
        return stream

    def counts(self) -> dict[str, int]:
        counts = {"macs": 0, "vector_loads": 0, "scalar_loads": 0}
        for b in self.blocks:
            counts["scalar_loads"] += b.repeats * b.head
            for ins in b.variants[0]:
                counts[_COUNT_KEYS[ins.kind]] += b.repeats * b.units
        return counts

    def cycles(self) -> int:
        """Simulated cycles of the expanded stream, plus post-processing."""
        timing = _Timing(self.cfg)
        for b in self.blocks:
            _repeat(timing, b.repeats, b.phase, partial(b.run_once, timing))
        return timing.total + self.outputs * self.cfg.post_cycles


def _rotating_units(chunks: list[int]) -> tuple[tuple[Instruction, ...], ...]:
    """Unit per phase ``rot % 3``: an index read, then per chunk a fresh
    weight/feature pair over three rotating registers."""
    pairs = (("q0", "q1"), ("q1", "q2"), ("q2", "q0"))
    # one object per distinct instruction keeps building the units cheap
    groups = {cl: [(ldv(w, cl), ldv(f, cl), macv(w, f, cl)) for w, f in pairs]
              for cl in set(chunks)}
    index = lds()  # read this filterlet's c_ptr entry
    units = []
    for rot in range(3):
        unit = [index]
        for cl in chunks:
            unit += groups[cl][rot % 3]
            rot += 2
        units.append(tuple(unit))
    return tuple(units)


def _pinned_units(chunks: list[int], width: int) -> tuple[tuple[Instruction, ...], ...]:
    """Unit per phase ``alt % 2``: one filterlet over a tile of ``width``
    positions, the weight chunk pinned in q0 and the features alternating
    between q1 and q2."""
    groups = {cl: (ldv("q0", cl),
                   [(ldv(f, cl), macv("q0", f, cl)) for f in ("q1", "q2")])
              for cl in set(chunks)}
    # index reads batched ahead of the run, one per position, so their reuse
    # keeps the chunk gapless
    index = lds()
    units = []
    for alt in range(2):
        unit = [index] * width
        for cl in chunks:
            pinned, pairs = groups[cl]
            unit.append(pinned)
            for _p in range(width):
                unit += pairs[alt % 2]
                alt += 1
        units.append(tuple(unit))
    return tuple(units)


def _fwcs_blocks(n_retained: int, size: int, spec: ConvLayerSpec,
                 schedule: ComputeSchedule, cfg: MachineConfig) -> list[_Block]:
    """The blocks of an FWCS layer keeping ``n_retained`` filterlets of
    length ``size``; which filterlets are kept does not change them."""
    if n_retained == 0:
        return []
    patch = spec.filterlets_per_filter * spec.channels
    chunks = _chunk_lengths(size, cfg.lanes)
    if schedule is ComputeSchedule.DEFAULT:
        blocks = [_Block(spec.out_positions, patch, n_retained,
                         _rotating_units(chunks), 2 * len(chunks))]
    elif schedule is ComputeSchedule.REORDERED:
        tile = max(1, cfg.register_count - 2)
        full, last = divmod(spec.out_positions, tile)
        blocks = []
        alt = 0
        for repeats, width in ((full, tile), (1, last)):
            if repeats == 0 or width == 0:
                continue
            if width == 1:
                # nothing to reuse in a one-position tile; rotating
                # registers avoid the pinned register's reload stall
                blocks.append(_Block(repeats, patch, n_retained,
                                     _rotating_units(chunks), 2 * len(chunks)))
                continue
            step = width * len(chunks)
            blocks.append(_Block(repeats, patch * width, n_retained,
                                 _pinned_units(chunks, width), step, alt % 2))
            alt += repeats * n_retained * step
    else:
        raise ConfigError(f"unknown schedule {schedule}")
    return blocks


# CSR unit per phase ``rot % 4``: an index read, then a weight and a feature
# into two of eight rotating scalar registers, then a scalar MAC
_CSR_UNITS = tuple(
    (lds(), lds(f"s{2 * rot}"), lds(f"s{2 * rot + 1}"),
     macs((f"s{2 * rot}", f"s{2 * rot + 1}")))
    for rot in range(4))


def _csr_blocks(n_retained: int, spec: ConvLayerSpec) -> list[_Block]:
    if n_retained == 0:
        return []
    patch = spec.filterlets_per_filter * spec.channels
    return [_Block(spec.out_positions, patch, n_retained, _CSR_UNITS, 1)]


def layer_stream(weights, spec: ConvLayerSpec, schedule: ComputeSchedule,
                 cfg: MachineConfig) -> LayerStream:
    """The stream executing one layer as stored, lowered for ``cfg``.

    An FwcsLayer runs the ``schedule`` stream of its retained filterlets, and
    a dense Tensor that of an FWCS layer keeping every filterlet.  Per output
    position the stream prefetches the receptive field (scalar loads) and
    reads one index entry per retained filterlet; each lane-wide chunk then
    costs two vector loads and a MAC in the default order, or a single
    feature load per MAC with the weight chunk pinned per tile in the
    reordered one.  A CsrLayer runs the per-weight baseline under either
    ``schedule``: one index, one weight and one feature load, then a scalar
    MAC, for every retained weight at every position.  A fully pruned layer
    emits nothing.
    """
    if isinstance(weights, CsrLayer):
        blocks = _csr_blocks(weights.n_retained, spec)
    elif isinstance(weights, FwcsLayer):
        blocks = _fwcs_blocks(weights.n_retained, weights.size, spec, schedule,
                              cfg)
    else:
        blocks = _fwcs_blocks(spec.n_filters * spec.filterlets_per_filter,
                              spec.channels, spec, schedule, cfg)
    return LayerStream(tuple(blocks), spec.n_filters * spec.out_positions, cfg)


# Former per-format entry points, kept as aliases of ``layer_stream`` only
# because the benchmark harness names them; they go with ROADMAP item 6.
def lower_schedule(layer, spec, schedule, cfg):
    return layer_stream(layer, spec, schedule, cfg).expand()


def schedule_counts(layer, spec, schedule, cfg):
    return layer_stream(layer, spec, schedule, cfg).counts()


def csr_counts(layer, spec):
    return layer_stream(layer, spec, ComputeSchedule.DEFAULT, MachineConfig()).counts()


def layer_cycles(layer, spec, schedule, cfg):
    return layer_stream(layer, spec, schedule, cfg).cycles()


def dump_trace(trace: CycleTrace) -> str:
    """One line per cycle: ``cycle,mem,alu``."""
    return "\n".join(f"{c},{mem},{alu}" for c, mem, alu in trace.records)
