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
stored and returns it as a ``LayerStream``, a tuple built in a few Python
calls.  Lowering expands it, counting multiplies each unit's counts by its
repeats, and ``LayerStream.cycles`` prices it without expanding it.

Every timing rule sets a start cycle to a max of earlier times plus fixed
offsets, so issuing one instruction is a max-plus map of a flat issue state:
the memory unit's and the ALU's next free cycles, then per register the
first cycle a MAC may read it and the last cycle of its latest reader.  The
rules are written once, as these per-instruction maps; ``simulate`` applies
them one instruction at a time.  Maps compose exactly, so each family of
units (rotating, pinned, CSR) is compiled where it is built, once per unit
shape and machine, with its registers and kinds checked then: per rotation
phase, the map of that phase's unit and the map C of a whole phase cycle
(the units after which the phase is back where it started).  Compiling also
resolves each phase cycle's period: C is composed with itself until C^(k+1)
is C^k plus one gain D on every term, and C^1..C^k and D are kept.  Every
map is homogeneous, f(x + c) = f(x) + c, so C^(k+j) = C^k + j*D.  Last,
each map a block applies (unit, cycle and power) becomes one straight-line
Python function of the state, lines like ``x[3] = max(x[0] + 2, x[5] + 1)``,
and so does the state key below, once per state width.  A block holds that
program.  ``LayerStream.cycles`` assigns the stream's slots once, checks up
front that no MAC reads a register before a load writes it, and issues a
position's full phase cycles as one power plus a multiple of D; a cycle map
without powers (one that leaves a slot alone, or that does not settle
within a few powers) is applied once per cycle instead.

Positions repeat.  Before each one the state is keyed on the phase and on
every slot relative to the memory unit's next free cycle, as a flat tuple,
with times that can no longer delay anything clamped.  Equal keys give
equal futures up to a shift, so when a key recurs after P positions and D
cycles, whole periods are skipped by adding D per period to every slot, and
only the remainder is issued.  The cycle count is exact.
"""

import re
from dataclasses import astuple, dataclass
from enum import Enum
from functools import cached_property, lru_cache, reduce
from math import gcd
from typing import Callable, NamedTuple

from .errors import ConfigError, StreamError
from .fwcs import CsrLayer, FwcsLayer
from .tensor import ConvLayerSpec, is_integer

LOAD_VEC = "ldv"
LOAD_SCALAR = "lds"
MAC_VEC = "macv"
MAC_SCALAR = "macs"

_MEM_KINDS = (LOAD_VEC, LOAD_SCALAR)
_ALU_KINDS = (MAC_VEC, MAC_SCALAR)
_VEC_KINDS = (LOAD_VEC, MAC_VEC)
# slot of each kind in a program's tally: macs, vector loads, scalar loads
_TALLY_SLOT = {MAC_VEC: 0, MAC_SCALAR: 0, LOAD_VEC: 1, LOAD_SCALAR: 2}

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
        # configs key the compiled-unit memo, where 4.0 would pass for 4
        for name in ("lanes", "vec_instr_cycles", "register_count",
                     "post_cycles"):
            v = getattr(self, name)
            if not is_integer(v):
                raise ConfigError(f"{name} {v!r} is not an integer")
            object.__setattr__(self, name, int(v))
        if not isinstance(self.overlap_enabled, bool):
            raise ConfigError(
                f"overlap_enabled {self.overlap_enabled!r} is not a bool")
        if self.vec_instr_cycles < 1:
            raise ConfigError("vec_instr_cycles must be >= 1")
        if self.lanes not in VALID_LANES:
            raise ConfigError(f"lanes {self.lanes} not in {VALID_LANES}")
        if self.register_count < 3:
            raise ConfigError("need at least 3 vector registers")
        if self.post_cycles < 0:
            raise ConfigError("post_cycles must be >= 0")
        # hashed once: every lowering looks its compiled programs up by it
        object.__setattr__(self, "_hash", hash(astuple(self)))

    def __hash__(self) -> int:
        return self._hash


class Instruction(NamedTuple):
    """One abstract op.  Registers are names like 'q0' (vector) or 's1' (scalar).

    A tuple, so each distinct instruction is mapped once per compiled
    block or simulated stream.
    """

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


# The issue state is a flat list of slots: the memory unit's next free cycle,
# the ALU's, then for the k-th register the first cycle a MAC may read it
# (slot 2 + 2k) and the last cycle of its latest reader (slot 3 + 2k).
_MEM, _ALU = 0, 1


class _Map(NamedTuple):
    """A max-plus map of the issue state.

    Slot ``slots[i]`` becomes the max of ``state[src] + offset`` over the
    pairs ``terms[i]``, all read before any slot is written; every other
    slot keeps its value.
    """

    slots: tuple[int, ...]
    terms: tuple[tuple[tuple[int, int], ...], ...]
    needs: frozenset[str]  # registers read before the map loads them
    loads: frozenset[str]


_IDENTITY = _Map((), (), frozenset(), frozenset())


def _plus(terms, offset: int) -> tuple:
    return tuple((src, off + offset) for src, off in terms)


def _op_map(ins: Instruction, cfg: MachineConfig, slot: dict[str, int]) -> _Map:
    """The map issuing ``ins`` under ``cfg``, over registers whose ready
    slots ``slot`` gives; its registers and kind are checked here."""
    d = duration(ins, cfg)
    if ins.kind in _MEM_KINDS:
        _check_register(ins.dst, cfg)
        if ins.dst is None:  # reads and writes no register
            return _Map((_MEM,), (((_MEM, d),),), frozenset(), frozenset())
        ready = slot[ins.dst]
        # WAR: every earlier consumer of this register must be done
        start = ((_MEM, 0), (ready + 1, 1))
        # a consumer may start once the first slice is in, or, with overlap
        # disabled, once the whole load is
        first = 1 if cfg.overlap_enabled else d
        return _Map((_MEM, ready), (_plus(start, d), _plus(start, first)),
                    frozenset(), frozenset((ins.dst,)))
    if ins.kind in _ALU_KINDS:
        for r in ins.srcs:
            _check_register(r, cfg)
        regs = tuple(dict.fromkeys(ins.srcs))
        start = ((_ALU, 0),) + tuple((slot[r], 0) for r in regs)
        # MACs end in issue order, so this is each reader's last end
        return _Map((_ALU,) + tuple(slot[r] + 1 for r in regs),
                    (_plus(start, d),) + (_plus(start, d - 1),) * len(regs),
                    frozenset(regs), frozenset())
    raise StreamError(f"unknown instruction kind {ins.kind!r}")


def _compose(first: _Map, then: _Map) -> _Map:
    """``then`` applied after ``first``, as one map."""
    before = dict(zip(first.slots, first.terms))
    rows = dict(before)
    for s, terms in zip(then.slots, then.terms):
        best: dict[int, int] = {}
        for src, off in terms:
            for s0, off0 in before.get(src, ((src, 0),)):
                if s0 not in best or off + off0 > best[s0]:
                    best[s0] = off + off0
        rows[s] = tuple(best.items())
    return _Map(tuple(rows), tuple(rows.values()),
                first.needs | (then.needs - first.loads),
                first.loads | then.loads)


def _apply(m: _Map, x: list[int]) -> None:
    for s, v in zip(m.slots, [max([x[src] + off for src, off in terms])
                              for terms in m.terms]):
        x[s] = v


def _check_reads(m: _Map, loaded: set[str]) -> None:
    """Raise unless every register ``m`` reads first is in ``loaded``, then
    add the registers it loads."""
    missing = m.needs - loaded
    if missing:
        raise StreamError(f"MAC reads {min(missing)} before any load wrote it")
    loaded |= m.loads


def _expr(terms) -> str:
    """Source of the max of ``x[src] + offset`` over ``terms``."""
    parts = [f"x[{src}] + {off}" if off else f"x[{src}]" for src, off in terms]
    return parts[0] if len(parts) == 1 else f"max({', '.join(parts)})"


def _function(params: str, body: str) -> Callable:
    """The function of ``params`` whose body is the one line ``body``."""
    exec(f"def f({params}):\n    {body}\n", scope := {})
    return scope["f"]


def _straight(m: _Map, gain: bool = False) -> Callable:
    """``_apply`` of ``m`` as one straight-line function of the state ``x``;
    with ``gain``, a function of ``(x, g)`` that also adds ``g`` to every
    slot it writes."""
    lhs = ", ".join(f"x[{s}]" for s in m.slots)
    rhs = ", ".join(_expr(terms) + " + g" * gain for terms in m.terms)
    return _function("x, g" if gain else "x", f"{lhs} = {rhs}")


@lru_cache(maxsize=None)
def _state_key(width: int) -> Callable:
    """The key of a phase and a ``width``-slot state: everything that
    decides later issue times, relative to the memory unit's next free cycle.

    A load never starts before the memory unit is free and a MAC never
    before the ALU is, and both only grow, so a reader end below the one
    and a ready cycle at or below the other can no longer bind and are
    clamped to them.
    """
    names = "".join(f", x{i}" for i in range(2, width))
    ready = "".join(f", (x{i} - m if x{i} > a else d)"
                    for i in range(2, width, 2))
    ends = "".join(f", (x{i} - m if x{i} >= m else -1)"
                   for i in range(3, width, 2))
    return _function("phase, x", f"m, a{names} = x; d = a - m; "
                                 f"return (phase, d{ready}{ends})")


def simulate(stream, cfg: MachineConfig = MachineConfig()) -> CycleTrace:
    """Greedy in-order dual-unit schedule of ``stream``; cycles are 1-based."""
    x = [1, 1]
    slot: dict[str, int] = {}  # a register's ready slot, from its first use
    maps: dict[Instruction, tuple] = {}
    loaded: set[str] = set()
    ops: list[ScheduledOp] = []
    for ins in stream:
        if ins not in maps:
            for r in (ins.dst, *ins.srcs):
                if r is not None and r not in slot:
                    slot[r] = len(x)
                    x += [0, 0]
            maps[ins] = (_op_map(ins, cfg, slot), duration(ins, cfg),
                         _ALU if ins.kind in _ALU_KINDS else _MEM)
        m, d, unit = maps[ins]
        _check_reads(m, loaded)
        _apply(m, x)
        # the op's unit is now free from the cycle after it ends
        ops.append(ScheduledOp(ins, x[unit] - d, x[unit] - 1))
    # each unit's latest op ends the cycle before it frees; 0 if none ran
    return CycleTrace(tuple(ops), max(x[_MEM], x[_ALU]) - 1)


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


@lru_cache(maxsize=64)
def _chunk_lengths(size: int, lanes: int) -> tuple[int, ...]:
    return tuple(min(lanes, size - k) for k in range(0, size, lanes))


class _Program(NamedTuple):
    """A block's unit variants, each advancing the phase by ``step``, and
    their maps for one machine: per phase, the map of its unit and the map
    of one phase cycle, the ``period`` units after which the phase first
    returns to where it started.

    ``powers`` holds, per phase, the powers C^1..C^k of its cycle map C
    and the gain D with C^(k+1) = C^k + D, so that C^(k+j) = C^k + j*D;
    it is empty unless every phase has them."""

    variants: tuple[tuple[Instruction, ...], ...]
    step: int
    regs: tuple[str, ...]  # register k has the ready slot 2 + 2k
    units: tuple[_Map, ...]
    cycles: tuple[_Map, ...]
    period: int
    tally: tuple[int, int, int]  # macs, vector and scalar loads per unit
    powers: tuple[tuple[tuple[_Map, ...], int], ...]
    code: "_Code"


class _Code(NamedTuple):
    """What issuing a block runs: ``_straight`` of each map of its program,
    per phase, and the state key of its width."""

    units: tuple[Callable, ...]
    cycles: tuple[Callable, ...]
    powers: tuple[tuple[tuple[Callable, ...], int], ...]
    key: Callable


# the most powers of one cycle map that compiling tries before a block falls
# back to applying the map once per cycle
_MAX_POWER = 8


def _powers(c: _Map, width: int) -> tuple[tuple[_Map, ...], int] | None:
    """C^1..C^k of the cycle map ``c`` over a state of ``width`` slots and
    the gain D with C^(k+1) = C^k + D, for the least k up to
    ``_MAX_POWER``; None if there is none.

    Only a map that writes every slot qualifies: adding D to a slot that
    it leaves alone would move that slot too.  Every map is homogeneous,
    f(x + c) = f(x) + c, so C^(k+j) = C^k + j*D follows by induction on j.
    """
    if len(c.slots) != width:
        return None
    powers = [c]
    while len(powers) <= _MAX_POWER:
        nxt = _compose(powers[-1], c)
        gain = _gain(powers[-1], nxt)
        if gain is not None:
            return tuple(powers), gain
        powers.append(nxt)
    return None


def _gain(a: _Map, b: _Map) -> int | None:
    """The D with ``b`` = ``a`` + D on every (slot, source) term, or None."""
    rows = {s: dict(t) for s, t in zip(a.slots, a.terms)}
    other = {s: dict(t) for s, t in zip(b.slots, b.terms)}
    if rows.keys() != other.keys() or any(
            rows[s].keys() != other[s].keys() for s in rows):
        return None
    gains = {other[s][src] - off for s, row in rows.items()
             for src, off in row.items()}
    return gains.pop() if len(gains) == 1 else None


def _compile(variants: tuple, step: int, cfg: MachineConfig) -> _Program:
    """The unit variants of a block whose units advance the phase by
    ``step``, as maps under ``cfg``."""
    regs = tuple(sorted({r for unit in variants for ins in unit
                         for r in (ins.dst, *ins.srcs) if r is not None}))
    slot = {r: 2 + 2 * k for k, r in enumerate(regs)}
    ops = {ins: _op_map(ins, cfg, slot)
           for ins in dict.fromkeys(ins for unit in variants for ins in unit)}
    units = tuple(reduce(_compose, [ops[ins] for ins in unit], _IDENTITY)
                  for unit in variants)
    n = len(units)
    period = n // gcd(step, n)
    cycles = tuple(reduce(_compose, [units[(p + k * step) % n]
                                     for k in range(period)])
                   for p in range(n))
    tally = [0, 0, 0]
    for ins in variants[0]:
        tally[_TALLY_SLOT[ins.kind]] += 1
    width = 2 + 2 * len(regs)
    powers = [_powers(c, width) for c in cycles]
    powers = () if None in powers else tuple(powers)
    code = _Code(tuple(map(_straight, units)), tuple(map(_straight, cycles)),
                 tuple((tuple(_straight(p, gain=True) for p in maps), gain)
                       for maps, gain in powers),
                 _state_key(width))
    return _Program(variants, step, regs, units, cycles, period, tuple(tally),
                    powers, code)


class _Block(NamedTuple):
    """``repeats`` x [``head`` scalar loads, then ``units`` units].

    The unit at phase ``p`` is ``program.variants[p]``; each unit advances
    the phase by ``program.step`` (mod the number of variants), starting
    from ``phase``.
    """

    repeats: int
    head: int
    units: int
    program: _Program
    phase: int = 0

    def next_phase(self, phase: int) -> int:
        return (phase + self.program.step) % len(self.program.variants)

    def check_reads(self, loaded: set[str]) -> None:
        """Raise if a MAC of the block reads a register that no load of
        ``loaded`` or of the block has written before it.

        A phase cycle visits every phase the block reaches, and a check
        that passes once passes for every later visit.
        """
        prog, n, phase = self.program, self.repeats * self.units, self.phase
        if n >= prog.period:
            _check_reads(prog.cycles[phase], loaded)
            return
        for _ in range(n):
            _check_reads(prog.units[phase], loaded)
            phase = self.next_phase(phase)

    def run(self, x: list[int]) -> None:
        """Issue every repeat of the block after the state ``x``, whose
        registers are ``program.regs``, skipping whole periods of repeats
        once the keyed state recurs."""
        prog = self.program
        units, cycles, powers, key = prog.code
        step, n_variants = prog.step, len(prog.variants)
        full, rest = divmod(self.units, prog.period)
        phase, i, n = self.phase, 0, self.repeats
        seen: dict | None = {}
        while i < n:
            if seen is not None:
                state = key(phase, x)
                if state in seen:
                    j, mem_free = seen[state]
                    periods = (n - i) // (i - j)
                    gain = periods * (x[_MEM] - mem_free)
                    x[:] = [v + gain for v in x]
                    i += periods * (i - j)
                    seen = None
                    continue
                seen[state] = (i, x[_MEM])
            x[_MEM] += self.head  # the head's scalar loads only move it on
            # a position's full phase cycles return to its phase
            if powers and full:
                fns, gain = powers[phase]
                fns[min(full, len(fns)) - 1](x, gain * max(full - len(fns), 0))
            else:
                for _ in range(full):
                    cycles[phase](x)
            for _ in range(rest):
                units[phase](x)
                phase = (phase + step) % n_variants
            i += 1


class LayerStream(NamedTuple):
    """A lowered layer as nested repeats, its output count and the machine
    it was lowered for.

    A tuple, so building one per call is cheap.  Expanding it yields the
    instruction stream; counting and pricing it never do.
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
                    stream.extend(b.program.variants[phase])
                    phase = b.next_phase(phase)
        return stream

    def counts(self) -> dict[str, int]:
        macs = vector = scalar = 0
        for b in self.blocks:
            n = b.repeats * b.units
            m, v, s = b.program.tally
            macs += n * m
            vector += n * v
            scalar += b.repeats * b.head + n * s
        return {"macs": macs, "vector_loads": vector, "scalar_loads": scalar}

    def cycles(self) -> int:
        """Simulated cycles of the expanded stream, plus post-processing."""
        loaded: set[str] = set()
        for b in self.blocks:
            b.check_reads(loaded)
        regs = (self.blocks[0].program.regs if len(self.blocks) == 1 else
                tuple(sorted({r for b in self.blocks for r in b.program.regs})))
        x = [1, 1] + [0, 0] * len(regs)
        for b in self.blocks:
            if b.program.regs == regs:
                b.run(x)
                continue
            # the block's own slots, gathered from the stream's and put back
            idx = [_MEM, _ALU, *(2 + 2 * regs.index(r) + k
                                 for r in b.program.regs for k in (0, 1))]
            local = [x[i] for i in idx]
            b.run(local)
            for i, v in zip(idx, local):
                x[i] = v
        return max(x[_MEM], x[_ALU]) - 1 + self.outputs * self.cfg.post_cycles


@lru_cache(maxsize=256)
def _rotating_units(chunks: tuple[int, ...], cfg: MachineConfig) -> _Program:
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
    return _compile(tuple(units), 2 * len(chunks), cfg)


@lru_cache(maxsize=256)
def _pinned_units(chunks: tuple[int, ...], width: int,
                  cfg: MachineConfig) -> _Program:
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
    return _compile(tuple(units), width * len(chunks), cfg)


@lru_cache(maxsize=16)
def _csr_units(cfg: MachineConfig) -> _Program:
    """Unit per phase ``rot % 4``: an index read, then a weight and a
    feature into two of eight rotating scalar registers, then a scalar MAC."""
    return _compile(tuple((lds(), lds(f"s{2 * rot}"), lds(f"s{2 * rot + 1}"),
                           macs((f"s{2 * rot}", f"s{2 * rot + 1}")))
                          for rot in range(4)), 1, cfg)


def _fwcs_blocks(n_retained: int, size: int, positions: int, patch: int,
                 schedule: ComputeSchedule,
                 cfg: MachineConfig) -> tuple[_Block, ...]:
    """The blocks of an FWCS layer keeping ``n_retained`` (at least one)
    filterlets of length ``size``, over ``positions`` output positions
    with ``patch`` input values each; which filterlets are kept does not
    change them."""
    chunks = _chunk_lengths(size, cfg.lanes)
    if schedule is ComputeSchedule.DEFAULT:
        return (_Block(positions, patch, n_retained,
                       _rotating_units(chunks, cfg)),)
    if schedule is not ComputeSchedule.REORDERED:
        raise ConfigError(f"unknown schedule {schedule}")
    tile = max(1, cfg.register_count - 2)
    full, last = divmod(positions, tile)
    blocks = []
    alt = 0
    for repeats, width in ((full, tile), (1, last)):
        if repeats == 0 or width == 0:
            continue
        if width == 1:
            # nothing to reuse in a one-position tile; rotating
            # registers avoid the pinned register's reload stall
            blocks.append(_Block(repeats, patch, n_retained,
                                 _rotating_units(chunks, cfg)))
            continue
        prog = _pinned_units(chunks, width, cfg)
        blocks.append(_Block(repeats, patch * width, n_retained, prog,
                             alt % 2))
        alt += repeats * n_retained * prog.step
    return tuple(blocks)


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
    # spec.out_positions and spec.filterlets_per_filter, read off the
    # fields once: each property call is a cost on every lowering
    kernel, stride = spec.kernel_h * spec.kernel_w, spec.stride
    positions = ((spec.input_h - spec.kernel_h) // stride + 1) * \
        ((spec.input_w - spec.kernel_w) // stride + 1)
    patch = kernel * spec.channels
    if isinstance(weights, CsrLayer):
        n = weights.n_retained
        blocks = (_Block(positions, patch, n, _csr_units(cfg)),) if n else ()
    else:
        if isinstance(weights, FwcsLayer):
            n, size = weights.n_retained, weights.size
        else:
            n, size = spec.n_filters * kernel, spec.channels
        blocks = _fwcs_blocks(n, size, positions, patch, schedule,
                              cfg) if n else ()
    return LayerStream(blocks, spec.n_filters * positions, cfg)


# Former per-format entry points, kept as aliases of ``layer_stream`` only
# because the benchmark harness names them; they go with ROADMAP item 7.
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
