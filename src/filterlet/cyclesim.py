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
(one operand pinned, alternating feature loads, no ALU idling), and the
two-register variant stalls the ALU for three cycles.
"""

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

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
    acc: str = "a0"
    span: int = 1

    def label(self) -> str:
        if self.kind in _MEM_KINDS:
            return f"LD {self.dst or '-'} {self.span}"
        return f"MAC {self.acc} {' '.join(self.srcs) if self.srcs else '- -'}"


def ldv(dst: str, span: int = 1) -> Instruction:
    return Instruction(LOAD_VEC, dst=dst, span=span)


def lds(dst: str | None = None) -> Instruction:
    return Instruction(LOAD_SCALAR, dst=dst)


def macv(a: str, b: str, span: int = 1, acc: str = "a0") -> Instruction:
    return Instruction(MAC_VEC, srcs=(a, b), span=span, acc=acc)


def macs(srcs: tuple[str, ...], acc: str = "a0") -> Instruction:
    return Instruction(MAC_SCALAR, srcs=srcs, acc=acc)


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

    def unit_idle_cycles(self, unit: str, lo: int = 1, hi: int | None = None) -> list[int]:
        hi = self.total_cycles if hi is None else hi
        col = 1 if unit == "mem" else 2
        return [c for c, *row in self.records
                if lo <= c <= hi and row[col - 1] == "idle"]

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


def simulate(stream, cfg: MachineConfig = MachineConfig()) -> CycleTrace:
    """Greedy in-order dual-unit schedule of ``stream``; cycles are 1-based."""
    mem_free = 1
    alu_free = 1
    load_start: dict[str, int] = {}
    load_end: dict[str, int] = {}
    reader_end: dict[str, int] = {}
    ops: list[ScheduledOp] = []
    for ins in stream:
        d = duration(ins, cfg)
        if ins.kind in _MEM_KINDS:
            _check_register(ins.dst, cfg)
            start = mem_free
            if ins.dst is not None:
                # WAR: every earlier consumer of this register must be done
                start = max(start, reader_end.get(ins.dst, 0) + 1)
            mem_free = start + d
            if ins.dst is not None:
                load_start[ins.dst] = start
                load_end[ins.dst] = start + d - 1
        elif ins.kind in _ALU_KINDS:
            start = alu_free
            for r in ins.srcs:
                _check_register(r, cfg)
                if r not in load_start:
                    raise StreamError(f"MAC reads {r} before any load wrote it")
                ready = (load_start[r] + 1) if cfg.overlap_enabled \
                    else (load_end[r] + 1)
                start = max(start, ready)
            alu_free = start + d
            for r in ins.srcs:
                reader_end[r] = max(reader_end.get(r, 0), start + d - 1)
        else:
            raise StreamError(f"unknown instruction kind {ins.kind!r}")
        ops.append(ScheduledOp(ins, start, start + d - 1))
    total = max((op.end for op in ops), default=0)
    return CycleTrace(tuple(ops), total)


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


def two_mac_two_register_stream(span: int = 4) -> list[Instruction]:
    """Degenerate variant with only q0/q1: both reloads stall on the first MAC."""
    return [
        ldv("q0", span), ldv("q1", span), macv("q0", "q1", span),
        ldv("q0", span), ldv("q1", span), macv("q0", "q1", span),
    ]


DEMO_STREAMS = {
    "fig9a": two_mac_default_stream,
    "fig9b": two_mac_pinned_stream,
}


def _chunk_lengths(size: int, lanes: int) -> list[int]:
    return [min(lanes, size - k) for k in range(0, size, lanes)]


def lower_schedule(layer: FwcsLayer, spec: ConvLayerSpec,
                   schedule: ComputeSchedule, cfg: MachineConfig) -> list[Instruction]:
    """Emit the abstract instruction stream executing ``layer`` under ``schedule``.

    Per output position the stream prefetches the receptive field (scalar
    loads) and reads one index entry per retained filterlet; each lane-wide
    chunk then costs two vector loads and a MAC in the default order, or a
    single feature load per MAC with the weight chunk pinned per tile in the
    reordered one.  A fully pruned layer emits nothing.
    """
    if layer.n_retained == 0:
        return []
    patch = spec.filterlets_per_filter * spec.channels
    chunks = _chunk_lengths(layer.size, cfg.lanes)
    stream: list[Instruction] = []
    retained = [(n, j) for n in range(spec.n_filters) for j in layer.filterlets_of(n)]
    if schedule is ComputeSchedule.DEFAULT:
        rot = 0
        for _pos in range(spec.out_positions):
            stream.extend(lds() for _ in range(patch))
            for _n, _j in retained:
                stream.append(lds())  # read this filterlet's c_ptr entry
                for cl in chunks:
                    wreg = f"q{rot % 3}"
                    freg = f"q{(rot + 1) % 3}"
                    rot += 2
                    stream.append(ldv(wreg, cl))
                    stream.append(ldv(freg, cl))
                    stream.append(macv(wreg, freg, cl))
    elif schedule is ComputeSchedule.REORDERED:
        tile = max(1, cfg.register_count - 2)
        alt = 0
        rot = 0
        for t0 in range(0, spec.out_positions, tile):
            width = min(tile, spec.out_positions - t0)
            stream.extend(lds() for _ in range(patch * width))
            for _n, _j in retained:
                for ci, cl in enumerate(chunks):
                    if width == 1:
                        # nothing to reuse in a one-position tile; rotating
                        # registers avoids the pinned register's reload stall
                        if ci == 0:
                            stream.append(lds())
                        wreg = f"q{rot % 3}"
                        freg = f"q{(rot + 1) % 3}"
                        rot += 2
                        stream.append(ldv(wreg, cl))
                        stream.append(ldv(freg, cl))
                        stream.append(macv(wreg, freg, cl))
                        continue
                    if ci == 0:
                        # index reads batched ahead of the run, one per
                        # position, so their reuse keeps the chunk gapless
                        stream.extend(lds() for _ in range(width))
                    stream.append(ldv("q0", cl))  # pinned weight chunk
                    for _p in range(width):
                        freg = f"q{1 + alt % 2}"
                        alt += 1
                        stream.append(ldv(freg, cl))
                        stream.append(macv("q0", freg, cl))
    else:
        raise ConfigError(f"unknown schedule {schedule}")
    return stream


def schedule_counts(layer: FwcsLayer, spec: ConvLayerSpec,
                    schedule: ComputeSchedule, cfg: MachineConfig) -> dict[str, int]:
    """Closed-form instruction counts matching :func:`lower_schedule` exactly."""
    retained = layer.n_retained
    if retained == 0:
        return {"macs": 0, "vector_loads": 0, "scalar_loads": 0}
    n_chunks = len(_chunk_lengths(layer.size, cfg.lanes))
    positions = spec.out_positions
    macs = retained * n_chunks * positions
    patch = spec.filterlets_per_filter * spec.channels
    scalar = patch * positions + retained * positions
    if schedule is ComputeSchedule.DEFAULT:
        vector = 2 * macs
    else:
        tile = max(1, cfg.register_count - 2)
        n_tiles = -(-positions // tile)
        vector = macs + retained * n_chunks * n_tiles
    return {"macs": macs, "vector_loads": vector, "scalar_loads": scalar}


def lower_csr(layer: CsrLayer, spec: ConvLayerSpec,
              cfg: MachineConfig) -> list[Instruction]:
    """Per-weight baseline: gather one index, one weight, one feature value,
    then a scalar MAC, for every retained weight at every position."""
    if layer.n_retained == 0:
        return []
    patch = spec.filterlets_per_filter * spec.channels
    stream: list[Instruction] = []
    rot = 0
    for _pos in range(spec.out_positions):
        stream.extend(lds() for _ in range(patch))
        for _w in range(layer.n_retained):
            sw = f"s{(2 * rot) % 8}"
            sf = f"s{(2 * rot + 1) % 8}"
            rot += 1
            stream.append(lds())  # index entry
            stream.append(lds(sw))
            stream.append(lds(sf))
            stream.append(macs((sw, sf)))
    return stream


def csr_counts(layer: CsrLayer, spec: ConvLayerSpec) -> dict[str, int]:
    retained = layer.n_retained
    if retained == 0:
        return {"macs": 0, "vector_loads": 0, "scalar_loads": 0}
    positions = spec.out_positions
    patch = spec.filterlets_per_filter * spec.channels
    return {
        "macs": retained * positions,
        "vector_loads": 0,
        "scalar_loads": (patch + 3 * retained) * positions,
    }


def _post_cycles(spec: ConvLayerSpec, cfg: MachineConfig) -> int:
    return spec.n_filters * spec.out_positions * cfg.post_cycles


def layer_cycles(layer: FwcsLayer, spec: ConvLayerSpec,
                 schedule: ComputeSchedule, cfg: MachineConfig) -> int:
    """Simulated cycle count for one layer plus per-output post-processing."""
    stream = lower_schedule(layer, spec, schedule, cfg)
    base = simulate(stream, cfg).total_cycles if stream else 0
    return base + _post_cycles(spec, cfg)


def csr_layer_cycles(layer: CsrLayer, spec: ConvLayerSpec,
                     cfg: MachineConfig) -> int:
    stream = lower_csr(layer, spec, cfg)
    base = simulate(stream, cfg).total_cycles if stream else 0
    return base + _post_cycles(spec, cfg)


def dump_stream(stream) -> str:
    """One instruction per line in LD/MAC text form."""
    return "\n".join(ins.label() for ins in stream)


def dump_trace(trace: CycleTrace) -> str:
    """One line per cycle: ``cycle,mem,alu``."""
    return "\n".join(f"{c},{mem},{alu}" for c, mem, alu in trace.records)
