"""Strategy search: minimize predicted latency under loss, flash, and RAM budgets.

Simulated annealing over the per-layer pruned fractions.  Infeasible
candidates are admitted through a penalty term scaled to dominate the whole
latency range, so the chain can cross infeasible regions, but only feasible
candidates are ever returned as the incumbent.

Every metric of a strategy combines per-layer terms (latency, flash bits,
pruned score, output activation bytes).  Latency reads the layer's exact
fraction; the other three depend only on its kept count, so a problem sorts
each layer's scores once and builds one mask per (layer, kept count), however
many searches and evaluations use it.

The chain walks indexed states.  A layer's fraction is an id into the floats
that ``+-step`` moves reach from 0 (drift such as ``0.7000000000000001``
included), and each move of an id is resolved once.  Each distinct strategy
is numbered once, with its predicted time, feasibility and penalized
objective in flat columns and a lazily filled table of its ``2n`` neighbours,
so a step is a draw, a neighbour lookup, an objective lookup and a compare.
The best states are chosen and the trace is built once the chain has run.
The draws are decoded from raw words of the seeded stream (``_Draws``) rather
than asked of a numpy ``Generator`` one call at a time.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import mul
from typing import NamedTuple

import numpy as np

from .bundle import ModelBundle, bundle_from_masks
from .costmodel import Budget, LatencyParams, StrategyVector, \
    activation_bytes, flash_bytes, input_bytes, layer_flash_bits, \
    layer_latency, strategy_alphas, total_time
from .errors import DataError
from .fwcs import kept_count
from .importance import ImportanceMap, build_mask, order_mask, prune_order, \
    pruned_score
from .model import SequentialModel, check_chain
from .tensor import ConvLayerSpec


@dataclass(frozen=True)
class ScheduleProblem:
    """One pruning-strategy search instance; ``m`` is the bit width of a
    stored weight (8 for int8, 32 for float32 models).

    Each layer's score order and its terms per kept count are computed on
    first use and kept with the problem, so its scores must not change after
    it is first searched or evaluated.
    """

    specs: list[ConvLayerSpec]
    importance: ImportanceMap
    budget: Budget
    latency: LatencyParams
    m: int = 8

    def __post_init__(self):
        if not self.specs:
            raise DataError("need at least one layer")
        if list(self.importance.specs) != list(self.specs):
            raise DataError("importance map specs differ from the layers")
        check_chain(self.specs)

    @cached_property
    def _tables(self) -> list["_LayerTable"]:
        return [_LayerTable(self, i) for i in range(len(self.specs))]


class Evaluation(NamedTuple):
    """All constraint-relevant metrics of one candidate strategy."""

    time: float
    size: int
    ram: int
    dl: float
    feasible: bool
    violations: dict[str, tuple[float, float]]


class LayerTerms(NamedTuple):
    """One layer's share of a strategy's metrics at one pruned fraction."""

    time: float      # predicted cycles
    bits: int        # flash bits
    dl: float        # summed scores of the pruned filterlets
    out_bytes: int   # output feature map bytes, emptied filters dropped


class _LayerTable:
    """Terms of one layer of a problem: one stable argsort of its scores,
    and the mask-derived terms once per kept count."""

    __slots__ = ("problem", "spec", "scores", "order", "by_keep")

    def __init__(self, problem: ScheduleProblem, i: int):
        self.problem = problem
        self.spec = problem.specs[i]
        self.scores = problem.importance.scores[i]
        self.order = prune_order(self.scores)
        self.by_keep: dict[int, tuple[int, float, int]] = {}

    def terms(self, alpha: float) -> LayerTerms:
        spec, m = self.spec, self.problem.m
        keep = kept_count(self.scores.size, alpha)
        kept = self.by_keep.get(keep)
        if kept is None:
            mask = order_mask(spec, self.order, keep)
            kept = self.by_keep[keep] = (
                layer_flash_bits(spec, alpha, m),
                pruned_score(self.scores, mask),
                activation_bytes(spec.out_positions, mask.kept_channels(), m))
        return LayerTerms(layer_latency(spec, alpha, self.problem.latency),
                          *kept)


def layer_terms(problem: ScheduleProblem, i: int, alpha: float) -> LayerTerms:
    """Terms of layer ``i`` at pruned fraction ``alpha``."""
    return problem._tables[i].terms(alpha)


def _combine(terms, in_bytes: int, problem: ScheduleProblem) -> Evaluation:
    # time is summed by sum() from 0, as total_time sums it, and dl from 0.0
    # in layer order, as delta_loss sums it, so both are bit-identical to
    # theirs; the flash bits and the adjacent-pair peak are exact integers
    times = []
    dl = 0.0
    bits = ram = 0
    prev = in_bytes
    for t_time, t_bits, t_dl, out in terms:
        times.append(t_time)
        dl += t_dl
        bits += t_bits
        if prev + out > ram:
            ram = prev + out
        prev = out
    time = sum(times)
    size = flash_bytes((bits,))
    budget = problem.budget
    violations = {}
    if dl > budget.dl_max:
        violations["dl"] = (dl, budget.dl_max)
    if size > budget.mem_flash:
        violations["flash"] = (float(size), float(budget.mem_flash))
    if ram > budget.mem_ram:
        violations["ram"] = (float(ram), float(budget.mem_ram))
    return Evaluation(time, size, ram, dl, not violations, violations)


def evaluate(s, problem: ScheduleProblem) -> Evaluation:
    """Every metric of strategy ``s``, combined from its layer terms.

    Equal to ``total_time``, ``model_size``, ``delta_loss`` of ``build_mask``
    and ``runtime_memory`` with the masks' kept channels.
    """
    alphas = strategy_alphas(s, len(problem.specs))
    return _combine([layer_terms(problem, i, a) for i, a in enumerate(alphas)],
                    input_bytes(problem.specs[0], problem.m), problem)


def _violation_measure(ev: Evaluation, budget: Budget) -> float:
    v = 0.0
    if "dl" in ev.violations:
        lim = max(budget.dl_max, 1e-12)
        v += (ev.dl - budget.dl_max) / lim
    if "flash" in ev.violations:
        v += (ev.size - budget.mem_flash) / budget.mem_flash
    if "ram" in ev.violations:
        v += (ev.ram - budget.mem_ram) / budget.mem_ram
    return v


# raw 64-bit words the chain reads from its bit generator at a time
_CHUNK = 256
_LOW32 = 0xFFFFFFFF


class _Draws:
    """``random()`` of ``np.random.default_rng(seed)`` and its
    ``integers(n)`` fused with a ``random() < 0.5`` coin, decoded from raw
    words of the same PCG64 stream read ``_CHUNK`` at a time.

    ``random()`` takes the top 53 bits of a whole word.  ``integers(n)`` is
    Lemire's bounded draw on 32-bit halves: a word drawn for an integer gives
    its low half now and keeps its high half for the next integer draw, as the
    bit generator's 32-bit buffer does.
    """

    __slots__ = ("_word", "_half")

    def __init__(self, seed):
        raw = np.random.default_rng(seed).bit_generator.random_raw
        self._word = chain.from_iterable(
            raw(_CHUNK).tolist() for _ in repeat(None)).__next__
        self._half = None

    def random(self) -> float:
        return (self._word() >> 11) * 2.0 ** -53

    def move(self, n: int) -> int:
        """``2 * integers(n) + (random() >= 0.5)`` for ``1 <= n <= 2**32``:
        a layer and a direction in one call."""
        i = 0
        # integers(1) draws nothing
        while n > 1:
            x = self._half
            if x is None:
                w = self._word()
                x, self._half = w & _LOW32, w >> 32
            else:
                self._half = None
            m = x * n
            # reject the low products that would bias the result
            if m & _LOW32 >= (2 ** 32 - n) % n:
                i = m >> 32
                break
        # random() < 0.5 exactly when the word's top bit is clear
        return 2 * i + (self._word() >> 63)


class TraceRow(NamedTuple):
    iteration: int
    temperature: float
    objective: float
    feasible: bool


@dataclass(frozen=True)
class ScheduleResult:
    """Best strategy found plus its re-evaluated metrics."""

    s: StrategyVector
    predicted_time: float
    predicted_size: int
    predicted_ram: int
    predicted_dl: float
    feasible: bool
    violations: dict[str, tuple[float, float]]
    iterations: int
    trace: tuple[TraceRow, ...] = field(repr=False)

    def trace_csv(self) -> str:
        lines = ["iter,temp,objective,feasible"]
        lines += [f"{r.iteration},{r.temperature:.6g},{r.objective:.6g},"
                  f"{int(r.feasible)}" for r in self.trace]
        return "\n".join(lines)


def anneal(problem: ScheduleProblem, seed: int = 0, iters: int = 5000,
           t0: float | None = None, cooling: float = 0.995,
           step: float = 0.05) -> ScheduleResult:
    """Metropolis search over strategies from the unpruned model;
    deterministic for a fixed seed.

    Moves perturb one layer's fraction by +-step (clamped to [0, 1]).  The
    returned strategy is the best feasible candidate visited.  A chain that
    visits no feasible candidate runs once more, from its best penalized
    candidate re-heated to ``t0``, on the same draws; if that one finds none
    either, the best penalized candidate is returned with ``feasible`` False.
    """
    if iters < 1:
        raise DataError("iters must be >= 1")
    if not 0.0 < cooling < 1.0:
        raise DataError("cooling must be in (0, 1)")
    # a step of 0 or nan never moves and a negative one runs another chain
    if not 0.0 < step <= 1.0:
        raise DataError("step must be in (0, 1]")
    if t0 is not None and not 0.0 <= t0 < math.inf:
        raise DataError("t0 must be finite and >= 0")
    n = len(problem.specs)
    two_n = 2 * n

    base_time = total_time(problem.specs, np.zeros(n), problem.latency)
    min_time = total_time(problem.specs, np.ones(n), problem.latency)
    # any relative violation should outweigh the whole attainable latency range
    lam = 10.0 * max(base_time - min_time, 1.0)
    if t0 is None:
        t0 = 0.1 * max(base_time, 1.0)

    # fraction ids: fracs[f] is the float, moved[2 * f + down] the id one
    # step up or down from it (-1 until resolved); keyed on the exact float
    # and never on a grid index, as moves drift off the grid and latency
    # reads the exact fraction
    fracs, frac_ids, moved = [0.0], {0.0: 0}, [-1, -1]

    in_bytes = input_bytes(problem.specs[0], problem.m)
    tables = problem._tables
    # per layer, its terms by fraction id
    terms = [{} for _ in range(n)]

    def terms_of(fids: tuple[int, ...]) -> list[LayerTerms]:
        out = []
        for memo, table, f in zip(terms, tables, fids):
            t = memo.get(f)
            if t is None:
                t = memo[f] = table.terms(fracs[f])
            out.append(t)
        return out

    # state k: its fraction ids, predicted time, feasibility, penalized
    # objective, and in nbrs[two_n * k + slot] its neighbour by move slot
    # (-1 until resolved)
    state_ids: dict[tuple[int, ...], int] = {}
    states: list[tuple[int, ...]] = []
    times: list[float] = []
    oks: list[bool] = []
    objs: list[float] = []
    nbrs: list[int] = []

    def number(fids: tuple[int, ...]) -> int:
        k = state_ids.get(fids)
        if k is None:
            ev = _combine(terms_of(fids), in_bytes, problem)
            k = state_ids[fids] = len(states)
            states.append(fids)
            times.append(ev.time)
            oks.append(ev.feasible)
            objs.append(ev.time + lam * _violation_measure(ev, problem.budget))
            nbrs.extend(repeat(-1, two_n))
        return k

    def neighbour(k: int, slot: int) -> int:
        """State ``k`` with layer ``slot >> 1`` moved up (even ``slot``) or
        down (odd)."""
        fids = states[k]
        i = slot >> 1
        j = 2 * fids[i] + (slot & 1)
        g = moved[j]
        if g < 0:
            v = fracs[fids[i]]
            v = min(1.0, max(0.0, v - step if slot & 1 else v + step))
            g = frac_ids.get(v)
            if g is None:
                g = frac_ids[v] = len(fracs)
                fracs.append(v)
                moved.extend((-1, -1))
            moved[j] = g
        nbrs[two_n * k + slot] = nbr = number((*fids[:i], g, *fids[i + 1:]))
        return nbr

    # temps[it - 1] is the temperature step it is judged at
    temps = list(accumulate(repeat(cooling, iters - 1), mul,
                            initial=float(t0)))
    draws = _Draws(seed)
    move, uniform = draws.move, draws.random
    cur = number((0,) * n)
    cands, curs = [cur], [cur]
    for run in range(2):
        cur_obj = objs[cur]
        for temp in temps:
            slot = move(n)
            cand = nbrs[two_n * cur + slot]
            if cand < 0:
                cand = neighbour(cur, slot)
            obj = objs[cand]
            # uphill, obj > cur_obj: the exponent is negative
            if obj <= cur_obj or uniform() < math.exp(
                    (cur_obj - obj) / max(temp, 1e-12)):
                cur, cur_obj = cand, obj
            cands.append(cand)
            curs.append(cur)
        # states are numbered in the order the chain first proposed them, so
        # the lowest-numbered minimum is the first one visited
        feasible_states = [k for k, ok in enumerate(oks) if ok]
        if feasible_states or run:
            break
        # nothing feasible seen: run once more from the best penalized
        # state, re-heated, on the same draws
        cur = min(range(len(states)), key=objs.__getitem__)
    if feasible_states:
        chosen = min(feasible_states, key=times.__getitem__)
    else:
        chosen = min(range(len(states)), key=objs.__getitem__)
    s = StrategyVector(tuple(fracs[f] for f in states[chosen]))
    final = evaluate(s, problem)
    return ScheduleResult(
        s=s,
        predicted_time=final.time,
        predicted_size=final.size,
        predicted_ram=final.ram,
        predicted_dl=final.dl,
        feasible=final.feasible,
        violations=dict(final.violations),
        iterations=len(cands) - 1,
        # TraceRow._make without a Python call per row
        trace=tuple(map(tuple.__new__, repeat(TraceRow),
                        zip(range(len(cands)),
                            chain((float(t0),), temps, temps),
                            map(objs.__getitem__, curs),
                            map(oks.__getitem__, cands)))),
    )


def plan_and_pack(problem: ScheduleProblem, model: SequentialModel,
                  seed: int = 0, iters: int = 5000, t0: float | None = None,
                  cooling: float = 0.995, step: float = 0.05,
                  ) -> tuple[ModelBundle | None, ScheduleResult]:
    """Search a strategy with the problem's importance map and pack the
    pruned model when one is feasible.  An infeasible search returns no
    bundle, only the result.
    """
    if model.specs != problem.specs:
        raise DataError("model layers do not match the problem's specs")
    if problem.m != model.value_bits:
        raise DataError(f"problem prices {problem.m}-bit weights but the model "
                        f"stores {model.value_bits}-bit weights")
    result = anneal(problem, seed=seed, iters=iters, t0=t0,
                    cooling=cooling, step=step)
    if not result.feasible:
        return None, result
    masks = build_mask(problem.importance, result.s)
    return bundle_from_masks(model, masks, fmt="fwcs"), result
