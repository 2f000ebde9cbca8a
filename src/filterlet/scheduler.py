"""Strategy search: minimize predicted latency under loss, flash, and RAM budgets.

Simulated annealing over the per-layer pruned fractions.  Infeasible
candidates are admitted through a penalty term scaled to dominate the whole
latency range, so the chain can cross infeasible regions, but only feasible
candidates are ever returned as the incumbent.

Every metric of a strategy combines per-layer terms (latency, flash bits,
pruned score, output activation bytes), and each term depends only on the
layer's kept count.  A problem sorts each layer's scores once and prices
every kept count 0..N from that order, without a mask, in one table per
layer: latency at the pruned share ``1 - keep/N``, and the pruned score as a
running sum over the prune order.  ``evaluate``, ``layer_terms`` and
``plan_and_pack`` read a fraction's row at ``kept_count(N, alpha)``, so the
search prices exactly what the masks keep.

The chain walks indexed states.  A layer's state is its place among the
distinct kept counts of the fractions ``min(1, k * step)``, and a move takes
it one place up or down.  Each distinct strategy is numbered once, with its
predicted time, feasibility and penalized objective in flat columns and a
lazily filled table of its ``2n`` neighbours, so a step is a draw, a
neighbour lookup, an objective lookup and a compare.  A new strategy is
priced from raw totals of its layer terms, keeping only its time,
feasibility and objective.  The best states are chosen once the chain has
run, and the trace rows are built from the chain's columns when they are
first read.
The draws are decoded from raw words of the seeded stream (``_Draws``) rather
than asked of a numpy ``Generator`` one call at a time.

A long chain spends most of its steps at strict local minima: every
neighbour is already numbered and uphill, so each step draws a move and a
uniform and, nearly always, rejects.  There the chain decides a block of
steps at once with numpy, from the same word buffer, up to the first step
that might accept; that step goes through the scalar loop, with
``math.exp``.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice, repeat
from operator import length_hint
from typing import NamedTuple

import numpy as np

from .bundle import ModelBundle, bundle_from_masks
from .costmodel import Budget, LatencyParams, StrategyVector, \
    activation_bytes, flash_bytes, input_bytes, kept_flash_bits, \
    layer_latency, strategy_alphas, total_time
from .errors import DataError
from .fwcs import check_fwcs_index, kept_count
from .importance import ImportanceMap, order_mask, prune_order
from .model import SequentialModel, check_chain
from .tensor import ConvLayerSpec


@dataclass(frozen=True)
class ScheduleProblem:
    """One pruning-strategy search instance; ``m`` is the bit width of a
    stored weight (8 for int8, 32 for float32 models).

    Each layer's table of terms is built on first use and kept with the
    problem, so its scores must not change after it is first searched or
    evaluated.
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
    """One layer's share of a strategy's metrics at one kept count."""

    time: float      # predicted cycles
    bits: int        # flash bits
    dl: float        # summed scores of the pruned filterlets
    out_bytes: int   # output feature map bytes, emptied filters dropped


class _LayerTable:
    """One layer's terms at every kept count ``keep = 0..n``, in columns
    indexed by it, priced from one stable argsort of the layer's scores
    without building a mask.

    Time is ``layer_latency`` at ``1 - keep/n``.  The pruned score is the
    running sum of the scores in prune order, so it adds them in another
    order than ``delta_loss`` of a mask does; bits and output bytes are
    exact integers.
    """

    __slots__ = ("spec", "n", "order", "time", "bits", "dl", "out_bytes")

    def __init__(self, problem: ScheduleProblem, i: int):
        self.spec = spec = problem.specs[i]
        m = problem.m
        flat = problem.importance.scores[i].reshape(-1)
        self.n = n = flat.size
        self.order = order = prune_order(flat)
        keep = np.arange(n + 1)
        self.time = layer_latency(spec, 1.0 - keep / n,
                                  problem.latency).tolist()
        self.bits = kept_flash_bits(spec, keep, m).tolist()
        # with keep kept, the n - keep lowest scores are pruned
        self.dl = np.cumsum(
            np.concatenate(([0.0], flat[order])))[::-1].tolist()
        # a filter keeps its output channel while the last of its
        # filterlets in the order is kept
        last = np.zeros(n, dtype=bool)
        last[np.unique(order[::-1] // spec.filterlets_per_filter,
                       return_index=True)[1]] = True
        channels = np.concatenate(([0], np.cumsum(last)))
        self.out_bytes = activation_bytes(spec.out_positions, channels,
                                          m).tolist()

    def terms(self, keep: int) -> LayerTerms:
        return LayerTerms(self.time[keep], self.bits[keep], self.dl[keep],
                          self.out_bytes[keep])


def layer_terms(problem: ScheduleProblem, i: int, alpha: float) -> LayerTerms:
    """Terms of layer ``i`` at pruned fraction ``alpha``: its table's row at
    the kept count ``kept_count(N, alpha)``."""
    table = problem._tables[i]
    return table.terms(kept_count(table.n, alpha))


def _kept_grid(n: int, step: float) -> list[int]:
    """The distinct kept counts of ``n`` filterlets at the pruned fractions
    ``min(1, k * step)``, k = 0, 1, ..., in decreasing keep: one layer's
    states in :func:`anneal`."""
    if step * n <= 1.0:
        # fractions a step apart move (1 - alpha) * n by at most 1, so the
        # grid skips no kept count
        return list(range(n, -1, -1))
    # the last k, int(1 / step) + 1, is at least 1 / step
    return list(dict.fromkeys(kept_count(n, min(1.0, k * step))
                              for k in range(int(1 / step) + 2)))


def _totals(terms, in_bytes: int,
            budget: Budget) -> tuple[float, int, int, float, float]:
    """Time, flash bytes, RAM peak, pruned score and summed relative excess
    over ``budget`` of a strategy's layer terms.

    Time is summed by sum() from 0, as total_time sums it, so it is
    bit-identical to total_time at the kept fractions; the score is summed
    from 0.0 in layer order, as delta_loss sums its layers.  A broken limit
    adds a positive ratio (the difference from a smaller float or int is
    never 0, nor is it over a divisor of at least 1e-12), so the excess is
    0.0 exactly when every limit holds.
    """
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
    excess = 0.0
    if dl > budget.dl_max:
        excess += (dl - budget.dl_max) / max(budget.dl_max, 1e-12)
    if size > budget.mem_flash:
        excess += (size - budget.mem_flash) / budget.mem_flash
    if ram > budget.mem_ram:
        excess += (ram - budget.mem_ram) / budget.mem_ram
    return time, size, ram, dl, excess


def evaluate(s, problem: ScheduleProblem) -> Evaluation:
    """Every metric of strategy ``s``, combined from its layer terms at the
    kept counts of its ``build_mask`` masks.

    Flash and RAM equal ``model_size`` and ``runtime_memory`` with the masks'
    kept channels.  Time equals ``total_time`` at the kept fractions
    ``1 - keep/N``, the pruned share of what the masks keep, rather than at
    ``s``.  The loss change is ``delta_loss`` of the masks, each layer's
    pruned scores added in prune order.
    """
    alphas = strategy_alphas(s, len(problem.specs))
    budget = problem.budget
    time, size, ram, dl, _ = _totals(
        [layer_terms(problem, i, a) for i, a in enumerate(alphas)],
        input_bytes(problem.specs[0], problem.m), budget)
    violations = {}
    if dl > budget.dl_max:
        violations["dl"] = (dl, budget.dl_max)
    if size > budget.mem_flash:
        violations["flash"] = (float(size), float(budget.mem_flash))
    if ram > budget.mem_ram:
        violations["ram"] = (float(ram), float(budget.mem_ram))
    return Evaluation(time, size, ram, dl, not violations, violations)


# raw 64-bit words the chain reads from its bit generator at a time; one
# read holds the words of a whole block
_CHUNK = 1024
# most steps one block decides
_BLOCK = 256
_LOW32 = 0xFFFFFFFF
_LOW53 = 2 ** 53 - 1
# a block rejects an uphill step only when its uniform exceeds numpy's exp
# of the exponent by this factor; numpy's exp and math.exp differ by a few
# ulp, far less
_MARGIN = 1.0 + 2.0 ** -40


class _Draws:
    """``random()`` of ``np.random.default_rng(seed)`` and its
    ``integers(n)`` fused with a ``random() < 0.5`` coin, decoded from raw
    words of the same PCG64 stream read ``_CHUNK`` at a time.

    ``random()`` takes the top 53 bits of a whole word.  ``integers(n)`` is
    Lemire's bounded draw on 32-bit halves: a word drawn for an integer gives
    its low half now and keeps its high half for the next integer draw, as the
    bit generator's 32-bit buffer does.

    The scalar reads walk a list of the buffered words; :meth:`block`
    decodes runs of ``move`` and ``random`` pairs from the same buffer as
    arrays.
    """

    __slots__ = ("_raw", "_buf", "_words", "_left", "_next", "_half")

    def __init__(self, seed):
        self._raw = np.random.default_rng(seed).bit_generator.random_raw
        self._load(np.empty(0, np.uint64))
        self._half = None

    def _load(self, buf: np.ndarray):
        # the buffer as an array for blocks, and as a list with an iterator
        # over its unread words for scalar reads
        self._buf = buf
        self._words = buf.tolist()
        self._left = iter(self._words)
        self._next = self._left.__next__

    def _word(self) -> int:
        try:
            return self._next()
        except StopIteration:
            self._load(self._raw(_CHUNK))
            return self._next()

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

    def block(self, n: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The next ``count`` pairs of ``move(n)`` and ``random()`` as two
        arrays, without reading them; cut before the first move whose
        integer draw rejects a half, as that one reads one more word.

        Pairs repeat every five words: an integer word whose halves serve
        two moves, then a coin and a uniform word for each.  A buffered half
        is the high half of such a group's first word, so decoding starts
        one move into that group.
        """
        # a list iterator's length hint is its exact count of unread words
        pos = len(self._words) - length_hint(self._left)
        # at most two words for a buffered half's pair, then five per two
        need = 5 * ((count + 1) // 2) + 2
        if pos + need > self._buf.size:
            self._load(np.concatenate((self._buf[pos:], self._raw(_CHUNK))))
            pos = 0
        # as int64, whose ufunc loops the process has mostly mapped already
        # (uint64's would map more): a word's top bit is its sign, and
        # products wrap as uint64's do
        w = self._buf[pos:pos + need].view(np.int64)
        if n == 1:
            # no integer draw: a coin and a uniform word per pair
            coins, uniforms = w[:2 * count:2], w[1:2 * count:2]
            slots = np.zeros(count, np.int64)
        else:
            lead = self._half is not None
            if lead:
                w = np.concatenate((np.array(
                    [self._half << 32, 0, 0], np.uint64).view(np.int64), w))
            groups = w[:5 * ((lead + count + 1) // 2)].reshape(-1, 5)
            halves = np.stack((groups[:, 0] & _LOW32,
                               groups[:, 0] >> 32 & _LOW32), axis=1)
            m = halves.reshape(-1)[lead:lead + count] * n
            coins = groups[:, 1::2].reshape(-1)[lead:]
            uniforms = groups[:, 2::2].reshape(-1)[lead:]
            fits = (m & _LOW32) >= (2 ** 32 - n) % n
            if not fits.all():
                count = int(fits.argmin())
            slots = (m[:count] >> 32 & _LOW32) * 2
        slots += coins[:count] < 0
        return slots, (uniforms[:count] >> 11 & _LOW53) * 2.0 ** -53

    def skip(self, n: int, count: int):
        """Read the next ``count`` pairs of ``move(n)`` and ``random()``,
        none of whose integer draws rejects a half."""
        words = 2 * count
        if n > 1 and count:
            # moves into the five-word groups of :meth:`block`
            lead = self._half is not None
            moves = lead + count
            words = 5 * (moves // 2) - 3 * lead
            self._half = None
            if moves % 2:
                pos = len(self._words) - length_hint(self._left)
                self._half = self._words[pos + words] >> 32
                words += 3
        # step past them, as itertools' consume recipe does
        next(islice(self._left, words, words), None)


class TraceRow(NamedTuple):
    iteration: int
    temperature: float
    objective: float
    feasible: bool


class _Trace(Sequence):
    """A chain's trace rows, built from its columns on first read: row ``i``
    is step ``i``, its temperature, the objective of the state the chain
    holds after it and the feasibility of the state it proposed.  Equal to
    the plain tuple of its rows."""

    __slots__ = ("_columns", "_rows")

    def __init__(self, t0: float, temps: list[float], objs: list[float],
                 oks: list[bool], curs: list[int], cands: list[int]):
        self._columns = (t0, temps, objs, oks, curs, cands)
        self._rows = None

    @property
    def rows(self) -> tuple[TraceRow, ...]:
        if self._rows is None:
            t0, temps, objs, oks, curs, cands = self._columns
            # TraceRow._make without a Python call per row; a restarted
            # chain runs the temperatures twice
            self._rows = tuple(map(tuple.__new__, repeat(TraceRow),
                                   zip(range(len(cands)),
                                       chain((float(t0),), temps, temps),
                                       map(objs.__getitem__, curs),
                                       map(oks.__getitem__, cands))))
            self._columns = None
        return self._rows

    def __len__(self) -> int:
        return len(self._rows if self._rows is not None
                   else self._columns[-1])

    def __getitem__(self, i):
        return self.rows[i]

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other):
        if isinstance(other, _Trace):
            other = other.rows
        return self.rows == other if isinstance(other, tuple) \
            else NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)


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
    trace: Sequence[TraceRow] = field(repr=False)

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

    A layer's states are the distinct kept counts of the fractions
    ``min(1, k * step)``, k = 0, 1, ..., and a move takes one layer one
    place to fewer or more kept filterlets, clamped at both ends.  The
    returned strategy, reported as each layer's pruned share ``1 - keep/N``,
    is the best feasible candidate visited.  A chain that visits no feasible
    candidate runs once more, from its best penalized candidate re-heated to
    ``t0``, on the same draws; if that one finds none either, the best
    penalized candidate is returned with ``feasible`` False.
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

    in_bytes, budget = input_bytes(problem.specs[0], problem.m), problem.budget
    tables = problem._tables
    # per layer, its kept counts in walk order and its terms at each place
    grids = [_kept_grid(table.n, step) for table in tables]
    terms = [[table.terms(keep) for keep in grid]
             for table, grid in zip(tables, grids)]

    # state k: its places, predicted time, feasibility, penalized
    # objective, and in nbrs[two_n * k + slot] its neighbour by move slot
    # (-1 until resolved); unresolved[k] counts its -1 slots, and
    # minimum[k] is set once they are resolved and all lie strictly uphill
    state_ids: dict[tuple[int, ...], int] = {}
    states: list[tuple[int, ...]] = []
    times: list[float] = []
    oks: list[bool] = []
    objs: list[float] = []
    nbrs: list[int] = []
    unresolved: list[int] = []
    minimum: list[bool] = []

    def number(places: tuple[int, ...]) -> int:
        k = state_ids.get(places)
        if k is None:
            time, _, _, _, excess = _totals(
                map(list.__getitem__, terms, places), in_bytes, budget)
            k = state_ids[places] = len(states)
            states.append(places)
            times.append(time)
            oks.append(excess == 0.0)
            objs.append(time + lam * excess)
            nbrs.extend(repeat(-1, two_n))
            unresolved.append(two_n)
            minimum.append(False)
        return k

    def neighbour(k: int, slot: int) -> int:
        """State ``k`` with layer ``slot >> 1`` moved one place to fewer
        kept filterlets (even ``slot``) or more (odd)."""
        places = states[k]
        i = slot >> 1
        j = places[i] - 1 if slot & 1 else places[i] + 1
        j = min(max(j, 0), len(grids[i]) - 1)
        nbrs[two_n * k + slot] = nbr = number(
            (*places[:i], j, *places[i + 1:]))
        unresolved[k] -= 1
        if not unresolved[k]:
            # a move clamped at either end proposes k itself; a block stops
            # before such a step, as exp(0) * _MARGIN exceeds every uniform
            minimum[k] = objs[k] < min(
                [objs[j] for j in nbrs[two_n * k:two_n * (k + 1)] if j != k],
                default=math.inf)
        return nbr

    # temps[it] is the temperature step it + 1 is judged at: t0 times
    # cooling, it times, multiplied in order as a Python loop would
    cooled = np.full(iters, cooling, dtype=float)
    cooled[0] = t0
    np.multiply.accumulate(cooled, out=cooled)
    temps = cooled.tolist()
    # the blocks' divisors, max(temp, 1e-12) as each step divides
    divs = np.maximum(cooled, 1e-12, out=cooled)
    draws = _Draws(seed)
    move, uniform = draws.move, draws.random
    cur = number((0,) * n)
    cands, curs = [cur], [cur]
    for run in range(2):
        cur_obj = objs[cur]
        it = 0
        while it < iters:
            slot = move(n)
            cand = nbrs[two_n * cur + slot]
            if cand < 0:
                cand = neighbour(cur, slot)
            obj = objs[cand]
            # uphill, obj > cur_obj: the exponent is negative
            if obj <= cur_obj or uniform() < math.exp(
                    (cur_obj - obj) / max(temps[it], 1e-12)):
                cur, cur_obj = cand, obj
            cands.append(cand)
            curs.append(cur)
            it += 1
            if minimum[cur] and it < iters:
                # every step draws an uphill neighbour: decide the run of
                # sure rejections in one block; the step after it, which
                # may accept, goes through the loop above
                around = nbrs[two_n * cur:two_n * (cur + 1)]
                slots, u = draws.block(n, min(_BLOCK, iters - it))
                uphill = np.array([objs[k] for k in around])[slots]
                sure = u > np.exp(
                    (cur_obj - uphill) / divs[it:it + slots.size]) * _MARGIN
                d = slots.size if sure.all() else int(sure.argmin())
                draws.skip(n, d)
                # the neighbours' own id objects, not d new ints
                cands.extend(map(around.__getitem__, slots[:d].tolist()))
                curs.extend(repeat(cur, d))
                it += d
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
    s = StrategyVector(tuple(1.0 - grid[j] / table.n for grid, j, table
                             in zip(grids, states[chosen], tables)))
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
        trace=_Trace(t0, temps, objs, oks, curs, cands),
    )


def plan_and_pack(problem: ScheduleProblem, model: SequentialModel,
                  seed: int = 0, iters: int = 5000,
                  ) -> tuple[ModelBundle | None, ScheduleResult]:
    """Search a strategy with the problem's importance map and pack the
    pruned model when one is feasible.  An infeasible search returns no
    bundle, only the result.  Raises FormatError before searching when a
    layer's kernel has more positions than a u16 FWCS index holds.
    """
    if model.specs != problem.specs:
        raise DataError("model layers do not match the problem's specs")
    if problem.m != model.value_bits:
        raise DataError(f"problem prices {problem.m}-bit weights but the model "
                        f"stores {model.value_bits}-bit weights")
    for spec in problem.specs:
        check_fwcs_index(spec)
    result = anneal(problem, seed=seed, iters=iters)
    if not result.feasible:
        return None, result
    # the search's own sort of each layer, as build_mask would sort it again
    masks = [order_mask(t.spec, t.order, kept_count(t.n, a))
             for t, a in zip(problem._tables, result.s.alphas)]
    return bundle_from_masks(model, masks, fmt="fwcs"), result
