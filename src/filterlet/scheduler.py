"""Strategy search: minimize predicted latency under loss, flash, and RAM budgets.

Simulated annealing over the per-layer pruned fractions.  Infeasible
candidates are admitted through a penalty term scaled to dominate the whole
latency range, so the chain can cross infeasible regions, but only feasible
candidates are ever returned as the incumbent.

Every metric of a strategy combines per-layer terms (latency, flash bits,
pruned score, output activation bytes) that depend only on that layer's
fraction.  Each layer visits few distinct fractions and the chain keeps
proposing states it has seen, so within one call ``anneal`` computes each
layer's terms once per fraction and each state's evaluation once.  What is
left per step is the chain itself, so its draws are decoded from raw words of
the seeded stream (``_Draws``) rather than asked of a numpy ``Generator`` one
call at a time.
"""

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .bundle import ModelBundle, bundle_from_masks
from .costmodel import Budget, LatencyParams, StrategyVector, \
    activation_bytes, flash_bytes, input_bytes, layer_flash_bits, \
    layer_latency, peak_pair_bytes, total_time
from .errors import DataError
from .importance import ImportanceMap, build_mask, layer_mask, pruned_score
from .model import SequentialModel, check_chain
from .tensor import ConvLayerSpec


@dataclass(frozen=True)
class ScheduleProblem:
    """One pruning-strategy search instance; ``m`` is the bit width of a
    stored weight (8 for int8, 32 for float32 models)."""

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


@dataclass(frozen=True)
class Evaluation:
    """All constraint-relevant metrics of one candidate strategy."""

    time: float
    size: int
    ram: int
    dl: float
    feasible: bool
    violations: dict[str, tuple[float, float]]


@dataclass(frozen=True)
class LayerTerms:
    """One layer's share of a strategy's metrics at one pruned fraction."""

    time: float      # predicted cycles
    bits: int        # flash bits
    dl: float        # summed scores of the pruned filterlets
    out_bytes: int   # output feature map bytes, emptied filters dropped


def layer_terms(problem: ScheduleProblem, i: int, alpha: float) -> LayerTerms:
    """Terms of layer ``i`` at pruned fraction ``alpha``."""
    spec = problem.specs[i]
    scores = problem.importance.scores[i]
    mask = layer_mask(spec, scores, alpha)
    return LayerTerms(
        time=layer_latency(spec, alpha, problem.latency),
        bits=layer_flash_bits(spec, alpha, problem.m),
        dl=pruned_score(scores, mask),
        out_bytes=activation_bytes(spec.out_positions, mask.kept_channels(),
                                   problem.m),
    )


def _combine(terms: list[LayerTerms], in_bytes: int,
             problem: ScheduleProblem) -> Evaluation:
    # the sums run in the order and from the start values of total_time,
    # delta_loss and model_size, so the results are bit-identical to theirs
    time = sum(t.time for t in terms)
    dl = 0.0
    for t in terms:
        dl += t.dl
    size = flash_bytes(t.bits for t in terms)
    ram = peak_pair_bytes([in_bytes] + [t.out_bytes for t in terms])
    violations = {}
    if dl > problem.budget.dl_max:
        violations["dl"] = (dl, problem.budget.dl_max)
    if size > problem.budget.mem_flash:
        violations["flash"] = (float(size), float(problem.budget.mem_flash))
    if ram > problem.budget.mem_ram:
        violations["ram"] = (float(ram), float(problem.budget.mem_ram))
    return Evaluation(time, size, ram, dl, not violations, violations)


def evaluate(s, problem: ScheduleProblem) -> Evaluation:
    """Every metric of strategy ``s``, from freshly computed layer terms.

    Equal to ``total_time``, ``model_size``, ``delta_loss`` of ``build_mask``
    and ``runtime_memory`` with the masks' kept channels.
    """
    alphas = [float(a) for a in s]
    if len(alphas) != len(problem.specs):
        raise DataError("strategy length != layer count")
    return _combine([layer_terms(problem, i, a) for i, a in enumerate(alphas)],
                    input_bytes(problem.specs[0], problem.m), problem)


def feasible(s, problem: ScheduleProblem) -> tuple[bool, dict]:
    """Constraint check plus a violation report (value, limit) per breach."""
    ev = evaluate(s, problem)
    return ev.feasible, dict(ev.violations)


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
    """``integers(n)`` and ``random()`` of ``np.random.default_rng(seed)``,
    decoded from raw words of the same PCG64 stream read ``_CHUNK`` at a time.

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

    def integers(self, n: int) -> int:
        """Uniform in ``[0, n)`` for ``1 <= n <= 2**32``."""
        if n == 1:
            return 0
        while True:
            x = self._half
            if x is None:
                w = self._word()
                x, self._half = w & _LOW32, w >> 32
            else:
                self._half = None
            m = x * n
            # reject the low products that would bias the result
            if m & _LOW32 >= (2 ** 32 - n) % n:
                return m >> 32


class TraceRow(NamedTuple):
    iteration: int
    temperature: float
    objective: float
    feasible: bool


@dataclass(frozen=True)
class ScheduleResult:
    """Best strategy found plus its independently re-evaluated metrics."""

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
    returned strategy is the best feasible candidate visited; if none exists
    the best penalized candidate is returned with ``feasible`` False.
    """
    if iters < 1:
        raise DataError("iters must be >= 1")
    if not 0.0 < cooling < 1.0:
        raise DataError("cooling must be in (0, 1)")
    draws = _Draws(seed)
    pick, uniform = draws.integers, draws.random
    n = len(problem.specs)

    base_time = total_time(problem.specs, np.zeros(n), problem.latency)
    min_time = total_time(problem.specs, np.ones(n), problem.latency)
    # any relative violation should outweigh the whole attainable latency range
    lam = 10.0 * max(base_time - min_time, 1.0)
    if t0 is None:
        t0 = 0.1 * max(base_time, 1.0)

    def penalized(ev: Evaluation) -> float:
        return ev.time + lam * _violation_measure(ev, problem.budget)

    in_bytes = input_bytes(problem.specs[0], problem.m)
    # each layer's terms, keyed on the exact fraction and never on a grid
    # index: +-step moves drift off the grid, and layer_latency reads alpha
    memo = [{} for _ in range(n)]

    def terms_at(i: int, alpha: float) -> LayerTerms:
        t = memo[i].get(alpha)
        if t is None:
            t = memo[i][alpha] = layer_terms(problem, i, alpha)
        return t

    # about nine in ten candidates are states the chain has proposed before
    visited: dict[tuple[float, ...], tuple[float, bool, float]] = {}

    def visit(s: tuple[float, ...]) -> tuple[float, bool, float]:
        """Predicted time, feasibility and penalized objective of a new state."""
        ev = _combine([terms_at(i, a) for i, a in enumerate(s)], in_bytes,
                      problem)
        seen = visited[s] = (ev.time, ev.feasible, penalized(ev))
        return seen

    cur = (0.0,) * n
    cur_time, cur_feasible, cur_obj = visit(cur)
    best_feasible = cur if cur_feasible else None
    best_feasible_time = cur_time if cur_feasible else math.inf
    best_pen = cur
    best_pen_obj = cur_obj

    temp = float(t0)
    temps, objs, oks = [temp], [cur_obj], [cur_feasible]
    for it in range(1, iters + 1):
        i = pick(n)
        sign = 1.0 if uniform() < 0.5 else -1.0
        cand = (*cur[:i], min(1.0, max(0.0, cur[i] + sign * step)), *cur[i + 1:])
        time, ok, obj = visited.get(cand) or visit(cand)
        accept = obj <= cur_obj or uniform() < math.exp(
            min(0.0, (cur_obj - obj) / max(temp, 1e-12)))
        if accept:
            cur, cur_obj = cand, obj
        if ok and time < best_feasible_time:
            best_feasible, best_feasible_time = cand, time
        if obj < best_pen_obj:
            best_pen, best_pen_obj = cand, obj
        temps.append(temp)
        objs.append(cur_obj)
        oks.append(ok)
        temp *= cooling

    chosen = best_feasible if best_feasible is not None else best_pen
    final = evaluate(chosen, problem)
    return ScheduleResult(
        s=StrategyVector(tuple(float(a) for a in chosen)),
        predicted_time=final.time,
        predicted_size=final.size,
        predicted_ram=final.ram,
        predicted_dl=final.dl,
        feasible=final.feasible,
        violations=dict(final.violations),
        iterations=iters,
        # TraceRow._make without a Python call per row
        trace=tuple(map(tuple.__new__, repeat(TraceRow),
                        zip(range(iters + 1), temps, objs, oks))),
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
