"""Strategy search: minimize predicted latency under loss, flash, and RAM budgets.

Simulated annealing over the per-layer pruned fractions.  Infeasible
candidates are admitted through a penalty term scaled to dominate the whole
latency range, so the chain can cross infeasible regions, but only feasible
candidates are ever returned as the incumbent.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .bundle import ModelBundle, bundle_from_masks
from .costmodel import Budget, LatencyParams, StrategyVector, model_size, \
    runtime_memory, total_time
from .errors import DataError
from .importance import ImportanceMap, build_mask, delta_loss
from .model import SequentialModel
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
        if self.importance.n_layers != len(self.specs):
            raise DataError("importance map does not cover every layer")


@dataclass(frozen=True)
class Evaluation:
    """All constraint-relevant metrics of one candidate strategy."""

    time: float
    size: int
    ram: int
    dl: float
    feasible: bool
    violations: dict[str, tuple[float, float]]


def evaluate(s, problem: ScheduleProblem) -> Evaluation:
    """Re-derive every metric from scratch; nothing is cached."""
    masks = build_mask(problem.importance, s)
    dl = delta_loss(problem.importance, masks)
    size = model_size(problem.specs, s, problem.m)
    kept_ch = [m.kept_channels() for m in masks]
    ram = runtime_memory(problem.specs, s, problem.m, kept_channels=kept_ch)
    time = total_time(problem.specs, s, problem.latency)
    violations = {}
    if dl > problem.budget.dl_max:
        violations["dl"] = (dl, problem.budget.dl_max)
    if size > problem.budget.mem_flash:
        violations["flash"] = (float(size), float(problem.budget.mem_flash))
    if ram > problem.budget.mem_ram:
        violations["ram"] = (float(ram), float(problem.budget.mem_ram))
    return Evaluation(time, size, ram, dl, not violations, violations)


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


@dataclass(frozen=True)
class TraceRow:
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
    rng = np.random.default_rng(seed)
    n = len(problem.specs)

    base_time = total_time(problem.specs, np.zeros(n), problem.latency)
    min_time = total_time(problem.specs, np.ones(n), problem.latency)
    # any relative violation should outweigh the whole attainable latency range
    lam = 10.0 * max(base_time - min_time, 1.0)
    if t0 is None:
        t0 = 0.1 * max(base_time, 1.0)

    def penalized(ev: Evaluation) -> float:
        return ev.time + lam * _violation_measure(ev, problem.budget)

    cur = np.zeros(n)
    cur_ev = evaluate(cur, problem)
    cur_obj = penalized(cur_ev)
    best_feasible = cur.copy() if cur_ev.feasible else None
    best_feasible_time = cur_ev.time if cur_ev.feasible else math.inf
    best_pen = cur.copy()
    best_pen_obj = cur_obj

    temp = float(t0)
    trace = [TraceRow(0, temp, cur_obj, cur_ev.feasible)]
    for it in range(1, iters + 1):
        i = int(rng.integers(n))
        sign = 1.0 if rng.random() < 0.5 else -1.0
        cand = cur.copy()
        cand[i] = min(1.0, max(0.0, cand[i] + sign * step))
        ev = evaluate(cand, problem)
        obj = penalized(ev)
        accept = obj <= cur_obj or rng.random() < math.exp(
            min(0.0, (cur_obj - obj) / max(temp, 1e-12)))
        if accept:
            cur, cur_obj = cand, obj
        if ev.feasible and ev.time < best_feasible_time:
            best_feasible, best_feasible_time = cand.copy(), ev.time
        if obj < best_pen_obj:
            best_pen, best_pen_obj = cand.copy(), obj
        trace.append(TraceRow(it, temp, cur_obj, ev.feasible))
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
        trace=tuple(trace),
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
