import hashlib
import importlib.util
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from filterlet.bundle import bundle_from_model, run_bundle
from filterlet.costmodel import Budget, LatencyParams, StrategyVector, \
    model_size, runtime_memory, total_time
from filterlet.errors import DataError, TopologyError
from filterlet.fwcs import FilterletMask
from filterlet.importance import GradientBundle, ImportanceMap, build_mask, \
    delta_loss, score_model
from filterlet.model import LayerDef, LayerQuant, SequentialModel
from filterlet.scheduler import _CHUNK, ScheduleProblem, ScheduleResult, \
    TraceRow, _Draws, anneal, evaluate, plan_and_pack
from filterlet.tensor import ConvLayerSpec, Tensor

LAT = LatencyParams(1.0, 1.0, 2.0, 2.0, lanes=4)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def two_layer_problem(seed=5, flash_frac=0.6, dl_frac=0.35, ram=10 ** 9,
                      flash_bytes=None):
    rng = np.random.default_rng(seed)
    s1 = ConvLayerSpec(n_filters=6, kernel_h=3, kernel_w=3, channels=4,
                       input_h=10, input_w=10)
    s2 = ConvLayerSpec(n_filters=8, kernel_h=3, kernel_w=3, channels=6,
                       input_h=8, input_w=8)
    specs = [s1, s2]
    imp = ImportanceMap(specs, [rng.random((6, 9)), rng.random((8, 9))])
    total_dl = sum(float(s.sum()) for s in imp.scores)
    if flash_bytes is None:
        flash_bytes = int(model_size(specs, [0, 0]) * flash_frac)
    budget = Budget(mem_flash=flash_bytes, mem_ram=ram, dl_max=total_dl * dl_frac)
    return ScheduleProblem(specs, imp, budget, LAT)


def grid_optimum(problem, steps=11):
    grid = [i / (steps - 1) for i in range(steps)]
    best = None
    for alphas in itertools.product(grid, repeat=len(problem.specs)):
        ev = evaluate(list(alphas), problem)
        if ev.feasible and (best is None or ev.time < best[0]):
            best = (ev.time, alphas)
    return best


def six_layer_problem(seed=7, flash_share=0.55, dl_share=0.25, ram_share=1.0):
    """A 6-layer int8 chain shaped like the prune-6L benchmark: 16x3x3x3 on
    24x24, then five 16x3x3x16; budgets are shares of the dense model's."""
    rng = np.random.default_rng(seed)
    layers, channels, side = [], 3, 24
    for i in range(6):
        spec = ConvLayerSpec(n_filters=16, kernel_h=3, kernel_w=3,
                             channels=channels, input_h=side, input_w=side)
        w = rng.integers(-100, 101, spec.weight_dims).astype(np.int8)
        quant = LayerQuant(input_scale=0.05, weight_scale=0.02, output_scale=0.4)
        layers.append(LayerDef(f"conv{i}", spec, Tensor.from_array(w), None,
                               quant))
        channels, side = 16, spec.out_h
    model = SequentialModel("six", layers)
    grads = GradientBundle([rng.normal(size=l.spec.weight_dims) for l in layers])
    imp = score_model(model, grads)
    zeros = [0.0] * 6
    budget = Budget(
        mem_flash=int(flash_share * model_size(model.specs, zeros)),
        mem_ram=int(ram_share * runtime_memory(model.specs, zeros)),
        dl_max=dl_share * sum(float(s.sum()) for s in imp.scores))
    return ScheduleProblem(model.specs, imp, budget, LAT)


def trace_digest(trace):
    h = hashlib.sha256()
    for r in trace:
        h.update(f"{r.iteration},{r.temperature.hex()},{r.objective.hex()},"
                 f"{int(r.feasible)};".encode())
    return h.hexdigest()[:16]


def reference_anneal(problem, seed=0, iters=5000, t0=None, cooling=0.995,
                     step=0.05):
    """The annealing chain as a plain loop over strategy tuples: numpy's
    Generator draws, a dict of visited strategies, and every metric of a new
    strategy re-derived from all of its masks by the whole-model functions.
    ``anneal`` must equal it bit for bit, trace included."""
    rng = np.random.default_rng(seed)
    specs, budget, n = problem.specs, problem.budget, len(problem.specs)
    base_time = total_time(specs, np.zeros(n), problem.latency)
    min_time = total_time(specs, np.ones(n), problem.latency)
    lam = 10.0 * max(base_time - min_time, 1.0)
    if t0 is None:
        t0 = 0.1 * max(base_time, 1.0)

    def metrics(s):
        masks = build_mask(problem.importance, s)
        time = total_time(specs, s, problem.latency)
        size = model_size(specs, s, problem.m)
        dl = delta_loss(problem.importance, masks)
        ram = runtime_memory(specs, s, problem.m,
                             kept_channels=[m.kept_channels() for m in masks])
        violations, v = {}, 0.0
        if dl > budget.dl_max:
            violations["dl"] = (dl, budget.dl_max)
            v += (dl - budget.dl_max) / max(budget.dl_max, 1e-12)
        if size > budget.mem_flash:
            violations["flash"] = (float(size), float(budget.mem_flash))
            v += (size - budget.mem_flash) / budget.mem_flash
        if ram > budget.mem_ram:
            violations["ram"] = (float(ram), float(budget.mem_ram))
            v += (ram - budget.mem_ram) / budget.mem_ram
        return (time, size, ram, dl, violations), time + lam * v

    visited = {}

    def visit(s):
        if s not in visited:
            visited[s] = metrics(s)
        (time, _, _, _, violations), obj = visited[s]
        return time, not violations, obj

    cur = (0.0,) * n
    cur_time, cur_feasible, cur_obj = visit(cur)
    best_feasible = cur if cur_feasible else None
    best_feasible_time = cur_time if cur_feasible else math.inf
    best_pen, best_pen_obj = cur, cur_obj
    rows = [TraceRow(0, float(t0), cur_obj, cur_feasible)]
    for run in range(2):
        if run:
            if best_feasible is not None:
                break
            # nothing feasible seen: once more from the best penalized
            # strategy, re-heated, on the same draws
            cur, cur_obj = best_pen, best_pen_obj
        temp = float(t0)
        for _ in range(iters):
            i = rng.integers(n)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            cand = (*cur[:i], min(1.0, max(0.0, cur[i] + sign * step)),
                    *cur[i + 1:])
            time, ok, obj = visit(cand)
            if obj <= cur_obj or rng.random() < math.exp(
                    min(0.0, (cur_obj - obj) / max(temp, 1e-12))):
                cur, cur_obj = cand, obj
            if ok and time < best_feasible_time:
                best_feasible, best_feasible_time = cand, time
            if obj < best_pen_obj:
                best_pen, best_pen_obj = cand, obj
            rows.append(TraceRow(len(rows), temp, cur_obj, ok))
            temp *= cooling
    chosen = best_feasible if best_feasible is not None else best_pen
    (time, size, ram, dl, violations), _ = visited[chosen]
    return ScheduleResult(StrategyVector(chosen), time, size, ram, dl,
                          not violations, violations, len(rows) - 1,
                          tuple(rows))


def small_chain_problem(rng, n_layers, budget):
    """A random chain of ``n_layers`` small layers with random scores; the
    budget kind is "flash" (flash and loss bind), "ram" (the dense model's
    peak SRAM does not fit) or "infeasible" (no pruning allowed, and the
    dense model does not fit flash)."""
    specs, channels, side = [], int(rng.integers(1, 5)), int(rng.integers(7, 11))
    for _ in range(n_layers):
        k = int(rng.integers(1, 3))
        spec = ConvLayerSpec(n_filters=int(rng.integers(2, 7)), kernel_h=k,
                             kernel_w=k, channels=channels, input_h=side,
                             input_w=side)
        specs.append(spec)
        channels, side = spec.n_filters, spec.out_h
    imp = ImportanceMap(specs, [rng.random((s.n_filters, s.filterlets_per_filter))
                                for s in specs])
    zeros = [0.0] * n_layers
    dense_flash = model_size(specs, zeros)
    dense_ram = runtime_memory(specs, zeros)
    total_dl = sum(float(s.sum()) for s in imp.scores)
    flash_share, ram_share, dl_share = {"flash": (0.6, 1.0, 0.35),
                                        "ram": (1.0, 0.7, 0.6),
                                        "infeasible": (0.5, 1.0, 0.0)}[budget]
    return ScheduleProblem(specs, imp, Budget(
        mem_flash=int(flash_share * dense_flash),
        mem_ram=int(ram_share * dense_ram),
        dl_max=dl_share * total_dl), LAT)


class TestFeasible:
    def test_all_ones_with_zero_dl_budget(self):
        problem = two_layer_problem(dl_frac=0.0)
        ev = evaluate([1.0, 1.0], problem)
        assert not ev.feasible and "dl" in ev.violations

    def test_all_zeros_with_huge_budgets(self):
        problem = two_layer_problem(flash_frac=10.0, dl_frac=1.0)
        ev = evaluate([0.0, 0.0], problem)
        assert ev.feasible and ev.violations == {}

    def test_agrees_with_direct_constraint_evaluation(self):
        rng = np.random.default_rng(7)
        problem = two_layer_problem()
        for _ in range(50):
            s = list(rng.uniform(0, 1, 2))
            ok = evaluate(s, problem).feasible
            masks = build_mask(problem.importance, s)
            want = (
                delta_loss(problem.importance, masks) <= problem.budget.dl_max
                and model_size(problem.specs, s) <= problem.budget.mem_flash
            )
            # ram budget is huge here, never binding
            assert ok == want


class TestAnneal:
    def test_single_layer_unconstrained_goes_to_full_pruning(self):
        rng = np.random.default_rng(8)
        spec = ConvLayerSpec(n_filters=4, kernel_h=3, kernel_w=3, channels=4,
                             input_h=8, input_w=8)
        imp = ImportanceMap([spec], [rng.random((4, 9))])
        budget = Budget(mem_flash=10 ** 9, mem_ram=10 ** 9, dl_max=10 ** 9)
        problem = ScheduleProblem([spec], imp, budget, LAT)
        result = anneal(problem, seed=0, iters=800, step=0.05)
        assert result.feasible
        assert result.s.alphas[0] == 1.0

    def test_reproducible_for_fixed_seed(self):
        problem = two_layer_problem()
        a = anneal(problem, seed=42, iters=300)
        b = anneal(problem, seed=42, iters=300)
        assert a.s == b.s
        assert a.predicted_time == b.predicted_time
        assert a.trace == b.trace

    def test_only_full_pruning_feasible(self):
        # flash so tight only an empty model fits; dl budget unlimited
        problem = two_layer_problem(flash_bytes=1, dl_frac=1.0)
        result = anneal(problem, seed=1, iters=2000, step=0.1)
        assert result.feasible
        assert result.s.alphas == (1.0, 1.0)

    def test_infeasible_problem_reports_best_candidate(self):
        # dl budget zero forbids pruning, flash budget forbids not pruning
        problem = two_layer_problem(flash_frac=0.5, dl_frac=0.0)
        result = anneal(problem, seed=2, iters=300)
        assert not result.feasible
        assert result.violations

    def test_metrics_match_fresh_evaluation(self):
        problem = two_layer_problem()
        result = anneal(problem, seed=3, iters=400)
        ev = evaluate(list(result.s), problem)
        assert result.predicted_time == ev.time
        assert result.predicted_size == ev.size
        assert result.predicted_ram == ev.ram
        assert result.predicted_dl == ev.dl

    def test_near_grid_optimum_on_discretized_toy(self):
        problem = two_layer_problem()
        best_time, _ = grid_optimum(problem)
        hits = 0
        for seed in range(20):
            r = anneal(problem, seed=seed, iters=400, step=0.1)
            assert r.feasible
            if r.predicted_time <= 1.05 * best_time:
                hits += 1
        assert hits >= 19

    def test_relaxing_flash_budget_never_hurts_median_time(self):
        tight = two_layer_problem(flash_frac=0.55)
        loose = two_layer_problem(flash_frac=0.75)
        tt, lt = [], []
        for seed in range(50):
            tt.append(anneal(tight, seed=seed, iters=250, step=0.1).predicted_time)
            lt.append(anneal(loose, seed=seed, iters=250, step=0.1).predicted_time)
        assert np.median(lt) <= np.median(tt)

    def test_trace_csv_shape(self):
        problem = two_layer_problem()
        result = anneal(problem, seed=4, iters=50)
        lines = result.trace_csv().splitlines()
        assert lines[0] == "iter,temp,objective,feasible"
        assert len(lines) == 52  # header + initial row + 50 iterations

    def test_bad_hyperparameters(self):
        problem = two_layer_problem()
        with pytest.raises(DataError):
            anneal(problem, iters=0)
        with pytest.raises(DataError):
            anneal(problem, cooling=1.5)

    # a step of 0 or nan never moves, a negative or inf one runs another
    # chain, and a t0 of nan accepts every candidate
    @pytest.mark.parametrize("kwargs", [
        {"step": 0.0}, {"step": math.nan}, {"step": -0.05}, {"step": 1.5},
        {"step": math.inf}, {"t0": math.nan}, {"t0": -1.0}, {"t0": math.inf}])
    def test_meaningless_search_settings_are_rejected(self, kwargs):
        with pytest.raises(DataError):
            anneal(two_layer_problem(), iters=10, **kwargs)

    def test_extreme_settings_still_search(self):
        problem = two_layer_problem(flash_bytes=1, dl_frac=1.0)
        for kwargs in ({"step": 1.0}, {"t0": 0.0}):
            result = anneal(problem, seed=1, iters=400, **kwargs)
            assert result.feasible and result.s.alphas == (1.0, 1.0)


def int8_model(seed=0, n_layers=1):
    rng = np.random.default_rng(seed)
    layers = []
    ih = iw = 8
    channels = 2
    for i in range(n_layers):
        spec = ConvLayerSpec(n_filters=4, kernel_h=2, kernel_w=2,
                             channels=channels, input_h=ih, input_w=iw)
        w = Tensor.from_array(
            rng.integers(-100, 100, spec.weight_dims).astype(np.int8))
        quant = LayerQuant(input_scale=0.05, weight_scale=0.02,
                           output_scale=0.4)
        layers.append(LayerDef(f"conv{i}", spec, w, None, quant))
        ih, iw, channels = spec.out_h, spec.out_w, spec.n_filters
    return SequentialModel("toy", layers)


class TestPlanAndPack:
    def test_end_to_end_single_layer(self):
        model = int8_model()
        rng = np.random.default_rng(9)
        spec = model.layers[0].spec
        from filterlet.importance import GradientBundle
        grads = GradientBundle([rng.normal(size=spec.weight_dims)])
        imp = score_model(model, grads)
        budget = Budget(mem_flash=10 ** 9, mem_ram=10 ** 9, dl_max=0.0)
        problem = ScheduleProblem([spec], imp, budget, LAT)
        bundle, result = plan_and_pack(problem, model, seed=0, iters=200)
        assert result.feasible
        assert bundle is not None
        # dl budget zero forces an effectively unpruned plan: outputs match
        # the dense model bitwise
        x = Tensor.from_array(
            rng.integers(-100, 100, spec.input_dims).astype(np.int8))
        ref = run_bundle(bundle_from_model(model), x)
        got = run_bundle(bundle, x)
        assert np.array_equal(got.output.data, ref.output.data)

    def test_zero_budget_returns_no_bundle(self):
        model = int8_model()
        rng = np.random.default_rng(10)
        spec = model.layers[0].spec
        from filterlet.importance import GradientBundle
        grads = GradientBundle([np.abs(rng.normal(size=spec.weight_dims)) + 0.1])
        imp = score_model(model, grads)
        budget = Budget(mem_flash=1, mem_ram=10 ** 9, dl_max=0.0)
        problem = ScheduleProblem([spec], imp, budget, LAT)
        bundle, result = plan_and_pack(problem, model, seed=0, iters=100)
        assert bundle is None
        assert not result.feasible

    def test_value_width_must_match_the_model(self):
        rng = np.random.default_rng(12)
        spec = ConvLayerSpec(n_filters=4, kernel_h=2, kernel_w=2, channels=2,
                             input_h=6, input_w=6)
        w = Tensor.from_array(rng.normal(size=spec.weight_dims).astype(np.float32))
        model = SequentialModel("f", [LayerDef("c0", spec, w)])
        imp = ImportanceMap([spec], [rng.random((4, 4))])
        budget = Budget(mem_flash=10 ** 9, mem_ram=10 ** 9, dl_max=10 ** 9)
        with pytest.raises(DataError):
            plan_and_pack(ScheduleProblem([spec], imp, budget, LAT), model,
                          iters=10)
        bundle, result = plan_and_pack(
            ScheduleProblem([spec], imp, budget, LAT, m=32), model, iters=10)
        assert result.predicted_size == model_size([spec], result.s, m=32)
        with pytest.raises(DataError):
            plan_and_pack(ScheduleProblem([spec], imp, budget, LAT, m=32),
                          int8_model(), iters=10)

    def test_predicted_size_matches_payload_within_slack(self):
        model = int8_model()
        rng = np.random.default_rng(11)
        spec = model.layers[0].spec
        from filterlet.importance import GradientBundle
        grads = GradientBundle([rng.normal(size=spec.weight_dims)])
        imp = score_model(model, grads)
        dense_bytes = model_size([spec], [0.0])
        budget = Budget(mem_flash=int(dense_bytes * 0.6), mem_ram=10 ** 9,
                        dl_max=10 ** 9)
        problem = ScheduleProblem([spec], imp, budget, LAT)
        bundle, result = plan_and_pack(problem, model, seed=0, iters=300)
        assert result.feasible
        assert abs(bundle.payload_bytes() - result.predicted_size) <= 64


class TestEvaluate:
    PROBLEMS = {"two": two_layer_problem(),
                "six": six_layer_problem(ram_share=0.6)}

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(PROBLEMS)), data=st.data())
    def test_equals_the_whole_model_functions(self, name, data):
        problem = self.PROBLEMS[name]
        n = len(problem.specs)
        # fractions off any grid, on a 0.05 grid, and at the ends
        alpha = st.one_of(st.floats(0.0, 1.0),
                          st.integers(0, 20).map(lambda k: k * 0.05),
                          st.sampled_from([0.0, 1.0]))
        s = data.draw(st.lists(alpha, min_size=n, max_size=n))
        masks = build_mask(problem.importance, s)
        ev = evaluate(s, problem)
        assert ev.dl == delta_loss(problem.importance, masks)
        assert ev.size == model_size(problem.specs, s, problem.m)
        assert ev.ram == runtime_memory(
            problem.specs, s, problem.m,
            kept_channels=[m.kept_channels() for m in masks])
        assert ev.time == total_time(problem.specs, s, problem.latency)
        assert evaluate(StrategyVector(tuple(s)), problem) == ev

    def test_rejects_bad_strategies(self):
        # every function that takes a strategy checks it the same way, and
        # takes a StrategyVector or a plain list alike
        problem = two_layer_problem()
        specs = problem.specs
        entry_points = {
            "evaluate": lambda s: evaluate(s, problem),
            "model_size": lambda s: model_size(specs, s),
            "runtime_memory": lambda s: runtime_memory(specs, s),
            "total_time": lambda s: total_time(specs, s, LAT),
            "build_mask": lambda s: [m.kept.tolist() for m in build_mask(
                problem.importance, s)],
        }
        good = [0.25, 0.5]
        for name, f in entry_points.items():
            assert f(StrategyVector(tuple(good))) == f(good), name
        for s in ([0.5, 1.5], [float("nan"), 0.0]):
            with pytest.raises(DataError, match="alpha outside"):
                StrategyVector(tuple(s))
            for name, f in entry_points.items():
                with pytest.raises(DataError, match="alpha outside"):
                    f(s)
        for s in ([0.5], [0.5, 0.5, 0.5]):
            for name, f in entry_points.items():
                for strategy in (s, StrategyVector(tuple(s))):
                    with pytest.raises(DataError, match="length"):
                        f(strategy)

    def test_problem_layers_must_chain(self):
        problem = two_layer_problem()
        specs = [problem.specs[1], problem.specs[0]]
        imp = ImportanceMap(specs, problem.importance.scores[::-1])
        with pytest.raises(TopologyError):
            ScheduleProblem(specs, imp, problem.budget, LAT)

    def test_importance_specs_must_match_the_layers(self):
        # same score shape (6 filters x 9 filterlets), other geometry: masks
        # and the loss would come from one layer, flash, RAM and time from
        # another
        problem = two_layer_problem()
        s1 = problem.specs[0]
        other = ConvLayerSpec(n_filters=6, kernel_h=3, kernel_w=3, channels=40,
                              input_h=30, input_w=30)
        imp = ImportanceMap([other], problem.importance.scores[:1])
        with pytest.raises(DataError):
            ScheduleProblem([s1], imp, problem.budget, LAT)
        with pytest.raises(DataError):
            ScheduleProblem(problem.specs, ImportanceMap([s1], imp.scores),
                            problem.budget, LAT)

    def test_scores_are_frozen_copies(self):
        # the problem memoizes per-layer terms of the scores on first use,
        # so an edit the caller makes afterwards must not reach them
        problem = two_layer_problem()
        source = [s.copy() for s in problem.importance.scores]
        imp = ImportanceMap(problem.specs, source)
        frozen = ScheduleProblem(problem.specs, imp, problem.budget, LAT)
        before = evaluate([0.5, 0.3], frozen)
        kept = [s.copy() for s in imp.scores]
        for s in source:
            s[...] = 7.0
        assert all(np.array_equal(a, b) for a, b in zip(imp.scores, kept))
        assert not any(s.flags.writeable for s in imp.scores)
        assert evaluate([0.5, 0.3], frozen) == before
        assert evaluate([0.5, 0.3],
                        ScheduleProblem(problem.specs, imp, problem.budget,
                                        LAT)) == before
        with pytest.raises(ValueError):
            imp.scores[0][0, 0] = 1.0


class TestDraws:
    """The chain's draw reader must equal ``np.random.default_rng(seed)``
    call for call; this fails if numpy changes the Generator's stream."""

    # 1 draws no integer, 6 is a layer count, 2**31 + 5 rejects about half
    # of its 32-bit draws
    NS = (1, 2, 3, 6, 7, 100, 2 ** 31 + 5, 2 ** 32 - 1, 2 ** 32)

    @staticmethod
    def numpy_move(rng, n):
        i = rng.integers(n)
        return 2 * i + (rng.random() >= 0.5)

    @pytest.mark.parametrize("seed", range(60))
    def test_random_interleaving_matches_numpy(self, seed):
        plan = np.random.default_rng([seed, 7])
        draws, rng = _Draws(seed), np.random.default_rng(seed)
        # about 5 words per 4 draws: several chunks' worth of words
        for _ in range(5 * _CHUNK):
            if plan.random() < 0.5:
                assert draws.random() == rng.random()
            else:
                n = self.NS[plan.integers(len(self.NS))]
                assert draws.move(n) == self.numpy_move(rng, n)

    def test_buffered_half_crosses_a_refill(self):
        # the last word of the first chunk gives a move's layer its low
        # half, its coin refills, and the next move's layer takes the
        # buffered high half
        draws, rng = _Draws(11), np.random.default_rng(11)
        for _ in range(_CHUNK - 1):
            assert draws.random() == rng.random()
        for _ in range(3):
            assert draws.move(6) == self.numpy_move(rng, 6)
            assert draws.random() == rng.random()


class TestAgainstReferenceChain:
    STEPS = (0.05, 0.07, 0.1, 0.3, 1.0)
    BUDGETS = ("flash", "ram", "infeasible")

    @pytest.mark.parametrize("iters", (1, 50, 2000))
    @pytest.mark.parametrize("step", STEPS)
    def test_equals_the_reference_chain(self, step, iters):
        for b, budget in enumerate(self.BUDGETS):
            case = [self.STEPS.index(step), iters, b]
            rng = np.random.default_rng(case)
            n_layers = 1 + (sum(case) % 4)
            problem = small_chain_problem(rng, n_layers, budget)
            dense = evaluate([0.0] * n_layers, problem)
            if budget == "ram":
                assert "ram" in dense.violations
            kwargs = {"seed": int(rng.integers(1000)), "iters": iters,
                      "step": step,
                      "t0": (None, 0.0, 30.0, 1e6)[rng.integers(4)],
                      "cooling": (0.995, 0.9, 0.5)[rng.integers(3)]}
            got = anneal(problem, **kwargs)
            assert got == reference_anneal(problem, **kwargs), (budget, kwargs)
            if budget == "infeasible":
                assert not got.feasible

    def test_one_sort_per_layer_and_one_mask_per_kept_count(self, monkeypatch):
        problem = six_layer_problem(ram_share=0.6, dl_share=0.6,
                                    flash_share=1.0)
        layer_of = {id(spec): i for i, spec in enumerate(problem.specs)}
        sorts, masks = [], []
        argsort, post_init = np.argsort, FilterletMask.__post_init__

        def counting_argsort(*args, **kwargs):
            sorts.append(1)
            return argsort(*args, **kwargs)

        def counting_post_init(mask):
            post_init(mask)
            masks.append((layer_of[id(mask.spec)], int(mask.kept.sum())))

        monkeypatch.setattr(np, "argsort", counting_argsort)
        monkeypatch.setattr(FilterletMask, "__post_init__", counting_post_init)
        anneal(problem, seed=5, iters=2000)
        assert len(sorts) <= len(problem.specs)
        assert masks and len(masks) == len(set(masks))


class TestPinnedAnneal:
    """Results recorded from the annealer that re-derived every metric of
    every candidate from all of its masks; the per-layer terms must
    reproduce them bit for bit."""

    PINNED = {
        # name: (problem shares, anneal args, s, time, size, ram, dl,
        #        violations, trace digest)
        "seed0": ({}, {"seed": 0},
                  (0.44999999999999996, 0.7500000000000001, 0.7000000000000001,
                   0.5499999999999999, 0.3, 0.35),
                  1079861.6, 6497, 13744, 733.9395880497492, {},
                  "39aaebe7c77d24c5"),
        "seed1": ({}, {"seed": 1},
                  (0.65, 0.5499999999999999, 0.39999999999999997,
                   0.7500000000000001, 0.6, 0.35),
                  1125135.2, 6352, 14144, 737.8611865807543, {},
                  "d47ef20c7aebe828"),
        "seed2": ({}, {"seed": 2},
                  (0.7500000000000001, 0.65, 0.5499999999999999, 0.6,
                   0.39999999999999997, 0.44999999999999996),
                  1071308.0, 6264, 13744, 730.5476499769258, {},
                  "19f13a4a505db2b5"),
        # sees nothing feasible, so the chain runs twice (10000 steps)
        "infeasible": ({"dl_share": 0.0}, {"seed": 3},
                       (0.0,) * 6, 2180684.0, 13680, 14144, 0.0,
                       {"flash": (13680.0, 7524.0)}, "4e799c6cc902d6ce"),
        "step0.1": ({}, {"seed": 4, "step": 0.1},
                    (0.7999999999999999, 0.7, 0.7, 0.5, 0.30000000000000004,
                     0.2),
                    1077183.2, 6877, 12776, 731.012708964604, {},
                    "c308e487d83b908f"),
        # RAM binds on 430 of the 5000 candidates: emptied filters matter
        "ram": ({"ram_share": 0.6, "dl_share": 0.6, "flash_share": 1.0},
                {"seed": 5},
                (0.8999999999999999, 1.0, 0.8500000000000002,
                 0.9500000000000003, 0.6, 0.5499999999999999),
                546946.3999999999, 2806, 7052, 1768.246027176452, {},
                "20f2615bd5e62584"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_matches_recorded_result(self, name):
        shares, kwargs, s, time, size, ram, dl, violations, digest = \
            self.PINNED[name]
        result = anneal(six_layer_problem(**shares), iters=5000, **kwargs)
        assert result.s.alphas == s
        assert (result.predicted_time, result.predicted_size,
                result.predicted_ram, result.predicted_dl) == (time, size, ram, dl)
        assert result.feasible == (not violations)
        assert result.violations == violations
        # a chain that sees nothing feasible runs twice
        assert result.iterations == (5000 if result.feasible else 10000)
        assert len(result.trace) == result.iterations + 1
        assert trace_digest(result.trace) == digest


class TestRestart:
    """A chain that sees nothing feasible runs once more from its best
    penalized state; these problems need it."""

    @staticmethod
    def benchmark_problem(draw_seed, op):
        """The problem and anneal seed of ``prune-6L`` operation ``op`` on
        draw seed ``draw_seed``, built by the benchmark's own code."""
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        prune = workloads.Prune()
        st_ = prune.build(prune.draw(draw_seed))
        model = st_["model"]
        problem = ScheduleProblem(model.specs,
                                  score_model(model, st_["grads"]),
                                  st_["budget"], st_["latency"])
        return problem, prune.prepare(st_, "prune", op)

    @pytest.mark.parametrize("draw_seed, op, anneal_seed", [
        (10, 936, 2063266948), (202, 571, 1594113555)])
    def test_benchmark_anneals_that_saw_nothing_feasible(self, draw_seed, op,
                                                         anneal_seed):
        problem, seed = self.benchmark_problem(draw_seed, op)
        assert seed == anneal_seed
        result = anneal(problem, seed=seed)
        assert result.feasible
        assert result.iterations == 10000
        assert len(result.trace) == 10001
        # the first run saw nothing feasible
        assert not any(r.feasible for r in result.trace[:5001])
