import itertools

import numpy as np
import pytest

from filterlet.bundle import bundle_from_model, run_bundle
from filterlet.costmodel import Budget, LatencyParams, model_size
from filterlet.errors import DataError
from filterlet.importance import ImportanceMap, build_mask, delta_loss, \
    score_model
from filterlet.model import LayerDef, LayerQuant, SequentialModel
from filterlet.scheduler import ScheduleProblem, anneal, evaluate, feasible, \
    plan_and_pack
from filterlet.tensor import ConvLayerSpec, Tensor

LAT = LatencyParams(1.0, 1.0, 2.0, 2.0, lanes=4)


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


class TestFeasible:
    def test_all_ones_with_zero_dl_budget(self):
        problem = two_layer_problem(dl_frac=0.0)
        ok, report = feasible([1.0, 1.0], problem)
        assert not ok and "dl" in report

    def test_all_zeros_with_huge_budgets(self):
        problem = two_layer_problem(flash_frac=10.0, dl_frac=1.0)
        ok, report = feasible([0.0, 0.0], problem)
        assert ok and report == {}

    def test_agrees_with_direct_constraint_evaluation(self):
        rng = np.random.default_rng(7)
        problem = two_layer_problem()
        for _ in range(50):
            s = list(rng.uniform(0, 1, 2))
            ok, _ = feasible(s, problem)
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
