import numpy as np
import pytest

import bundle_v1

from filterlet.costmodel import Budget, LatencyParams, StrategyVector, \
    _design_row, fit_latency_params, layer_latency, load_latency_params, load_samples_csv, \
    model_size, normalized_mse, runtime_memory, save_latency_params, \
    save_samples_csv, total_time
from filterlet.cyclesim import ComputeSchedule, MachineConfig, layer_stream
from filterlet.errors import DataError, FitError, TopologyError
from filterlet.fwcs import FilterletMask, check_fwcs_index, encode_fwcs, \
    kept_count, write_fwcs
from filterlet.importance import ImportanceMap, build_mask
from filterlet.tensor import ConvLayerSpec, Tensor


def chain_specs():
    s1 = ConvLayerSpec(n_filters=4, kernel_h=3, kernel_w=3, channels=2,
                       input_h=9, input_w=9)
    s2 = ConvLayerSpec(n_filters=6, kernel_h=2, kernel_w=2, channels=4,
                       input_h=s1.out_h, input_w=s1.out_w)
    return [s1, s2]


def rand_spec(rng, min_c=4, max_c=24):
    kh = int(rng.integers(2, 4))
    kw = int(rng.integers(2, 4))
    return ConvLayerSpec(
        n_filters=int(rng.integers(3, 13)), kernel_h=kh, kernel_w=kw,
        channels=int(rng.integers(min_c, max_c + 1)),
        input_h=int(rng.integers(kh + 4, 13)),
        input_w=int(rng.integers(kw + 4, 13)),
    )


def simulated_cycles(spec, alpha, cfg, rng,
                     schedule=ComputeSchedule.REORDERED):
    total = spec.n_filters * spec.filterlets_per_filter
    k = kept_count(total, alpha)
    kept = np.zeros(total, bool)
    kept[rng.choice(total, k, replace=False)] = True
    w = Tensor.from_array(
        rng.integers(-100, 100, spec.weight_dims).astype(np.int8))
    layer = encode_fwcs(w, FilterletMask(spec, kept.reshape(spec.n_filters, -1)))
    return layer_stream(layer, spec, schedule, cfg).cycles()


class TestStrategyVector:
    def test_validation(self):
        StrategyVector((0.0, 0.5, 1.0))
        with pytest.raises(DataError):
            StrategyVector((1.2,))
        with pytest.raises(DataError):
            StrategyVector((float("nan"),))


class TestBudget:
    def test_infinite_loss_budget_means_no_limit(self):
        assert Budget(100, np.int64(200), float("inf")).dl_max == float("inf")
        Budget(100, 200, np.float32(0.0))

    @pytest.mark.parametrize("dl_max", [float("nan"), np.float64("nan"), "1",
                                        True, None])
    def test_loss_budget_must_be_a_real_number(self, dl_max):
        with pytest.raises(DataError, match="dl_max"):
            Budget(100, 200, dl_max)

    @pytest.mark.parametrize("flash, ram", [(100.0, 200), (100, 200.5),
                                            (True, 200), (100, "200")])
    def test_memory_budgets_must_be_integers(self, flash, ram):
        with pytest.raises(DataError, match="integers"):
            Budget(flash, ram, 1.0)


class TestModelSize:
    def test_nothing_pruned(self):
        specs = chain_specs()
        want_bits = sum(8 * s.weight_count
                        + 16 * s.n_filters * s.filterlets_per_filter
                        for s in specs)
        assert model_size(specs, [0.0, 0.0]) == want_bits // 8

    def test_everything_pruned(self):
        assert model_size(chain_specs(), [1.0, 1.0]) == 0

    def test_half_pruned_reference_layer(self):
        spec = ConvLayerSpec(n_filters=16, kernel_h=3, kernel_w=3, channels=8,
                             input_h=5, input_w=5)
        assert model_size([spec], [0.5]) == 576 + 144 == 720

    def test_matches_serialized_payload_within_framing(self):
        rng = np.random.default_rng(0)
        spec = rand_spec(rng)
        w = Tensor.from_array(
            rng.integers(-100, 100, spec.weight_dims).astype(np.int8))
        imp = ImportanceMap([spec], [rng.random(
            (spec.n_filters, spec.filterlets_per_filter))])
        width = check_fwcs_index(spec).itemsize
        for alpha in (0.0, 0.3, 0.62, 1.0):
            mask = build_mask(imp, [alpha])[0]
            layer = encode_fwcs(w, mask)
            predicted = model_size([spec], [alpha])
            # the paper's layout is the version-1 block: its framing, the
            # f_idx table and the size field are the only slack
            slack = bundle_v1.FWCS_FRAMING_BYTES + 2 * (spec.n_filters + 1) + 2
            assert len(bundle_v1.fwcs_block(layer)) - predicted == slack
            # the stored block: magic, a count per filter, and each kept
            # filterlet's position at the index width in place of a u16
            keep = layer.n_retained
            assert len(write_fwcs(layer, spec)) - predicted == \
                4 + width * spec.n_filters + (width - 2) * keep

    def test_monotone_non_increasing(self):
        specs = chain_specs()
        sizes = [model_size(specs, [a, 0.3]) for a in np.linspace(0, 1, 11)]
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))


class TestRuntimeMemory:
    def test_single_layer(self):
        spec = ConvLayerSpec(n_filters=4, kernel_h=3, kernel_w=3, channels=2,
                             input_h=9, input_w=9)
        want = 9 * 9 * 2 + 4 * spec.out_positions
        assert runtime_memory([spec], [0.0]) == want

    def test_adjacent_pair_maximum(self):
        specs = chain_specs()
        # brute-force oracle over adjacent pairs
        m0 = 9 * 9 * 2
        m1 = 4 * specs[0].out_positions
        m2 = 6 * specs[1].out_positions
        assert runtime_memory(specs, [0.0, 0.0]) == max(m0 + m1, m1 + m2)

    def test_fully_emptied_filters_shrink_the_map(self):
        specs = chain_specs()
        base = runtime_memory(specs, [0.0, 0.0])
        half = runtime_memory(specs, [0.0, 0.0], kept_channels=[2, 6])
        m0 = 9 * 9 * 2
        m1h = 2 * specs[0].out_positions
        m2 = 6 * specs[1].out_positions
        assert half == max(m0 + m1h, m1h + m2)
        assert half < base

    def test_non_sequential_chain_rejected(self):
        s1 = ConvLayerSpec(n_filters=4, kernel_h=3, kernel_w=3, channels=2,
                           input_h=9, input_w=9)
        s2 = ConvLayerSpec(n_filters=6, kernel_h=2, kernel_w=2, channels=5,
                           input_h=7, input_w=7)
        with pytest.raises(TopologyError):
            runtime_memory([s1, s2], [0.0, 0.0])

    def test_monotone_non_increasing_in_alpha(self):
        specs = chain_specs()
        rams = [runtime_memory(specs, [a, a]) for a in (0.0, 0.5, 1.0)]
        assert all(b <= a for a, b in zip(rams, rams[1:]))


class TestLayerLatency:
    def test_alpha_one_leaves_fetch_and_post(self):
        spec = chain_specs()[0]
        p = LatencyParams(1.5, 1.0, 2.0, 3.0, lanes=4)
        want = (spec.kernel_h * spec.kernel_w * spec.channels * 1.5
                + spec.n_filters * 3.0) * spec.out_positions
        assert layer_latency(spec, 1.0, p) == pytest.approx(want)

    def test_strictly_decreasing_in_alpha(self):
        spec = chain_specs()[0]
        p = LatencyParams(1.0, 1.0, 2.0, 2.0, lanes=4)
        vals = [layer_latency(spec, a, p) for a in np.linspace(0, 1, 11)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_total_time_is_sum(self):
        specs = chain_specs()
        p = LatencyParams(1.0, 0.5, 2.0, 1.0, lanes=8)
        s = [0.2, 0.7]
        assert total_time(specs, s, p) == pytest.approx(
            layer_latency(specs[0], 0.2, p) + layer_latency(specs[1], 0.7, p))

    @pytest.mark.parametrize("lanes", [4.5, 4.0, True, "4", None])
    def test_lanes_must_be_an_integer(self, lanes):
        with pytest.raises(DataError, match="lanes"):
            LatencyParams(1.0, 1.0, 2.0, 2.0, lanes=lanes)

    def test_numpy_integer_lanes_become_python_ints(self):
        p = LatencyParams(1.0, 1.0, 2.0, 2.0, lanes=np.int64(8))
        assert type(p.lanes) is int
        assert p == LatencyParams(1.0, 1.0, 2.0, 2.0, lanes=8)

    def test_params_must_be_non_negative(self):
        with pytest.raises(DataError):
            LatencyParams(-1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("v", ["1", None, True, float("nan"),
                                   float("inf"), -1])
    def test_params_must_be_finite_non_negative_reals(self, v):
        for k in range(4):
            args = [1.0, 1.0, 2.0, 2.0]
            args[k] = v
            with pytest.raises(DataError, match="non-negative"):
                LatencyParams(*args)

    @pytest.mark.parametrize("v", [1, np.float64(2.0), 0])
    def test_params_take_ints_and_numpy_reals(self, v):
        assert LatencyParams(v, 1.0, 2.0, 2.0).t_mem == v


class TestFit:
    def test_exact_recovery_on_noiseless_samples(self):
        true = LatencyParams(1.3, 0.7, 2.1, 1.9, lanes=8)
        rng = np.random.default_rng(1)
        samples = []
        for _ in range(10):
            spec = rand_spec(rng)
            alpha = float(rng.uniform(0, 0.9))
            samples.append((spec, alpha, layer_latency(spec, alpha, true)))
        fit, mse = fit_latency_params(samples, lanes=8)
        for name in ("t_mem", "t_idx", "t_com", "t_post"):
            assert abs(getattr(fit, name) - getattr(true, name)) <= 1e-9
        assert mse <= 1e-18

    def test_simulator_samples_fit_within_tolerance(self):
        rng = np.random.default_rng(2)
        cfg = MachineConfig(lanes=8)
        train = []
        for _ in range(10):
            spec = rand_spec(rng)
            alpha = float(rng.uniform(0.05, 0.85))
            train.append((spec, alpha, simulated_cycles(spec, alpha, cfg, rng)))
        params, train_mse = fit_latency_params(train, lanes=8)
        assert train_mse <= 0.05
        held = []
        for _ in range(20):
            spec = rand_spec(rng)
            alpha = float(rng.uniform(0.05, 0.85))
            held.append((spec, alpha, simulated_cycles(spec, alpha, cfg, rng)))
        pred = [layer_latency(s, a, params) for s, a, _ in held]
        assert normalized_mse([c for _, _, c in held], pred) <= 0.05

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_binding_constraint_meets_the_nnls_optimality_conditions(self, seed):
        # noiseless cycles of a negative t_idx: the unconstrained fit is
        # (1.0, -0.3, 2.0, 2.0), so the non-negativity constraint binds
        rng = np.random.default_rng(seed)
        samples = []
        for _ in range(10):
            spec = rand_spec(rng)
            alpha = float(rng.uniform(0, 0.9))
            row = _design_row(spec, alpha, 8)
            samples.append((spec, alpha, float(np.dot(row, (1.0, -0.3, 2.0, 2.0)))))
        fit, _ = fit_latency_params(samples, lanes=8)
        coef = np.array([fit.t_mem, fit.t_idx, fit.t_com, fit.t_post])
        x = np.array([_design_row(s, a, 8) for s, a, _ in samples])
        y = np.array([c for _, _, c in samples])
        # gradient of half the squared residual, scale-free
        grad = x.T @ (x @ coef - y) / (np.linalg.norm(x, axis=0)
                                       * np.linalg.norm(y))
        assert np.all(coef >= 0) and fit.t_idx == 0
        assert np.all(np.abs(grad[coef > 0]) <= 1e-9)
        assert np.all(grad[coef == 0] >= 0)

    def test_duplicated_sample_is_rank_deficient(self):
        rng = np.random.default_rng(3)
        spec = rand_spec(rng)
        sample = (spec, 0.4, 1000.0)
        with pytest.raises(FitError):
            fit_latency_params([sample] * 6, lanes=8)

    def test_too_few_samples(self):
        rng = np.random.default_rng(4)
        spec = rand_spec(rng)
        with pytest.raises(FitError):
            fit_latency_params([(spec, 0.1, 10.0)] * 3, lanes=8)

    def test_deficiency_error_names_a_parameter(self):
        rng = np.random.default_rng(5)
        spec = rand_spec(rng)
        with pytest.raises(FitError, match="t_"):
            fit_latency_params([(spec, 0.4, 100.0),
                                (spec, 0.4, 100.0),
                                (spec, 0.4, 100.0),
                                (spec, 0.4, 100.0)], lanes=8)


    def test_all_zero_column_names_its_parameter(self):
        rng = np.random.default_rng(6)
        # nothing kept: the index and MAC columns are all zero
        samples = [(rand_spec(rng), 1.0, 100.0 + i) for i in range(6)]
        with pytest.raises(FitError, match="all-zero column for t_idx"):
            fit_latency_params(samples, lanes=8)


class TestPersistence:
    def test_params_round_trip(self, tmp_path):
        p = LatencyParams(1.25, 0.5, 2.75, 3.0, lanes=16)
        path = tmp_path / "params.txt"
        save_latency_params(path, p)
        back = load_latency_params(path)
        assert back == p

    def test_numpy_scalar_params_are_stored_as_floats(self, tmp_path):
        p = LatencyParams(np.float64(1.25), 1, np.float32(2.5), 2.0,
                          lanes=np.int64(4))
        assert all(type(getattr(p, name)) is float
                   for name in ("t_mem", "t_idx", "t_com", "t_post"))
        path = tmp_path / "params.txt"
        save_latency_params(path, p)
        assert load_latency_params(path) == p

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("# fitted on fig9\n\nt_mem=1.0\n  \nt_idx=0.5\n"
                        "# lanes below\nt_com=2.0\nt_post=3.0\nlanes=8\n")
        assert load_latency_params(path) == LatencyParams(1.0, 0.5, 2.0, 3.0,
                                                          lanes=8)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("t_mem=1.0\nt_idx=1.0\nt_post=2.0\nlanes=4\n")
        with pytest.raises(DataError, match="t_com"):
            load_latency_params(path)

    @pytest.mark.parametrize("text", ["4.9", "4.0", "four", "True", ""])
    def test_non_integer_lanes_in_a_file_rejected(self, tmp_path, text):
        path = tmp_path / "params.txt"
        path.write_text(f"t_mem=1.0\nt_idx=1.0\nt_com=2.0\nt_post=2.0\n"
                        f"lanes={text}\n")
        with pytest.raises(DataError, match="lanes"):
            load_latency_params(path)

    def test_samples_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        samples = [(rand_spec(rng), float(rng.uniform(0, 1)), float(rng.integers(100, 10000)))
                   for _ in range(5)]
        path = tmp_path / "samples.csv"
        save_samples_csv(path, samples)
        back = load_samples_csv(path)
        assert back == samples

    def test_csv_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError):
            load_samples_csv(path)
