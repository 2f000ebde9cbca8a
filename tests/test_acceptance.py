"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not configurable.
"""

import itertools
import time

import numpy as np

from filterlet.bundle import ModelBundle, bundle_from_model, run_bundle
from filterlet.cli import main
from filterlet.convops import conv_csr, conv_dense, conv_fwcs, \
    conv_fwcs_reordered
from filterlet.costmodel import Budget, LatencyParams, fit_latency_params, \
    layer_latency, model_size, normalized_mse
from filterlet.cyclesim import ComputeSchedule, MachineConfig, layer_cycles, \
    simulate, two_mac_default_stream, two_mac_pinned_stream
from filterlet.fwcs import FilterletMask, decode_fwcs, encode_csr, \
    encode_fwcs, kept_count
from filterlet.importance import ImportanceMap, apply_mask_zeroing, \
    finite_diff_gradient, model_loss, taylor_score
from filterlet.model import LayerDef, LayerQuant, SequentialModel
from filterlet.scheduler import ScheduleProblem, anneal, evaluate
from filterlet.tensor import ConvLayerSpec, Tensor, write_tensor


def _rand_instance(rng, dtype):
    kh = int(rng.integers(1, 4))
    kw = int(rng.integers(1, 4))
    ih = int(rng.integers(kh, 9))
    iw = int(rng.integers(kw, 9))
    spec = ConvLayerSpec(
        n_filters=int(rng.integers(1, 9)), kernel_h=kh, kernel_w=kw,
        channels=int(rng.integers(1, 9)), input_h=ih, input_w=iw,
        stride=int(rng.integers(1, 3)),
    )
    if dtype == "int8":
        x = Tensor.from_array(rng.integers(-128, 128, spec.input_dims).astype(np.int8))
        w = Tensor.from_array(rng.integers(-128, 128, spec.weight_dims).astype(np.int8))
    else:
        x = Tensor.from_array(rng.normal(size=spec.input_dims).astype(np.float32))
        w = Tensor.from_array(rng.normal(size=spec.weight_dims).astype(np.float32))
    mask = FilterletMask(
        spec, rng.random((spec.n_filters, spec.filterlets_per_filter)) < rng.random())
    return spec, x, w, mask


def _rand_fwcs_layer(rng, min_c=1, max_c=8, density=None, max_in=8):
    kh = int(rng.integers(1, 4))
    kw = int(rng.integers(1, 4))
    spec = ConvLayerSpec(
        n_filters=int(rng.integers(1, 9)), kernel_h=kh, kernel_w=kw,
        channels=int(rng.integers(min_c, max_c + 1)),
        input_h=int(rng.integers(kh, max_in + 1)),
        input_w=int(rng.integers(kw, max_in + 1)),
        stride=int(rng.integers(1, 3)),
    )
    w = Tensor.from_array(
        rng.integers(-128, 128, spec.weight_dims).astype(np.int8))
    density = rng.random() if density is None else density
    kept = rng.random((spec.n_filters, spec.filterlets_per_filter)) < density
    return spec, encode_fwcs(w, FilterletMask(spec, kept))


def test_criterion_1_oracle_equivalence():
    """All sparse operators equal the dense oracle bitwise on 500 random
    instances, int8 and float32 alike."""
    started = time.monotonic()
    rng = np.random.default_rng(1001)
    for trial in range(500):
        dtype = "int8" if trial % 2 == 0 else "float32"
        spec, x, w, mask = _rand_instance(rng, dtype)
        layer = encode_fwcs(w, mask)
        csr = encode_csr(w, mask.to_weight_mask())
        want = conv_dense(x, decode_fwcs(layer, spec), spec)
        outs = (
            conv_fwcs(x, layer, spec),
            conv_fwcs_reordered(x, layer, spec),
            conv_csr(x, csr, spec),
        )
        for got in outs:
            assert np.array_equal(got, want)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 oracle-equivalence: PASS ({elapsed:.1f}s, 500 instances)")


def test_criterion_2_two_mac_microbenchmark_cycles():
    """Canned two-MAC streams take exactly 9 (fresh pairs) and 7 (pinned) cycles."""
    cfg = MachineConfig(lanes=4)
    default = simulate(two_mac_default_stream(), cfg).total_cycles
    pinned = simulate(two_mac_pinned_stream(), cfg).total_cycles
    assert default == 9
    assert pinned == 7
    print("\nACCEPTANCE 2 two-MAC micro timing (9/7 cycles): PASS")


def test_criterion_3_index_overhead_ratio():
    """At filterlet-granularity masks CSR holds exactly C times more indexes."""
    rng = np.random.default_rng(1003)
    checked = 0
    for c in (1, 2, 3, 4, 5, 8):
        for _ in range(10):
            spec = ConvLayerSpec(
                n_filters=int(rng.integers(1, 9)), kernel_h=int(rng.integers(1, 4)),
                kernel_w=int(rng.integers(1, 4)), channels=c,
                input_h=8, input_w=8)
            w = Tensor.from_array(
                rng.integers(-128, 128, spec.weight_dims).astype(np.int8))
            kept = rng.random(
                (spec.n_filters, spec.filterlets_per_filter)) < rng.random()
            mask = FilterletMask(spec, kept)
            fw = encode_fwcs(w, mask)
            cs = encode_csr(w, mask.to_weight_mask())
            assert len(cs.c_ptr) == c * len(fw.c_ptr)
            checked += 1
    assert checked == 60
    print("\nACCEPTANCE 3 index-overhead ratio (= C exactly): PASS")


def _regression_config(rng):
    kh = int(rng.integers(2, 4))
    kw = int(rng.integers(2, 4))
    spec = ConvLayerSpec(
        n_filters=int(rng.integers(3, 13)), kernel_h=kh, kernel_w=kw,
        channels=int(rng.integers(4, 25)),
        input_h=int(rng.integers(kh + 4, 13)),
        input_w=int(rng.integers(kw + 4, 13)),
    )
    return spec, float(rng.uniform(0.05, 0.85))


def _simulated_sample(spec, alpha, cfg, rng):
    total = spec.n_filters * spec.filterlets_per_filter
    kept = np.zeros(total, bool)
    kept[rng.choice(total, kept_count(total, alpha), replace=False)] = True
    w = Tensor.from_array(rng.integers(-100, 100, spec.weight_dims).astype(np.int8))
    layer = encode_fwcs(w, FilterletMask(spec, kept.reshape(spec.n_filters, -1)))
    return layer_cycles(layer, spec, ComputeSchedule.REORDERED, cfg)


def test_criterion_4_regression_fidelity():
    """10 simulator samples fit the latency model; held-out MSE and exactness."""
    rng = np.random.default_rng(1004)
    cfg = MachineConfig(lanes=8)
    train = []
    for _ in range(10):
        spec, alpha = _regression_config(rng)
        train.append((spec, alpha, _simulated_sample(spec, alpha, cfg, rng)))
    params, _ = fit_latency_params(train, lanes=8)
    held = []
    for _ in range(20):
        spec, alpha = _regression_config(rng)
        held.append((spec, alpha, _simulated_sample(spec, alpha, cfg, rng)))
    pred = [layer_latency(spec, alpha, params) for spec, alpha, _ in held]
    mse = normalized_mse([c for _, _, c in held], pred)
    assert mse <= 0.05

    true = LatencyParams(1.25, 0.75, 2.5, 1.5, lanes=8)
    synth = []
    for _ in range(10):
        spec, alpha = _regression_config(rng)
        synth.append((spec, alpha, layer_latency(spec, alpha, true)))
    rec, _ = fit_latency_params(synth, lanes=8)
    err = max(abs(rec.t_mem - true.t_mem), abs(rec.t_idx - true.t_idx),
              abs(rec.t_com - true.t_com), abs(rec.t_post - true.t_post))
    assert err <= 1e-9
    print(f"\nACCEPTANCE 4 regression fidelity (held-out MSE {mse:.2e} <= 0.05, "
          f"noiseless error {err:.1e} <= 1e-9): PASS")


def test_criterion_5_scheduler_near_optimal_at_desk_scale():
    """SA lands within 5% of the exhaustive 0.1-grid optimum in >= 95/100 seeds."""
    started = time.monotonic()
    rng = np.random.default_rng(1005)
    s1 = ConvLayerSpec(n_filters=6, kernel_h=3, kernel_w=3, channels=4,
                       input_h=10, input_w=10)
    s2 = ConvLayerSpec(n_filters=8, kernel_h=3, kernel_w=3, channels=6,
                       input_h=8, input_w=8)
    specs = [s1, s2]
    imp = ImportanceMap(specs, [rng.random((6, 9)), rng.random((8, 9))])
    total_dl = sum(float(s.sum()) for s in imp.scores)
    budget = Budget(mem_flash=int(model_size(specs, [0, 0]) * 0.6),
                    mem_ram=10 ** 9, dl_max=total_dl * 0.35)
    problem = ScheduleProblem(specs, imp, budget,
                              LatencyParams(1.0, 1.0, 2.0, 2.0, lanes=4))

    grid = [i / 10 for i in range(11)]
    best_time = None
    for alphas in itertools.product(grid, grid):
        ev = evaluate(list(alphas), problem)
        if ev.feasible and (best_time is None or ev.time < best_time):
            best_time = ev.time
    assert best_time is not None

    hits = 0
    for seed in range(100):
        result = anneal(problem, seed=seed, iters=400, step=0.1)
        assert result.feasible
        ev = evaluate(list(result.s), problem)  # independent re-evaluation
        assert ev.feasible
        assert ev.time == result.predicted_time
        if result.predicted_time <= 1.05 * best_time:
            hits += 1
    elapsed = time.monotonic() - started
    assert hits >= 95
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 5 scheduler near-optimality ({hits}/100 seeds, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_6_lane_scaling_strictly_improves_wide_layers():
    """Layers with >= 16 channels get strictly faster as lanes go 4 -> 8 -> 16."""
    rng = np.random.default_rng(1006)
    checked = 0
    for _ in range(15):
        spec, layer = _rand_fwcs_layer(rng, min_c=16, max_c=32, density=0.6)
        if layer.n_retained == 0:
            continue
        for schedule in ComputeSchedule:
            c4 = layer_cycles(layer, spec, schedule, MachineConfig(lanes=4))
            c8 = layer_cycles(layer, spec, schedule, MachineConfig(lanes=8))
            c16 = layer_cycles(layer, spec, schedule, MachineConfig(lanes=16))
            assert c4 > c8 > c16
        checked += 1
    assert checked >= 10
    print(f"\nACCEPTANCE 6 lane scaling strict on {checked} wide layers: PASS")


def test_criterion_7_reordered_schedule_dominates():
    """Pinned-weight order is never slower and strictly faster with reuse."""
    rng = np.random.default_rng(1007)
    strict = 0
    for _ in range(100):
        spec, layer = _rand_fwcs_layer(rng)
        d = layer_cycles(layer, spec, ComputeSchedule.DEFAULT,
                         MachineConfig(lanes=4))
        r = layer_cycles(layer, spec, ComputeSchedule.REORDERED,
                         MachineConfig(lanes=4))
        assert r <= d
        if layer.n_retained > 0 and spec.out_positions >= 2:
            assert r < d
            strict += 1
    assert strict >= 50
    print(f"\nACCEPTANCE 7 schedule dominance (strict on {strict}/100): PASS")


def test_criterion_8_taylor_score_first_order_fidelity():
    """Per-filterlet score error is bounded by 0.1 * squared filterlet norm."""
    rng = np.random.default_rng(1008)
    spec = ConvLayerSpec(n_filters=2, kernel_h=2, kernel_w=2, channels=2,
                         input_h=4, input_w=4)
    w = rng.uniform(-0.5, 0.5, spec.weight_dims).astype(np.float32)
    model = SequentialModel("tiny", [LayerDef("c0", spec, Tensor.from_array(w))])
    sample = [Tensor.from_array(
        rng.uniform(-0.5, 0.5, spec.input_dims).astype(np.float32))]

    def quad_loss(outputs):
        return 0.05 * sum(float((o ** 2).sum()) for o in outputs)

    # validate the gradient oracle itself against an analytic case first
    probe_spec = ConvLayerSpec(n_filters=3, kernel_h=1, kernel_w=1, channels=1,
                               input_h=1, input_w=1)
    pw = rng.normal(size=probe_spec.weight_dims).astype(np.float32)
    probe = SequentialModel("p", [LayerDef("c0", probe_spec,
                                           Tensor.from_array(pw))])
    ones = [Tensor.from_array(np.ones((1, 1, 1), np.float32))]
    g_probe = finite_diff_gradient(
        probe, lambda outs: float((outs[0] ** 2).sum()), ones, epsilon=1e-3)
    assert np.max(np.abs(g_probe.layers[0] - 2 * pw.astype(np.float64))) <= 1e-6

    grads = finite_diff_gradient(model, quad_loss, sample, epsilon=1e-4)
    scores = taylor_score(w, grads.layers[0], spec)
    base = model_loss(model, quad_loss, sample)
    worst = 0.0
    for n in range(spec.n_filters):
        for p in range(spec.filterlets_per_filter):
            kept = np.ones((spec.n_filters, spec.filterlets_per_filter), bool)
            kept[n, p] = False
            zeroed = apply_mask_zeroing(model.layers[0].weights,
                                        FilterletMask(spec, kept))
            exact = abs(base - model_loss(model.with_weights([zeroed.to_array()]),
                                          quad_loss, sample))
            h, ww = divmod(p, spec.kernel_w)
            bound = 0.1 * float((w[n, h, ww, :] ** 2).sum())
            err = abs(scores[n, p] - exact)
            worst = max(worst, err - bound)
            assert err <= bound + 1e-12
    print("\nACCEPTANCE 8 first-order score fidelity: PASS")


def _smoke_model(seed=2024):
    rng = np.random.default_rng(seed)
    layers = []
    ih = iw = 12
    channels = 3
    scale = 0.05
    for i, n in enumerate((4, 6, 5)):
        spec = ConvLayerSpec(n_filters=n, kernel_h=2, kernel_w=2,
                             channels=channels, input_h=ih, input_w=iw)
        w = Tensor.from_array(
            rng.integers(-100, 100, spec.weight_dims).astype(np.int8))
        quant = LayerQuant(input_scale=scale, weight_scale=0.02,
                           output_scale=scale * 6)
        layers.append(LayerDef(f"conv{i}", spec, w, None, quant))
        ih, iw, channels, scale = spec.out_h, spec.out_w, n, scale * 6
    return SequentialModel("smoke", layers)


def _grads_bundle(model, seed):
    rng = np.random.default_rng(seed)
    layers = [LayerDef(l.name, l.spec, Tensor.from_array(
        (np.abs(rng.normal(size=l.spec.weight_dims)) + 0.1).astype(np.float32)))
        for l in model.layers]
    return bundle_from_model(SequentialModel(model.name, layers), role="grads")


def test_criterion_9_end_to_end_smoke(tmp_path, capsys):
    """prune -> run via the CLI: unpruned plan is bit-exact, sizes reconcile."""
    model = _smoke_model()
    model_path = tmp_path / "model.fltb"
    bundle_from_model(model).save(model_path)
    grads_path = tmp_path / "grads.fltb"
    _grads_bundle(model, 77).save(grads_path)
    rng = np.random.default_rng(88)
    x = Tensor.from_array(rng.integers(-100, 100, (12, 12, 3)).astype(np.int8))
    input_path = tmp_path / "x.dttn"
    input_path.write_bytes(write_tensor(x))

    # a zero loss budget with strictly positive scores forbids pruning
    out_a = tmp_path / "unpruned.fltb"
    code = main(["prune", str(model_path), str(grads_path), str(out_a),
                 "--flash", str(10 ** 9), "--ram", str(10 ** 9),
                 "--dlmax", "0", "--seed", "0", "--iters", "300"])
    capsys.readouterr()
    assert code == 0
    ref = run_bundle(ModelBundle.load(model_path), x)
    for schedule in ComputeSchedule:
        got = run_bundle(ModelBundle.load(out_a), x, schedule)
        assert np.array_equal(got.output.data, ref.output.data)

    # 50% flash budget: packed payload reconciles with the size model
    dense_bytes = model_size(model.specs, [0.0] * 3)
    out_b = tmp_path / "half.fltb"
    code = main(["prune", str(model_path), str(grads_path), str(out_b),
                 "--flash", str(dense_bytes // 2), "--ram", str(10 ** 9),
                 "--dlmax", "1e9", "--seed", "0", "--iters", "600",
                 "--report", str(tmp_path / "rep.json")])
    capsys.readouterr()
    assert code == 0
    import json
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["feasible"]
    assert rep["predicted"]["size_bytes"] <= dense_bytes // 2
    measured = ModelBundle.load(out_b).payload_bytes()
    assert abs(measured - rep["predicted"]["size_bytes"]) <= 64 * len(model.layers)
    # the pruned bundle still runs end to end
    code = main(["run", str(out_b), str(input_path)])
    capsys.readouterr()
    assert code == 0
    print("\nACCEPTANCE 9 end-to-end smoke (bit-exact unpruned, size reconciled): PASS")
