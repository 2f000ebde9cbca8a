import numpy as np
import pytest

from filterlet.errors import DataError
from filterlet.fwcs import FilterletMask, decode_fwcs, encode_fwcs
from filterlet.importance import GradientBundle, ImportanceMap, \
    apply_mask_zeroing, build_mask, delta_loss, finite_diff_gradient, \
    model_loss, score_model, taylor_score
from filterlet.model import LayerDef, SequentialModel, forward_float64
from filterlet.tensor import ConvLayerSpec, Tensor


def tiny_model(rng, scale=0.5):
    spec = ConvLayerSpec(n_filters=2, kernel_h=2, kernel_w=2, channels=2,
                         input_h=4, input_w=4)
    w = (rng.uniform(-scale, scale, spec.weight_dims)).astype(np.float32)
    return SequentialModel("tiny", [LayerDef("c0", spec, Tensor.from_array(w))])


def sq_loss(outputs):
    return 0.05 * sum(float((o ** 2).sum()) for o in outputs)


class TestTaylorScore:
    def test_exact_cancellation(self):
        spec = ConvLayerSpec(n_filters=1, kernel_h=1, kernel_w=1, channels=2,
                             input_h=1, input_w=1)
        w = np.array([1.0, 2.0], np.float32).reshape(1, 1, 1, 2)
        g = np.array([0.5, -0.25]).reshape(1, 1, 1, 2)
        assert taylor_score(w, g, spec)[0, 0] == 0.0

    def test_zero_filterlet_is_free(self):
        spec = ConvLayerSpec(n_filters=1, kernel_h=2, kernel_w=1, channels=3,
                             input_h=2, input_w=1)
        w = np.zeros(spec.weight_dims, np.float32)
        g = np.random.default_rng(0).normal(size=spec.weight_dims)
        assert np.all(taylor_score(w, g, spec) == 0.0)

    def test_channel_permutation_invariance(self):
        spec = ConvLayerSpec(n_filters=2, kernel_h=2, kernel_w=2, channels=5,
                             input_h=2, input_w=2)
        rng = np.random.default_rng(1)
        w = rng.normal(size=spec.weight_dims)
        g = rng.normal(size=spec.weight_dims)
        perm = rng.permutation(5)
        a = taylor_score(w, g, spec)
        b = taylor_score(w[..., perm], g[..., perm], spec)
        assert np.allclose(a, b)

    def test_first_order_accuracy_vs_exact_zeroing(self):
        # quadratic loss: |score - exact delta| is second order in the weights
        rng = np.random.default_rng(2)
        model = tiny_model(rng)
        sample = [Tensor.from_array(
            rng.uniform(-0.5, 0.5, (4, 4, 2)).astype(np.float32))]
        grads = finite_diff_gradient(model, sq_loss, sample, epsilon=1e-4)
        layer = model.layers[0]
        scores = taylor_score(layer.weights, grads.layers[0], layer.spec)
        base = model_loss(model, sq_loss, sample)
        w = layer.weights.to_array()
        for n in range(layer.spec.n_filters):
            for p in range(layer.spec.filterlets_per_filter):
                kept = np.ones((2, 4), bool)
                kept[n, p] = False
                zeroed = apply_mask_zeroing(layer.weights,
                                            FilterletMask(layer.spec, kept))
                m2 = SequentialModel(model.name,
                                     [LayerDef(layer.name, layer.spec, zeroed)])
                exact = abs(base - model_loss(m2, sq_loss, sample))
                h, w_ = divmod(p, layer.spec.kernel_w)
                wnorm2 = float((w[n, h, w_, :] ** 2).sum())
                assert abs(scores[n, p] - exact) <= 0.1 * wnorm2 + 1e-9


class TestFiniteDiff:
    def test_analytic_quadratic(self):
        # L = sum w^2 over outputs of a 1x1 identity-input conv equals sum of
        # (w * x)^2; use x = 1 so dL/dw = 2w exactly up to O(eps^2)
        spec = ConvLayerSpec(n_filters=3, kernel_h=1, kernel_w=1, channels=1,
                             input_h=1, input_w=1)
        rng = np.random.default_rng(3)
        w = rng.normal(size=spec.weight_dims).astype(np.float32)
        model = SequentialModel("m", [LayerDef("c0", spec, Tensor.from_array(w))])
        x = Tensor.from_array(np.ones((1, 1, 1), np.float32))

        def loss(outputs):
            return float((outputs[0] ** 2).sum())

        g = finite_diff_gradient(model, loss, [x], epsilon=1e-3)
        assert np.allclose(g.layers[0],
                           2 * w.astype(np.float64), atol=1e-6)
        assert g.provenance == "finite-difference oracle"

    def test_linear_loss_exact_for_any_epsilon(self):
        spec = ConvLayerSpec(n_filters=1, kernel_h=1, kernel_w=1, channels=2,
                             input_h=1, input_w=1)
        w = np.array([0.3, -0.7], np.float32).reshape(spec.weight_dims)
        model = SequentialModel("m", [LayerDef("c0", spec, Tensor.from_array(w))])
        x = Tensor.from_array(np.array([2.0, 5.0], np.float32).reshape(1, 1, 2))

        def loss(outputs):
            return float(outputs[0].sum())

        for eps in (1e-1, 1e-3, 1e-5):
            g = finite_diff_gradient(model, loss, [x], epsilon=eps)
            assert np.allclose(g.layers[0].reshape(-1), [2.0, 5.0], atol=1e-9)

    def test_central_matches_one_sided(self):
        rng = np.random.default_rng(4)
        model = tiny_model(rng)
        sample = [Tensor.from_array(
            rng.uniform(-0.5, 0.5, (4, 4, 2)).astype(np.float32))]
        central = finite_diff_gradient(model, sq_loss, sample, epsilon=1e-3)

        # independent one-sided oracle over float64 copies of the weights
        arrays = [layer.weights.to_array().astype(np.float64)
                  for layer in model.layers]
        eps = 1e-6

        def loss_at():
            outs = [forward_float64(model.specs, arrays, [None], x.to_array())
                    for x in sample]
            return sq_loss(outs)

        base = loss_at()
        flat = arrays[0].reshape(-1)
        one_sided = np.zeros_like(flat, dtype=np.float64)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + eps
            one_sided[k] = (loss_at() - base) / eps
            flat[k] = orig
        ref = central.layers[0].reshape(-1)
        rel = np.abs(one_sided - ref) / np.maximum(np.abs(ref), 1e-3)
        assert rel.max() < 1e-4

    def test_bad_epsilon(self):
        rng = np.random.default_rng(5)
        model = tiny_model(rng)
        with pytest.raises(DataError):
            finite_diff_gradient(model, sq_loss, [], epsilon=0.0)


def importance_of(scores_list):
    specs = []
    mats = []
    for scores in scores_list:
        scores = np.asarray(scores, dtype=np.float64)
        n, hw = scores.shape
        specs.append(ConvLayerSpec(n_filters=n, kernel_h=1, kernel_w=hw,
                                   channels=2, input_h=1, input_w=hw))
        mats.append(scores)
    return ImportanceMap(specs, mats)


class TestBuildMask:
    def test_alpha_endpoints(self):
        imp = importance_of([np.arange(8, dtype=float).reshape(2, 4)])
        assert build_mask(imp, [0.0])[0].kept.all()
        assert not build_mask(imp, [1.0])[0].kept.any()

    def test_prunes_lowest_scores(self):
        imp = importance_of([np.array([[3.0, 1.0, 2.0, 0.0]])])
        mask = build_mask(imp, [0.5])[0]
        assert list(mask.kept[0]) == [True, False, True, False]

    def test_deterministic_tie_break(self):
        imp = importance_of([np.zeros((2, 3))])
        mask = build_mask(imp, [0.5])[0]
        # kept count = round(0.5*6) = 3; earlier (filter, position) pruned first
        assert list(mask.kept.reshape(-1)) == [False, False, False, True, True, True]

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(6)
        imp = importance_of([rng.random((3, 5))])
        prev = build_mask(imp, [0.0])[0].kept
        for a in np.linspace(0, 1, 21):
            cur = build_mask(imp, [a])[0].kept
            # raising alpha never un-prunes
            assert np.all(cur <= prev)
            prev = cur


class TestDeltaLoss:
    def test_nothing_pruned(self):
        imp = importance_of([np.random.default_rng(7).random((2, 4))])
        assert delta_loss(imp, build_mask(imp, [0.0])) == 0.0

    def test_single_filterlet(self):
        scores = np.array([[5.0, 1.0, 2.0, 3.0]])
        imp = importance_of([scores])
        masks = build_mask(imp, [0.25])
        assert delta_loss(imp, masks) == 1.0

    def test_matches_brute_force_sum(self):
        rng = np.random.default_rng(8)
        imp = importance_of([rng.random((3, 4)), rng.random((2, 6))])
        masks = build_mask(imp, [0.4, 0.7])
        total = 0.0
        for scores, mask in zip(imp.scores, masks):
            for n in range(scores.shape[0]):
                for p in range(scores.shape[1]):
                    if not mask.kept[n, p]:
                        total += scores[n, p]
        assert delta_loss(imp, masks) == pytest.approx(total, rel=1e-12)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(9)
        imp = importance_of([rng.random((4, 4))])
        losses = [delta_loss(imp, build_mask(imp, [a]))
                  for a in np.linspace(0, 1, 11)]
        assert all(b >= a for a, b in zip(losses, losses[1:]))


class TestApplyMaskZeroing:
    def test_identity_and_zero(self):
        spec = ConvLayerSpec(n_filters=2, kernel_h=2, kernel_w=2, channels=3,
                             input_h=2, input_w=2)
        rng = np.random.default_rng(10)
        w = Tensor.from_array(rng.normal(size=spec.weight_dims).astype(np.float32))
        same = apply_mask_zeroing(w, FilterletMask.all_kept(spec))
        assert np.array_equal(same.data, w.data)
        gone = apply_mask_zeroing(w, FilterletMask.none_kept(spec))
        assert not gone.data.any()

    def test_agrees_with_encode_decode(self):
        spec = ConvLayerSpec(n_filters=3, kernel_h=3, kernel_w=2, channels=4,
                             input_h=3, input_w=2)
        rng = np.random.default_rng(11)
        w = Tensor.from_array(rng.normal(size=spec.weight_dims).astype(np.float32))
        mask = FilterletMask(spec, rng.random((3, 6)) < 0.5)
        direct = apply_mask_zeroing(w, mask)
        via_codec = decode_fwcs(encode_fwcs(w, mask), spec)
        assert np.array_equal(direct.data, via_codec.data)


class TestScoreModel:
    def test_shapes_and_nonnegativity(self):
        rng = np.random.default_rng(12)
        model = tiny_model(rng)
        grads = GradientBundle([rng.normal(size=model.layers[0].spec.weight_dims)])
        imp = score_model(model, grads)
        assert imp.n_layers == 1
        assert imp.scores[0].shape == (2, 4)
        assert np.all(imp.scores[0] >= 0)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(13)
        model = tiny_model(rng)
        grads = GradientBundle([rng.normal(size=(1, 2, 2, 2))])
        with pytest.raises(DataError):
            score_model(model, grads)
