"""Tests for datasets, model builders, training, and quantised inference."""

import numpy as np
import pytest

from repro.gemm.im2col import im2col_windows
from repro.nn.datasets import DIFFICULTIES, make_dataset
from repro.nn.inference import accuracy_sweep, evaluate
from repro.nn.models import alexnet_mini, mnist4, resnet_mini
from repro.nn.quant import (
    QuantMode,
    QuantSpec,
    gemm_usystolic,
    quantize_symmetric,
)
from repro.nn.training import softmax_cross_entropy, train
from repro.unary.bitstream import Coding
from repro.unary.vectorized import hub_mac_row
from .test_layers import num_parameters


class TestDatasets:
    @pytest.mark.parametrize("difficulty", DIFFICULTIES)
    def test_shapes_and_labels(self, difficulty):
        ds = make_dataset(difficulty, train=64, test=32)
        assert ds.x_train.shape[0] == 64
        assert ds.x_test.shape[0] == 32
        assert ds.y_train.max() < ds.num_classes
        assert ds.x_train.shape[1:] == ds.image_shape

    def test_deterministic(self):
        a = make_dataset("medium", train=16, test=8, seed=5)
        b = make_dataset("medium", train=16, test=8, seed=5)
        np.testing.assert_array_equal(a.x_train, b.x_train)
        np.testing.assert_array_equal(a.y_test, b.y_test)

    def test_seeds_differ(self):
        a = make_dataset("medium", train=16, test=8, seed=5)
        b = make_dataset("medium", train=16, test=8, seed=6)
        assert not np.array_equal(a.x_train, b.x_train)

    def test_difficulty_gradient(self):
        # Harder datasets have more classes or noisier images.
        easy = make_dataset("easy", train=16, test=8)
        hard = make_dataset("hard", train=16, test=8)
        assert hard.num_classes > easy.num_classes
        assert hard.image_shape[2] >= easy.image_shape[2]

    def test_invalid_difficulty(self):
        with pytest.raises(ValueError):
            make_dataset("impossible")


class TestModels:
    @pytest.mark.parametrize(
        "build", [mnist4, resnet_mini, alexnet_mini], ids=lambda b: b.__name__
    )
    def test_builders_produce_working_models(self, build):
        ds = make_dataset("easy", train=8, test=4)
        model = build(ds.image_shape, ds.num_classes)
        out = model.forward(ds.x_train[:2])
        assert out.shape == (2, ds.num_classes)

    def test_parameter_scale_ordering(self):
        # The stand-ins keep the small < medium-ish < large ordering in
        # spirit: mnist4 smallest head-to-head with alexnet_mini.
        shape = (12, 12, 3)
        small = num_parameters(mnist4(shape, 10))
        large = num_parameters(alexnet_mini(shape, 20))
        assert large > small

    def test_resnet_has_residuals(self):
        from repro.nn.layers import Residual

        model = resnet_mini((12, 12, 3), 10)
        assert any(isinstance(l, Residual) for l in model.layers)


class TestTraining:
    def test_softmax_ce_gradient(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((4, 3))
        labels = np.array([0, 1, 2, 1])
        loss, grad = softmax_cross_entropy(logits, labels)
        eps = 1e-6
        for i, j in [(0, 0), (1, 2), (3, 1)]:
            logits[i, j] += eps
            hi, _ = softmax_cross_entropy(logits, labels)
            logits[i, j] -= 2 * eps
            lo, _ = softmax_cross_entropy(logits, labels)
            logits[i, j] += eps
            assert grad[i, j] == pytest.approx((hi - lo) / (2 * eps), abs=1e-4)

    def test_loss_at_uniform(self):
        logits = np.zeros((2, 10))
        loss, _ = softmax_cross_entropy(logits, np.array([3, 7]))
        assert loss == pytest.approx(np.log(10), rel=1e-6)

    def test_training_learns_easy_task(self):
        ds = make_dataset("easy", train=200, test=64)
        model = mnist4(ds.image_shape, ds.num_classes)
        result = train(model, ds, epochs=5, seed=1)
        assert result.test_accuracy > 0.8
        assert result.losses[-1] < result.losses[0]


class TestInference:
    @pytest.fixture(scope="class")
    def trained(self):
        ds = make_dataset("easy", train=200, test=64)
        model = mnist4(ds.image_shape, ds.num_classes)
        train(model, ds, epochs=5, seed=1)
        return model, ds

    def test_fp32_evaluate_matches_training_eval(self, trained):
        model, ds = trained
        acc = evaluate(model, ds.x_test, ds.y_test, QuantSpec(QuantMode.FP32))
        assert acc > 0.8

    def test_usystolic_full_resolution_near_fp32(self, trained):
        # Figure 9a: "we barely see accuracy drop in uSystolic" on the
        # easy task.
        model, ds = trained
        fp = evaluate(model, ds.x_test, ds.y_test, QuantSpec(QuantMode.FP32))
        us = evaluate(
            model, ds.x_test, ds.y_test, QuantSpec(QuantMode.USYSTOLIC, 8)
        )
        assert us >= fp - 0.05

    def test_sweep_structure(self, trained):
        model, ds = trained
        sweep = accuracy_sweep(model, ds.x_test[:32], ds.y_test[:32], ebts=[6, 8])
        assert set(sweep) == {"fp32", "fxp-o-res", "usystolic", "fxp-i-res"}
        for row in sweep.values():
            assert set(row) == {6, 8}
            assert all(0.0 <= v <= 1.0 for v in row.values())

    def test_rate_temporal_same_accuracy(self, trained):
        # Section V-A: "the uSystolic accuracy for rate and temporal
        # codings with an identical EBT are almost the same" — in this
        # kernel they are *exactly* the same: both codings draw the same
        # Sobol values, so every product count matches.  Checked on a slice
        # of the trained first layer's lowering at 8-bit data and EBT 8:
        # the (rate-coded) Figure 9 GEMM equals the temporal-coded row
        # kernel summed over K, times the same scales, byte for byte.
        model, ds = trained
        conv = model.layers[0]
        cols = im2col_windows(ds.x_test[:1], conv.kernel, conv.kernel, conv.stride)
        x = cols.reshape(-1, conv.weight.shape[0])[:6]
        rate = gemm_usystolic(x, conv.weight, bits=8, ebt=8)
        assert rate.any()
        xi, sx = quantize_symmetric(x, 8)
        wi, sw = quantize_symmetric(conv.weight, 8)
        temporal = np.zeros_like(rate)
        for v in range(xi.shape[0]):
            for k in range(xi.shape[1]):
                temporal[v] += hub_mac_row(
                    int(xi[v, k]), wi[k], 8, ebt=8, coding=Coding.TEMPORAL
                )
        assert rate.tobytes() == (temporal * (sx * sw)).tobytes()
