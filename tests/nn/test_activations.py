"""Tests for activations and their backward passes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.nn import (
    gelu,
    gelu_backward,
    log_softmax,
    relu,
    relu_backward,
    sigmoid,
    softmax,
    softmax_backward,
    tanh,
    tanh_backward,
)

_small_arrays = arrays(
    np.float64,
    st.tuples(st.integers(1, 4), st.integers(1, 6)),
    elements=st.floats(-5, 5, allow_nan=False),
)


def _check_backward(function, backward, x, eps=1e-5):
    out, cache = function(x)
    grad = backward(np.ones_like(out), cache)
    for index in np.ndindex(*x.shape):
        original = x[index]
        x[index] = original + eps
        plus = function(x)[0].sum()
        x[index] = original - eps
        minus = function(x)[0].sum()
        x[index] = original
        numeric = (plus - minus) / (2 * eps)
        assert grad[index] == pytest.approx(numeric, rel=1e-3, abs=1e-5)


class TestElementwise:
    def test_gelu_known_values(self):
        out, _ = gelu(np.array([0.0]))
        assert out[0] == pytest.approx(0.0)
        out, _ = gelu(np.array([10.0]))
        assert out[0] == pytest.approx(10.0, rel=1e-3)

    def test_gelu_gradient(self, rng):
        _check_backward(gelu, gelu_backward, rng.standard_normal((3, 4)))

    def test_relu_gradient(self, rng):
        x = rng.standard_normal((3, 4))
        x[np.abs(x) < 0.1] = 0.5  # avoid the kink
        _check_backward(relu, relu_backward, x)

    def test_tanh_gradient(self, rng):
        _check_backward(tanh, tanh_backward, rng.standard_normal((3, 4)))

    def test_sigmoid_stability(self):
        assert sigmoid(np.array([1000.0]))[0] == pytest.approx(1.0)
        assert sigmoid(np.array([-1000.0]))[0] == pytest.approx(0.0)
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)


class TestGeluFloat32:
    """float32 ``gelu``/``gelu_backward`` against a float64 closed form."""

    @staticmethod
    def inputs() -> np.ndarray:
        rng = np.random.default_rng(0)
        return np.concatenate(
            [np.linspace(-12.0, 12.0, 20001), 3.0 * rng.standard_normal(20000)]
        ).astype(np.float32)

    @staticmethod
    def reference(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = x.astype(np.float64)
        c = np.sqrt(2.0 / np.pi)
        t = np.tanh(c * (x + 0.044715 * x**3))
        value = 0.5 * x * (1.0 + t)
        derivative = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (
            1.0 + 3 * 0.044715 * x * x
        )
        return value, derivative

    def test_forward_matches_closed_form(self):
        x = self.inputs()
        before = x.copy()
        out, cache = gelu(x)
        assert out.dtype == np.float32
        assert cache is x
        np.testing.assert_array_equal(x, before)  # input left untouched
        assert np.abs(out - self.reference(x)[0]).max() <= 1e-6

    def test_backward_matches_closed_form(self):
        x = self.inputs()
        grad_output = np.linspace(-2.0, 2.0, x.size).astype(np.float32)
        before = x.copy()
        grad = gelu_backward(grad_output, x)
        assert grad.dtype == np.float32
        np.testing.assert_array_equal(x, before)
        expected = grad_output.astype(np.float64) * self.reference(x)[1]
        assert np.abs(grad - expected).max() <= 1e-6


class TestSoftmax:
    @settings(max_examples=30, deadline=None)
    @given(_small_arrays)
    def test_property_rows_sum_to_one(self, x):
        out = softmax(x, axis=-1)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)
        assert (out >= 0).all()

    def test_shift_invariance(self, rng):
        x = rng.standard_normal((2, 5))
        assert np.allclose(softmax(x), softmax(x + 100.0), atol=1e-6)

    def test_log_softmax_consistency(self, rng):
        x = rng.standard_normal((2, 5))
        assert np.allclose(np.exp(log_softmax(x)), softmax(x), atol=1e-6)

    def test_softmax_backward_gradient(self, rng):
        x = rng.standard_normal((2, 4))
        out = softmax(x)
        weights = rng.standard_normal((2, 4))
        grad = softmax_backward(weights, out)
        eps = 1e-6
        for index in np.ndindex(*x.shape):
            original = x[index]
            x[index] = original + eps
            plus = (softmax(x) * weights).sum()
            x[index] = original - eps
            minus = (softmax(x) * weights).sum()
            x[index] = original
            numeric = (plus - minus) / (2 * eps)
            assert grad[index] == pytest.approx(numeric, rel=1e-3, abs=1e-6)
