"""Activation functions with paired backward passes.

Each function comes as ``f(x)`` plus ``f_backward(grad_output, cache)`` where
``cache`` is whatever ``f`` returned alongside its output.  Stateless by
design -- MiniBERT calls them inline inside its blocks.
"""

from __future__ import annotations

import numpy as np

_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi).astype(np.float32)


def _gelu_inner(x: np.ndarray) -> np.ndarray:
    """``sqrt(2/pi) * (x + 0.044715 x^3)``, built in one fresh buffer.

    The cube is two multiplies, never ``x**3``: numpy routes a float32
    ``**3`` through libm ``pow``, about 80x slower than ``x*x*x`` on
    activation-sized tensors, and GELU runs on every FFN activation of every
    forward and backward pass.  Python-float scalars keep the input dtype.
    """
    inner = x * x
    inner *= x
    inner *= 0.044715
    inner += x
    inner *= _SQRT_2_OVER_PI
    return inner


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU with the tanh approximation used by BERT.

    Returns ``(output, x)``; the input is the backward cache.
    """
    output = _gelu_inner(x)
    np.tanh(output, out=output)
    output += 1.0
    output *= x
    output *= 0.5
    return output, x


def gelu_backward(grad_output: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Derivative of the tanh-approximated GELU.

    ``0.5 (1 + t) + 0.5 x (1 - t^2) sqrt(2/pi) (1 + 3 * 0.044715 x^2)`` with
    ``t = tanh(inner)``.  Both ``t`` and ``1 - t^2`` come from one
    ``e = exp(-2|inner|)``: ``|t| = (1 - e) / (1 + e)`` and
    ``1 - t^2 = 4e / (1 + e)^2``.  Subtracting a rounded ``t^2`` from 1 would
    lose every significant digit once ``|t|`` rounds to within an ulp of 1,
    an error the ``0.5 x`` factor then amplifies past 1e-6.
    """
    inner = _gelu_inner(x)
    e = np.abs(inner)
    e *= -2.0
    np.exp(e, out=e)
    denominator = e + 1.0
    sech2 = e * 4.0
    sech2 /= denominator
    sech2 /= denominator
    tanh_inner = np.subtract(1.0, e, out=e)
    tanh_inner /= denominator
    np.copysign(tanh_inner, inner, out=tanh_inner)
    d_inner = np.multiply(x, x, out=inner)
    d_inner *= 3 * 0.044715
    d_inner += 1.0
    d_inner *= _SQRT_2_OVER_PI
    d_inner *= sech2
    d_inner *= x
    tanh_inner += 1.0
    d_inner += tanh_inner
    d_inner *= 0.5
    d_inner *= grad_output
    return d_inner


def relu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ReLU; cache is the boolean positive mask."""
    mask = x > 0
    return x * mask, mask


def relu_backward(grad_output: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return grad_output * mask


def tanh(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """tanh; cache is the output itself."""
    output = np.tanh(x)
    return output, output


def tanh_backward(grad_output: np.ndarray, output: np.ndarray) -> np.ndarray:
    return grad_output * (1.0 - output**2)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function (no cache needed: y' = y(1-y))."""
    out = np.empty_like(x, dtype=np.float64)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out.astype(x.dtype) if hasattr(x, "dtype") else out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def softmax_backward(grad_output: np.ndarray, output: np.ndarray, axis: int = -1) -> np.ndarray:
    """Backward through softmax given its output: y * (g - sum(g*y))."""
    inner = (grad_output * output).sum(axis=axis, keepdims=True)
    return output * (grad_output - inner)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
