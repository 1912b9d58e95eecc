"""Evaluation metrics: top-k accuracy and labeling-cost summaries.

Methodology follows Section III/V: every matcher produces a score per
candidate pair; for each ground-truth source attribute we check whether the
correct target appears among the top-k candidates and report the fraction
(top-k accuracy).  Interactive experiments are summarised by the
labeling-cost curve captured in :class:`~repro.core.session.SessionResult`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..core.matcher import Predictions
from ..schema.model import AttributeRef


def _resolve_trapezoid(module=np):
    """The module's trapezoidal-rule integrator, wherever it lives.

    NumPy 2.0 renamed ``np.trapz`` to ``np.trapezoid`` (and later removed
    the old name); ``pyproject.toml`` allows ``numpy>=1.23``, where only
    ``trapz`` exists.  Resolve whichever the installed NumPy provides.
    """
    for name in ("trapezoid", "trapz"):
        fn = getattr(module, name, None)
        if fn is not None:
            return fn
    raise AttributeError(
        f"{getattr(module, '__name__', module)!r} has neither trapezoid nor trapz"
    )


_trapezoid = _resolve_trapezoid()


def top_k_accuracy(
    suggestions: Mapping[AttributeRef, Sequence[AttributeRef]],
    truth: Mapping[AttributeRef, AttributeRef],
    k: int,
    sources: Sequence[AttributeRef] | None = None,
) -> float:
    """Top-k accuracy of ranked suggestion lists against ground truth.

    ``sources`` restricts evaluation (e.g. to a held-out test split); it
    defaults to every ground-truth source present in ``suggestions``.
    """
    considered = [
        ref
        for ref in (sources if sources is not None else truth)
        if ref in truth and ref in suggestions
    ]
    if not considered:
        return 0.0
    hits = 0
    for source in considered:
        top = list(suggestions[source])[:k]
        if truth[source] in top:
            hits += 1
    return hits / len(considered)


def predictions_top_k_accuracy(
    predictions: Predictions,
    truth: Mapping[AttributeRef, AttributeRef],
    k: int,
    sources: Sequence[AttributeRef] | None = None,
) -> float:
    """Top-k accuracy straight from a matcher's :class:`Predictions`."""
    ranked = {
        source: [target for target, _ in suggestion_list]
        for source, suggestion_list in predictions.suggestions.items()
    }
    return top_k_accuracy(ranked, truth, k, sources)


def mean_and_stderr(values: Sequence[float]) -> tuple[float, float]:
    """Sample mean and standard error (0 stderr for singleton samples)."""
    array = np.asarray(list(values), dtype=np.float64)
    if array.size == 0:
        return 0.0, 0.0
    mean = float(array.mean())
    if array.size == 1:
        return mean, 0.0
    return mean, float(array.std(ddof=1) / np.sqrt(array.size))


def median(values: Sequence[float]) -> float:
    array = np.asarray(list(values), dtype=np.float64)
    return float(np.median(array)) if array.size else 0.0


def area_above_curve(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Area between a labeling-cost curve and the 100 % line.

    The paper reads "the area above the curve denotes the total number of
    attributes that need to be reviewed by the user"; smaller is better.
    Both axes are percentages; the result is in percent^2 / 100 (i.e.
    average unreviewed percentage over the x range).
    """
    if len(xs) < 2:
        return 0.0
    xs_array = np.asarray(xs, dtype=np.float64)
    ys_array = np.asarray(ys, dtype=np.float64)
    gaps = 100.0 - ys_array
    return float(_trapezoid(gaps, xs_array) / 100.0)
