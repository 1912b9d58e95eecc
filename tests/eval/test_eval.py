"""Tests for evaluation metrics and reporting."""

import numpy as np
import pytest

from repro.eval import (
    area_above_curve,
    mean_and_stderr,
    median,
    render_accuracy_table,
    render_table,
    summarise_curve,
    top_k_accuracy,
)
from repro.schema import AttributeRef


def ref(text):
    return AttributeRef.parse(text)


class TestTopKAccuracy:
    def test_basic(self):
        truth = {ref("S.a"): ref("T.x"), ref("S.b"): ref("T.y")}
        suggestions = {
            ref("S.a"): [ref("T.x"), ref("T.z")],
            ref("S.b"): [ref("T.z"), ref("T.w")],
        }
        assert top_k_accuracy(suggestions, truth, k=2) == pytest.approx(0.5)
        assert top_k_accuracy(suggestions, truth, k=1) == pytest.approx(0.5)

    def test_k_truncates(self):
        truth = {ref("S.a"): ref("T.x")}
        suggestions = {ref("S.a"): [ref("T.z"), ref("T.x")]}
        assert top_k_accuracy(suggestions, truth, k=1) == 0.0
        assert top_k_accuracy(suggestions, truth, k=2) == 1.0

    def test_restricted_sources(self):
        truth = {ref("S.a"): ref("T.x"), ref("S.b"): ref("T.y")}
        suggestions = {ref("S.a"): [ref("T.x")], ref("S.b"): [ref("T.y")]}
        assert top_k_accuracy(suggestions, truth, k=1, sources=[ref("S.a")]) == 1.0

    def test_empty(self):
        assert top_k_accuracy({}, {}, k=3) == 0.0


class TestStatistics:
    def test_mean_and_stderr(self):
        mean, stderr = mean_and_stderr([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        assert stderr == pytest.approx(1.0 / np.sqrt(3))

    def test_singleton(self):
        assert mean_and_stderr([5.0]) == (5.0, 0.0)
        assert mean_and_stderr([]) == (0.0, 0.0)

    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([]) == 0.0


class TestAreaAboveCurve:
    def test_perfect_curve_has_zero_area(self):
        assert area_above_curve([0, 50, 100], [100, 100, 100]) == pytest.approx(0.0)

    def test_manual_labeling_area(self):
        xs = list(np.linspace(0, 100, 101))
        area = area_above_curve(xs, xs)
        assert area == pytest.approx(50.0, rel=1e-2)

    def test_better_curve_has_smaller_area(self):
        xs = [0.0, 50.0, 100.0]
        good = area_above_curve(xs, [80.0, 95.0, 100.0])
        bad = area_above_curve(xs, [10.0, 40.0, 100.0])
        assert good < bad


class TestReporting:
    def test_render_table(self):
        text = render_table(["a", "b"], [[1, 2], [30, 40]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "30" in text and "40" in text

    def test_render_accuracy_table(self):
        table = {"ds1": {"coma": 0.5, "cupid": 0.25}}
        text = render_accuracy_table(table, title="Table III")
        assert "0.50" in text and "0.25" in text
        assert "coma" in text

    def test_summarise_curve(self):
        text = summarise_curve("lsm", [0.0, 5.0, 20.0], [40.0, 70.0, 100.0])
        assert "lsm" in text
        assert "final=100%" in text


class TestTrapezoidCompat:
    """NumPy<2.0 has only ``trapz``; >=2.0 has ``trapezoid`` (and may drop
    ``trapz``).  ``_resolve_trapezoid`` must work on both."""

    def test_resolves_on_installed_numpy(self):
        from repro.eval.metrics import _resolve_trapezoid

        fn = _resolve_trapezoid()
        assert float(fn([0.0, 1.0], [0.0, 1.0])) == pytest.approx(0.5)

    def test_prefers_trapezoid_over_trapz(self):
        from types import SimpleNamespace

        from repro.eval.metrics import _resolve_trapezoid

        new = lambda y, x: "new"
        old = lambda y, x: "old"
        assert _resolve_trapezoid(SimpleNamespace(trapezoid=new, trapz=old)) is new

    def test_falls_back_to_trapz(self):
        from types import SimpleNamespace

        from repro.eval.metrics import _resolve_trapezoid

        old = lambda y, x: "old"
        assert _resolve_trapezoid(SimpleNamespace(trapz=old)) is old

    def test_raises_when_neither_exists(self):
        from types import SimpleNamespace

        from repro.eval.metrics import _resolve_trapezoid

        with pytest.raises(AttributeError, match="neither trapezoid nor trapz"):
            _resolve_trapezoid(SimpleNamespace())

    def test_area_above_curve_value(self):
        # Straight line from (0, 0) to (100, 100): area above is exactly 50.
        assert area_above_curve([0.0, 100.0], [0.0, 100.0]) == pytest.approx(50.0)
