"""ASCII visualisation primitives."""

import numpy as np
import pytest

from repro.viz import bar_chart, histogram, progress_bar, sparkline


class TestSparkline:
    def test_shape_and_levels(self):
        s = sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert len(s) == 8
        assert s[0] == "▁" and s[-1] == "█"

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_nan_renders_blank(self):
        s = sparkline([1.0, float("nan"), 3.0])
        assert s[1] == " "

    def test_pinned_scale(self):
        s = sparkline([0.5], lo=0.0, hi=1.0)
        assert s in "▃▄▅"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sparkline([])

    def test_gap_glyph_marks_holes(self):
        s = sparkline([1.0, float("nan"), 3.0], gap="·")
        assert s[1] == "·" and len(s) == 3

    def test_all_nan_is_all_gaps(self):
        assert sparkline([float("nan")] * 4, gap="·") == "····"


class TestProgressBar:
    def test_empty_and_full(self):
        assert progress_bar(0.0, width=10) == "[··········]"
        assert progress_bar(1.0, width=10) == "[" + "█" * 10 + "]"

    def test_partial_and_clamped(self):
        assert progress_bar(0.5, width=10).count("█") == 5
        assert progress_bar(2.5, width=8) == "[" + "█" * 8 + "]"
        assert progress_bar(-1.0, width=8) == "[" + "·" * 8 + "]"

    def test_nan_renders_unknown(self):
        assert progress_bar(float("nan"), width=6) == "[" + "·" * 6 + "]"


class TestHistogram:
    def test_counts_sum(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=500)
        text = histogram(data, bins=5)
        counts = [int(line.rsplit(" ", 1)[1]) for line in text.splitlines()]
        assert sum(counts) == 500

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            histogram([float("nan")])


class TestBarChart:
    def test_bars_scale(self):
        text = bar_chart(["x", "yy"], [1.0, 2.0], width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 5
        assert lines[1].count("#") == 10

    def test_label_mismatch(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])
