"""Analysis toolkit: statistics, fits, convergence utilities, drift, tables."""

import numpy as np
import pytest

from repro.analysis.drift import estimate_drift
from repro.analysis.scaling import classify_growth, fit_linear, fit_logarithmic, fit_power
from repro.analysis.stats import Summary, bootstrap_ci, summarize
from repro.analysis.tables import format_cell, render_table
from repro.core.potential import overload_potential
from repro.core.protocols import QoSSamplingProtocol
from repro.workloads.generators import uniform_slack


class TestStats:
    def test_summary_of_known_sample(self):
        s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.median == 3.0
        assert s.mean == 3.0
        assert s.minimum == 1.0 and s.maximum == 5.0
        assert s.ci_low <= s.median <= s.ci_high
        assert isinstance(s, Summary)

    def test_summary_drops_nan(self):
        s = summarize([1.0, np.nan, 3.0])
        assert s.n == 2

    def test_summary_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([np.nan])

    def test_bootstrap_ci_contains_truth_mostly(self):
        rng = np.random.default_rng(0)
        data = rng.normal(10.0, 1.0, size=200)
        lo, hi = bootstrap_ci(data, np.mean, seed=1)
        assert lo < 10.2 and hi > 9.8
        assert lo <= hi

    def test_bootstrap_single_value(self):
        assert bootstrap_ci([5.0]) == (5.0, 5.0)

    def test_bootstrap_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci([], np.mean)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], confidence=1.5)


class TestScalingFits:
    def test_recovers_logarithmic_law(self):
        ns = np.asarray([100, 200, 400, 800, 1600, 3200])
        ts = 2.5 * np.log(ns) + 1.0
        fit = fit_logarithmic(ns, ts)
        assert fit.params[0] == pytest.approx(2.5)
        assert fit.r_squared == pytest.approx(1.0)
        assert classify_growth(ns, ts)["verdict"] == "logarithmic"

    def test_recovers_power_law(self):
        ns = np.asarray([100, 200, 400, 800, 1600])
        ts = 0.5 * ns**0.8
        fit = fit_power(ns, ts)
        assert fit.params[1] == pytest.approx(0.8)
        assert classify_growth(ns, ts)["verdict"] in ("polynomial", "power")

    def test_recovers_linear_law(self):
        ns = np.asarray([10, 20, 40, 80, 160, 320])
        ts = 3.0 * ns + 7.0
        fit = fit_linear(ns, ts)
        assert fit.params[0] == pytest.approx(3.0)
        verdict = classify_growth(ns, ts)["verdict"]
        assert verdict in ("linear", "polynomial")  # n^1 power also fits

    def test_tiny_power_exponent_reads_as_log(self):
        ns = np.asarray([128, 256, 512, 1024, 2048])
        ts = 4.0 * ns**0.05
        assert classify_growth(ns, ts)["verdict"] == "logarithmic"

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_logarithmic([1, 2], [1, 2])
        with pytest.raises(ValueError):
            fit_power([1, 2, 3], [0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            fit_linear([-1, 2, 3], [1, 2, 3])


class TestDrift:
    def test_negative_drift_on_converging_dynamics(self):
        inst = uniform_slack(256, 16, slack=0.2)
        est = estimate_drift(
            inst,
            QoSSamplingProtocol(),
            overload_potential,
            potential_name="overload",
            n_runs=4,
            max_rounds=500,
            initial="pile",
            seed=1,
        )
        assert est.mean_drift < 0.0
        assert est.n_transitions > 0
        assert 0.0 <= est.negative_fraction <= 1.0
        assert est.by_level  # bucketed table populated


class TestTables:
    def test_format_cell(self):
        assert format_cell(None) == "-"
        assert format_cell(True) == "yes"
        assert format_cell(3.0) == "3"
        assert format_cell(3.14159) == "3.142"
        assert format_cell(float("nan")) == "nan"
        assert format_cell("abc") == "abc"

    def test_render_table(self):
        text = render_table(
            ["a", "bb"], [[1, 2.5], [10, None]], title="Demo"
        )
        lines = text.splitlines()
        assert lines[0] == "Demo"
        assert "a" in lines[2] and "bb" in lines[2]
        assert "2.5" in text and "-" in text

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])
