import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jdtok.ema import collapse_std, ema_update


class TestEmaUpdate:
    def test_tau_one_freezes_target(self):
        target = {"w": np.array([1.0, 2.0])}
        online = {"w": np.array([5.0, 5.0])}
        out = ema_update(target, online, 1.0)
        np.testing.assert_array_equal(out["w"], target["w"])

    def test_tau_zero_copies_online(self):
        target = {"w": np.array([1.0, 2.0])}
        online = {"w": np.array([5.0, 5.0])}
        out = ema_update(target, online, 0.0)
        np.testing.assert_array_equal(out["w"], online["w"])

    def test_single_step_arithmetic(self):
        out = ema_update({"x": np.array([0.0])}, {"x": np.array([1.0])}, 0.996)
        np.testing.assert_allclose(out["x"], 0.004, rtol=1e-12)

    def test_inputs_unmodified(self):
        target = {"w": np.array([1.0])}
        online = {"w": np.array([2.0])}
        ema_update(target, online, 0.5)
        assert target["w"][0] == 1.0
        assert online["w"][0] == 2.0

    def test_iterated_matches_closed_form(self):
        # n-step oracle from the geometric series: value_n = 1 - tau^n
        tau = 0.996
        state = {"x": np.array([0.0])}
        online = {"x": np.array([1.0])}
        checkpoints = {1, 10, 100, 1000}
        for n in range(1, 1001):
            state = ema_update(state, online, tau)
            if n in checkpoints:
                assert abs(state["x"][0] - (1 - tau**n)) < 1e-12

    def test_fixed_point(self):
        params = {"a": np.array([3.0, -1.0]), "b": np.array([0.5])}
        out = ema_update(params, {k: v.copy() for k, v in params.items()}, 0.9)
        for k in params:
            np.testing.assert_array_equal(out[k], params[k])

    def test_structure_mismatch_names_parameter(self):
        with pytest.raises(ValueError, match="extra"):
            ema_update({"w": np.zeros(2)}, {"w": np.zeros(2), "extra": np.zeros(1)}, 0.5)
        with pytest.raises(ValueError, match="'w'"):
            ema_update({"w": np.zeros(2)}, {"w": np.zeros(3)}, 0.5)

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            ema_update({"w": np.zeros(1)}, {"w": np.zeros(1)}, 1.5)

    @settings(max_examples=60, deadline=None)
    @given(
        tau=st.floats(0.0, 1.0),
        seed=st.integers(0, 1000),
        n=st.integers(1, 16),
    )
    def test_convex_combination(self, tau, seed, n):
        rng = np.random.default_rng(seed)
        target = {"w": rng.standard_normal(n)}
        online = {"w": rng.standard_normal(n)}
        out = ema_update(target, online, tau)["w"]
        lo = np.minimum(target["w"], online["w"])
        hi = np.maximum(target["w"], online["w"])
        assert np.all(out >= lo - 1e-12)
        assert np.all(out <= hi + 1e-12)


class TestCollapseStd:
    def test_constant_output_warns(self):
        mean_std, warn = collapse_std(np.full((2, 3, 10), 7.0))
        assert mean_std == 0.0
        assert warn is True

    def test_unit_variance_does_not_warn(self):
        pred = np.random.default_rng(3).standard_normal((10, 8, 1000))
        mean_std, warn = collapse_std(pred)
        assert 0.97 <= mean_std <= 1.03
        assert warn is False

    def test_threshold_comparison_is_strict(self):
        # a signal with mean std exactly at the threshold must not warn
        pred = np.zeros((1, 1, 2))
        pred[0, 0] = [0.0, 0.02]  # population std = 0.01
        mean_std, warn = collapse_std(pred)
        assert mean_std == 0.01
        assert warn is False

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_prediction_warns(self, bad):
        # a NaN mean compares False with the threshold either way; it must warn,
        # and numpy's RuntimeWarning on inf - inf (an error here) must not escape
        pred = np.array([[[2.0, 3.0, 4.0]]])
        pred[0, 0, 1] = bad
        mean_std, warn = collapse_std(pred)
        assert np.isnan(mean_std)
        assert warn is True

    def test_per_channel_offset_invariance(self):
        rng = np.random.default_rng(4)
        pred = rng.standard_normal((4, 6, 50))
        shifted = pred + rng.standard_normal((1, 6, 1)) * 100
        a, _ = collapse_std(pred)
        b, _ = collapse_std(shifted)
        np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            collapse_std(np.zeros((1, 4, 1)))

    def test_requires_three_axes(self):
        with pytest.raises(ValueError):
            collapse_std(np.zeros((4, 10)))
