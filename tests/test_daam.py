import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jdtok.daam import (
    DEFAULT_GATE_STRENGTH,
    MAX_COMPONENTS,
    DaamParams,
    apply_gate,
    daam_gate,
    daam_gate_grad,
    daam_gate_vjp,
    gattn_modulate,
)
from jdtok.errors import ValidationError

SQRT_2PI = np.sqrt(2.0 * np.pi)


def default_scale():
    # softplus(log 0.5) + eps = log(1.5) + 1e-3
    return np.log(1.5) + 1e-3


def finite_difference_grads(x, params, h=1e-4):
    """Central-difference oracle for the gate derivatives (float64)."""
    x = np.asarray(x, dtype=np.float64)
    k, t = params.num_components, x.size
    d_off = np.empty((k, t))
    d_log = np.empty((k, t))
    d_in = np.empty((t, t))
    for i in range(k):
        up, dn = params.mean_offsets.copy(), params.mean_offsets.copy()
        up[i] += h
        dn[i] -= h
        gp = daam_gate(x, DaamParams(up, params.log_scales, params.gate_strength))
        gm = daam_gate(x, DaamParams(dn, params.log_scales, params.gate_strength))
        d_off[i] = (gp - gm) / (2 * h)
        up, dn = params.log_scales.copy(), params.log_scales.copy()
        up[i] += h
        dn[i] -= h
        gp = daam_gate(x, DaamParams(params.mean_offsets, up, params.gate_strength))
        gm = daam_gate(x, DaamParams(params.mean_offsets, dn, params.gate_strength))
        d_log[i] = (gp - gm) / (2 * h)
    for s in range(t):
        xp, xm = x.copy(), x.copy()
        xp[s] += h
        xm[s] -= h
        d_in[:, s] = (daam_gate(xp, params) - daam_gate(xm, params)) / (2 * h)
    return d_off, d_log, d_in


def temporal_stats(x, var_floor=1e-6):
    """Mean and floored population variance of a 1-D signal (test oracle).

    Variance uses 1/T normalization (not 1/(T-1)) and is clamped from below
    by ``var_floor`` so constant signals still standardize.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("empty input")
    mean = float(x.mean())
    var = float(np.mean((x - mean) ** 2))
    return mean, max(var, var_floor)


def gate_from_stats(x, params):
    """The mixture density at each timestep, standardized by ``temporal_stats``."""
    mean, var = temporal_stats(x)
    st = params.scales()
    denom = np.sqrt(var) * st + 1e-3
    z = (x[None, :] - (mean + params.mean_offsets)[:, None]) / denom[:, None]
    return np.mean(np.exp(-0.5 * z * z) / (SQRT_2PI * st[:, None]), axis=0)


def oracle_factors(x, params):
    """The forward pass and parameter Jacobians, as the library computes them.

    Returns ``(gate, w, z, st, denom, d_offsets, d_log_scales, d_sigma)``,
    bit-identical to the library's own intermediates.
    """
    x = np.asarray(x, dtype=np.float64)
    delta, nu, t = params.mean_offsets, params.log_scales, x.size
    mu, var = temporal_stats(x)
    sigma = np.sqrt(var)
    st = np.logaddexp(0.0, nu) + 1e-3
    denom = sigma * st + 1e-3
    z = (x[None, :] - (mu + delta)[:, None]) / denom[:, None]
    log_p = -0.5 * z * z - np.log(st)[:, None] - 0.5 * np.log(2.0 * np.pi)
    m = log_p.max(axis=0)
    sum_exp = np.exp(log_p - m[None, :]).sum(axis=0)
    gate = np.exp(m + np.log(sum_exp / params.num_components))
    w = np.exp(log_p - (m + np.log(sum_exp))[None, :])
    d_offsets = gate[None, :] * w * z / denom[:, None]
    ev = np.exp(nu)
    sig_nu = np.where(nu >= 0, 1.0 / (1.0 + np.exp(-nu)), ev / (1.0 + ev))
    d_log_scales = (
        gate[None, :] * w * (z * z * sigma / denom[:, None] - 1.0 / st[:, None])
        * sig_nu[:, None]
    )
    # the floored variance exceeds the floor only while the clamp is inactive
    if var > 1e-6:
        d_sigma = (x - mu) / (t * sigma)
    else:
        d_sigma = np.zeros(t)
    return gate, w, z, st, denom, d_offsets, d_log_scales, d_sigma


def dense_gate_grad(x, params):
    """The dense construction of the gate derivatives, as a test oracle.

    Builds dG_t / dx_s from a [K, T, T] tensor through np.eye(T) and an
    einsum: exact, but O(K T^2) in time and memory.
    """
    gate, w, z, st, denom, d_offsets, d_log_scales, d_sigma = oracle_factors(x, params)
    t = z.shape[1]
    dz = (np.eye(t)[None, :, :] - 1.0 / t) / denom[:, None, None] - z[:, :, None] * (
        st / denom
    )[:, None, None] * d_sigma[None, None, :]
    d_input = gate[:, None] * np.einsum("kt,kts->ts", w, -z[:, :, None] * dz)
    return d_offsets, d_log_scales, d_input


def outer_gate_grad(x, params):
    """The closed-form input Jacobian as an outer product and a second pass.

    The rank-2 GEMM in the library must reproduce it bit for bit.
    """
    _, _, z, st, _, d_offsets, d_log_scales, d_sigma = oracle_factors(x, params)
    t = z.shape[1]
    a = -d_offsets.sum(axis=0)
    b = (d_offsets * z * st[:, None]).sum(axis=0)
    d_input = np.outer(b, d_sigma)
    d_input -= (a / t)[:, None]
    d_input.flat[:: t + 1] += a
    return d_offsets, d_log_scales, d_input


def max_rel_err(analytic, oracle, atol=1e-8, rtol=1e-4):
    # err < rtol is the mixed bound |a - o| <= max(rtol * |o|, atol): the
    # absolute floor keeps fp noise in near-zero oracle entries harmless
    return float(
        np.max(np.abs(analytic - oracle) / np.maximum(np.abs(oracle), atol / rtol))
    )


class TestTemporalStats:
    """The gate standardizes by the population mean and floored variance."""

    @staticmethod
    def assert_gate_uses_stats(x):
        for params in (DaamParams.init(1), DaamParams([-0.5, 0.0, 0.4], np.full(3, np.log(0.5)))):
            np.testing.assert_allclose(daam_gate(x, params), gate_from_stats(x, params), rtol=1e-12)

    def test_constant_hits_variance_floor(self):
        assert temporal_stats(np.ones(4)) == (1.0, 1e-6)
        self.assert_gate_uses_stats(np.ones(4))

    def test_two_point(self):
        assert temporal_stats(np.array([0.0, 2.0])) == (1.0, 1.0)
        self.assert_gate_uses_stats(np.array([0.0, 2.0]))

    def test_arithmetic(self):
        # (9 + 1 + 1 + 9) / 4 = 5 with population normalization
        mean, var = temporal_stats(np.array([-3.0, -1.0, 1.0, 3.0]))
        assert mean == 0.0
        assert var == 5.0
        self.assert_gate_uses_stats(np.array([-3.0, -1.0, 1.0, 3.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            temporal_stats(np.array([]))
        with pytest.raises(ValueError, match="empty input"):
            daam_gate(np.array([]), DaamParams.init(1))


class TestDaamGate:
    def test_constant_input_default_init(self):
        gate = daam_gate(np.full(32, 7.5), DaamParams.init(4))
        expected = 1.0 / (SQRT_2PI * default_scale())
        np.testing.assert_allclose(gate, expected, rtol=1e-12)
        assert abs(expected - 0.9815) < 1e-4

    def test_single_component_pdf_at_mean(self):
        # softplus(log(e - 1)) = 1, so the scale is 1.001 and the gate at
        # x = mu approximates the standard normal density at zero.
        params = DaamParams(np.zeros(1), np.array([np.log(np.e - 1.0)]))
        gate = daam_gate(np.array([0.0, 1.0, 2.0]), params)
        phi0 = 1.0 / SQRT_2PI
        assert abs(gate[1] - phi0) / phi0 < 0.005
        np.testing.assert_allclose(gate[1], phi0 / 1.001, rtol=1e-9)

    def test_component_permutation_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(40)
        delta = np.array([-0.5, 0.0, 0.3, 1.2])
        nu = np.array([-1.0, -0.7, 0.1, 0.4])
        perm = [2, 0, 3, 1]
        a = daam_gate(x, DaamParams(delta, nu))
        b = daam_gate(x, DaamParams(delta[perm], nu[perm]))
        np.testing.assert_allclose(a, b, rtol=1e-14)

    def test_duplicated_components_reduce_to_single(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(25)
        single = daam_gate(x, DaamParams(np.array([0.2]), np.array([-0.4])))
        dup = daam_gate(x, DaamParams(np.full(4, 0.2), np.full(4, -0.4)))
        assert np.array_equal(single, dup)

    def test_shift_stability(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(64)
        a = daam_gate(x, DaamParams.init(4))
        b = daam_gate(x + 1e6, DaamParams.init(4))
        assert np.max(np.abs(a - b) / a) < 1e-3

    def test_extreme_inputs_stay_finite(self):
        # push standardized deviations to z^2 ~ 1e4
        x = np.zeros(16)
        x[0] = 1.0
        params = DaamParams(np.array([100.0 * 0.25]), np.array([-30.0]))
        gate = daam_gate(x, params)
        assert np.all(np.isfinite(gate))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.int64])
    def test_any_input_dtype_is_gated_in_float64(self, dtype):
        # one path: the input is cast once and the gate is float64
        x = (np.random.default_rng(3).standard_normal(50) * 8).astype(dtype)
        params = DaamParams.init(4)
        gate = daam_gate(x, params)
        assert gate.dtype == np.float64
        np.testing.assert_array_equal(gate, daam_gate(x.astype(np.float64), params))

    @pytest.mark.parametrize("bad", [np.array([]), np.array([1.0, np.nan]), np.array([np.inf])])
    def test_bad_inputs_rejected(self, bad):
        with pytest.raises(ValueError):
            daam_gate(bad, DaamParams.init(2))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "call",
        [
            lambda x, p: daam_gate(x, p),
            lambda x, p: daam_gate_grad(x, p),
            lambda x, p: daam_gate_vjp(x, p, np.ones(x.size)),
            lambda x, p: gattn_modulate(np.ones((3, x.size)), x, p),
        ],
        ids=["gate", "grad", "vjp", "gattn_modulate"],
    )
    def test_non_finite_input_is_a_validation_error(self, call, value):
        # the same rule as fsq and the STFT loss, with the same error type
        x = np.array([0.5, value, -0.25])
        with pytest.raises(ValidationError, match="input contains non-finite values"):
            call(x, DaamParams.init(2))

    @pytest.mark.parametrize("bad", [np.array([]), np.zeros((2, 3))])
    def test_empty_or_not_1d_stays_a_plain_value_error(self, bad):
        with pytest.raises(ValueError) as info:
            daam_gate(bad, DaamParams.init(2))
        assert type(info.value) is ValueError

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=40),
        k=st.integers(1, 5),
    )
    def test_gate_positive_on_moderate_inputs(self, data, k):
        # with default-init parameters the standardized deviations stay small
        # enough that the density never underflows, so positivity is strict
        gate = daam_gate(np.array(data), DaamParams.init(k))
        assert gate.shape == (len(data),)
        assert np.all(gate > 0)
        assert np.all(np.isfinite(gate))


class TestDaamGateGrad:
    def test_matches_finite_differences(self):
        params = DaamParams.init(4)
        x = np.random.default_rng(42).standard_normal(16)
        analytic = daam_gate_grad(x, params)
        oracle = finite_difference_grads(x, params)
        for a, o in zip(analytic, oracle):
            assert max_rel_err(a, o) < 1e-4

    def test_many_random_instances(self):
        rng = np.random.default_rng(7)
        for i in range(25):
            k = int(rng.choice([1, 2, 4]))
            t = int(rng.integers(4, 33))
            params = DaamParams(rng.uniform(-1, 1, k), rng.uniform(-2, 1, k))
            x = rng.standard_normal(t) * rng.uniform(0.5, 3.0)
            analytic = daam_gate_grad(x, params)
            oracle = finite_difference_grads(x, params)
            for a, o in zip(analytic, oracle):
                assert max_rel_err(a, o) < 1e-4, f"instance {i}"

    def test_identical_components_share_gradient_rows(self):
        x = np.random.default_rng(5).standard_normal(12)
        params = DaamParams(np.array([0.3, 0.3]), np.array([-0.5, -0.5]))
        d_off, d_log, _ = daam_gate_grad(x, params)
        np.testing.assert_array_equal(d_off[0], d_off[1])
        np.testing.assert_array_equal(d_log[0], d_log[1])

    def test_constant_input_gradient_uniform_over_time(self):
        params = DaamParams.init(3)
        x = np.full(9, 2.0)
        d_off, _, _ = daam_gate_grad(x, params)
        oracle = finite_difference_grads(x, params)[0]
        for k in range(3):
            assert np.ptp(d_off[k]) == 0.0
        assert max_rel_err(d_off, oracle) < 1e-4

    @pytest.mark.parametrize("t", [1, 2, 17, 300])
    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_matches_dense_jacobian(self, t, k):
        rng = np.random.default_rng(100 * t + k)
        params = DaamParams(rng.uniform(-1, 1, k), rng.uniform(-2, 1, k))
        # a constant signal engages the variance floor
        for x in (rng.standard_normal(t) * 2.0, np.full(t, 0.7)):
            d_off, d_log, d_in = daam_gate_grad(x, params)
            o_off, o_log, o_in = dense_gate_grad(x, params)
            assert d_in.shape == (t, t)
            assert np.max(np.abs(d_in - o_in)) <= 1e-12 * np.max(np.abs(o_in))
            np.testing.assert_array_equal(d_off, o_off)
            np.testing.assert_array_equal(d_log, o_log)

    @pytest.mark.parametrize("t", [1, 2, 3, 5, 17, 64, 255, 256, 300, 512, 1000, 1024])
    def test_equals_outer_product_formula(self, t):
        for k in (1, 2, 4, 7):
            rng = np.random.default_rng(100 * t + k)
            params = DaamParams(rng.uniform(-1, 1, k), rng.uniform(-2, 1, k))
            # a constant signal engages the variance floor
            for x in (rng.standard_normal(t) * 2.0, np.full(t, 0.7)):
                for got, want in zip(daam_gate_grad(x, params), outer_gate_grad(x, params)):
                    np.testing.assert_array_equal(got, want)

    def test_peak_memory_stays_near_one_dense_block(self):
        # the [T, T] result is the only dense array: a second one fails this
        t = 1024
        x = np.random.default_rng(11).standard_normal(t)
        params = DaamParams.init(4)
        tracemalloc.start()
        try:
            daam_gate_grad(x, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * t * t * 8


class TestDaamGateVjp:
    @pytest.mark.parametrize("t", [1, 2, 3, 17, 64, 300])
    @pytest.mark.parametrize("k", [1, 4, 7])
    def test_matches_contracted_jacobian(self, t, k):
        rng = np.random.default_rng(100 * t + k)
        params = DaamParams(rng.uniform(-1, 1, k), rng.uniform(-2, 1, k))
        for x in (rng.standard_normal(t) * 2.0, np.full(t, 0.7)):
            g = rng.standard_normal(t)
            gate, g_off, g_log, g_in = daam_gate_vjp(x, params, g)
            d_off, d_log, d_in = daam_gate_grad(x, params)
            np.testing.assert_array_equal(gate, daam_gate(x, params))
            for got, want in ((g_off, d_off @ g), (g_log, d_log @ g), (g_in, g @ d_in)):
                assert got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_peak_memory_is_linear_in_length(self):
        # the dense Jacobian of this signal would take 34 GB
        t, k = 65536, 4
        rng = np.random.default_rng(12)
        x, g = rng.standard_normal(t), rng.standard_normal(t)
        params = DaamParams.init(k)
        tracemalloc.start()
        try:
            daam_gate_vjp(x, params, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * k * t * 8

    @pytest.mark.parametrize("g", [np.zeros(4), np.zeros((1, 5)), np.zeros(())])
    def test_cotangent_shape_must_match(self, g):
        with pytest.raises(ValueError, match="cotangent shape"):
            daam_gate_vjp(np.arange(5.0), DaamParams.init(2), g)


class TestModulation:
    def test_zero_strength_is_identity(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 20))
        params = DaamParams(np.zeros(2), np.full(2, np.log(0.5)), gate_strength=0.0)
        y = gattn_modulate(x, x[0], params)
        np.testing.assert_array_equal(y, x)

    def test_unit_gate_scales_by_one_plus_alpha(self):
        x = np.random.default_rng(9).standard_normal((3, 7))
        y = apply_gate(x, np.ones(7), gate_strength=0.05)
        np.testing.assert_allclose(y, 1.05 * x, rtol=1e-15)

    def test_varying_gate_is_the_residual_form(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 5))
        gate = np.linspace(0.5, 1.5, 5)
        np.testing.assert_array_equal(apply_gate(x, gate, 0.3), x * (1.0 + 0.3 * gate))

    def test_constant_projection_composition(self):
        x = np.full((1, 10), 3.0)
        y = gattn_modulate(x, x[0], DaamParams.init(4))
        factor = 1.0 + 0.05 / (SQRT_2PI * default_scale())
        np.testing.assert_allclose(y, factor * x, rtol=1e-12)
        assert abs(factor - 1.049075) < 1e-5

    def test_time_axis_mismatch_rejected(self):
        with pytest.raises(ValueError):
            gattn_modulate(np.zeros((2, 6)), np.zeros(5), DaamParams.init(2))


class TestParams:
    def test_init_defaults(self):
        p = DaamParams.init()
        assert p.num_components == 4
        np.testing.assert_array_equal(p.mean_offsets, np.zeros(4))
        np.testing.assert_allclose(p.log_scales, np.log(0.5))
        np.testing.assert_allclose(p.scales(), default_scale())

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mean_offsets=np.zeros(2), log_scales=np.zeros(3)),
            dict(mean_offsets=np.zeros(0), log_scales=np.zeros(0)),
            dict(mean_offsets=np.array([np.nan]), log_scales=np.zeros(1)),
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ValueError):
            DaamParams(**kwargs)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["gate_strength"])
    def test_non_finite_scalar_rejected(self, name, value):
        with pytest.raises(ValueError) as info:
            DaamParams(np.zeros(2), np.zeros(2), **{name: value})
        assert str(info.value) == f"{name} must be finite, got {value}"

    def test_init_component_bound(self):
        assert DaamParams.init(MAX_COMPONENTS).num_components == MAX_COMPONENTS
        for k in (0, MAX_COMPONENTS + 1, 10**9):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="k must be"):
                    DaamParams.init(k)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 16

    @pytest.mark.parametrize("k", [2.0, 2.5, "2", None])
    def test_init_k_must_be_an_integer(self, k):
        # a float fails here, not later inside np.zeros
        with pytest.raises(ValueError) as info:
            DaamParams.init(k)
        assert str(info.value) == f"k must be an integer, got {k}"

    def test_init_accepts_numpy_integers(self):
        assert DaamParams.init(np.int64(3)) == DaamParams.init(3)

    def test_init_takes_only_k(self):
        standard = DaamParams(np.zeros(4), np.full(4, np.log(0.5)), DEFAULT_GATE_STRENGTH)
        assert DaamParams.init() == standard
        with pytest.raises(TypeError):
            DaamParams.init(2, mean_offsets=[0.1, -0.1])

    def test_keeps_a_copy_of_its_arrays(self):
        offsets, log_scales = np.zeros(3), np.full(3, 0.5)
        p = DaamParams(offsets, log_scales)
        offsets[0] = 3.0
        log_scales[:] = -1.0
        np.testing.assert_array_equal(p.mean_offsets, np.zeros(3))
        np.testing.assert_array_equal(p.log_scales, np.full(3, 0.5))

    def test_arrays_are_read_only(self):
        p = DaamParams.init(4)
        for values in (p.mean_offsets, p.log_scales):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            p.mean_offsets += 1.0
        assert DaamParams.init(4) == p

    def test_equal_and_hashed_by_value(self):
        p = DaamParams([0.1, -0.1], [0.0, 0.5])
        twin = DaamParams(np.array([0.1, -0.1]), [0.0, 0.5], 0.05)
        assert p == twin
        assert hash(p) == hash(twin)
        assert len({p, twin}) == 1
        for other in (
            DaamParams([0.1, -0.2], [0.0, 0.5]),
            DaamParams([0.1, -0.1], [0.0, 0.4]),
            DaamParams([0.1, -0.1], [0.0, 0.5], 0.1),
            DaamParams.init(3),
        ):
            assert other != p
        assert p != (p.mean_offsets, p.log_scales)
