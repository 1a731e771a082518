"""Density-adaptive attention gating over temporal statistics.

The gate scores every timestep of a 1-channel signal by the density of a
K-component Gaussian mixture evaluated on the signal's own standardized
deviations.  Timesteps near the bulk of the signal's distribution get gate
values near the mixture's peak density; statistical outliers get small ones.
The gate then modulates a full feature tensor in the residual form
``y = x * (1 + alpha * gate)``.

Pipeline per signal x of length T:

  1. mean/variance over time (population normalization, variance floored)
  2. positive per-component scales  s_k = softplus(nu_k) + eps
  3. standardized deviations        z_kt = (x_t - (mu + delta_k)) / (sigma * s_k + eps)
  4. per-component log-density      log p_k = -z^2/2 - log s_k - log(2*pi)/2
  5. mixture via logsumexp          log G_t = logsumexp_k(log p_k) - log K
  6. gate                           G_t = exp(log G_t)

The scale epsilon eps = 1e-3 (``_EPS``) and the variance floor 1e-6
(``_VAR_FLOOR``) are constants, and every step runs in float64.
``daam_gate_grad`` returns exact analytic derivatives of the gate with
respect to the mean offsets, the log-scales, and the input (chain rule
through the temporal statistics), so the gate can be trained or verified
without an autodiff framework.  Both gradients come from one forward pass and three length-T
factors a, b and dsigma:

  - ``daam_gate_grad`` builds the dense [T, T] input Jacobian
    ``diag(a) + [b, -a/T] @ [dsigma; 1]`` with one rank-2 GEMM;
  - ``daam_gate_vjp`` contracts every Jacobian with a cotangent g in
    O(K T) time and memory, never forming a [T, T] array.

Statistics are computed per signal: batched callers should invoke these
functions once per row, never pooling moments across rows.  Multi-channel
gating is out of scope; the gate consumes the caller's 1-channel projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, as_integer

__all__ = [
    "DaamParams",
    "daam_gate",
    "daam_gate_grad",
    "daam_gate_vjp",
    "apply_gate",
    "gattn_modulate",
]

_LOG_2PI = float(np.log(2.0 * np.pi))
_EPS = 1e-3
_VAR_FLOOR = 1e-6
DEFAULT_GATE_STRENGTH = 0.05

# Largest k that DaamParams.init builds: 64 times the default, and one [K, T]
# float64 array of an hour-long stream (T = 9000 frames at 2.5 Hz) stays at 18 MB.
MAX_COMPONENTS = 256


def _softplus(v: np.ndarray) -> np.ndarray:
    # log(1 + e^v) without overflow for large |v|
    return np.logaddexp(np.zeros_like(v), v)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


@dataclass(frozen=True)
class DaamParams:
    """Learnable state of one gate: K mean offsets, K log-scales, strength.

    ``init()`` gives the standard initialization: offsets at zero and
    log-scales at log(0.5), so every component starts as the same moderately
    narrow Gaussian; ``gate_strength`` (alpha) defaults to
    ``DEFAULT_GATE_STRENGTH`` = 0.05 so the residual modulation starts close
    to identity.  The two arrays are read-only float64 copies, and params
    compare and hash by value.
    """

    mean_offsets: np.ndarray
    log_scales: np.ndarray
    gate_strength: float = DEFAULT_GATE_STRENGTH

    def __post_init__(self) -> None:
        for name in ("mean_offsets", "log_scales"):
            # a read-only copy: neither the caller's array nor a shared
            # default can change the params after construction
            values = np.atleast_1d(np.array(getattr(self, name), dtype=np.float64))
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if self.mean_offsets.ndim != 1 or self.log_scales.ndim != 1:
            raise ValueError("mean_offsets and log_scales must be 1-D")
        if self.mean_offsets.size != self.log_scales.size:
            raise ValueError(
                f"component count mismatch: {self.mean_offsets.size} offsets vs "
                f"{self.log_scales.size} log-scales"
            )
        if self.mean_offsets.size < 1:
            raise ValueError("need at least one mixture component")
        if not (np.all(np.isfinite(self.mean_offsets)) and np.all(np.isfinite(self.log_scales))):
            raise ValueError("parameters must be finite")
        if not math.isfinite(self.gate_strength):  # nan would break value equality
            raise ValueError(f"gate_strength must be finite, got {self.gate_strength}")

    def _value(self) -> tuple:
        return (tuple(self.mean_offsets), tuple(self.log_scales), self.gate_strength)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DaamParams):
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self) -> int:  # sound: every value is finite
        return hash(self._value())

    @property
    def num_components(self) -> int:
        return self.mean_offsets.size

    def scales(self) -> np.ndarray:
        """Positive per-component scales softplus(log_scales) + eps."""
        return _softplus(self.log_scales) + _EPS

    @classmethod
    def init(
        cls,
        k: int = 4,
        gate_strength: float = DEFAULT_GATE_STRENGTH,
        mean_offsets=None,
        log_scales=None,
    ) -> "DaamParams":
        """Default initialization with ``k`` components, an integer in [1, MAX_COMPONENTS].

        ``mean_offsets`` and ``log_scales``, when given, replace the default
        values and must hold ``k`` entries each.  Both checks come before any
        array is allocated, so a hostile ``k`` costs nothing.
        """
        k = as_integer("k", k)
        if not 1 <= k <= MAX_COMPONENTS:
            raise ValueError(f"k must be in [1, {MAX_COMPONENTS}], got {k}")
        for name, given in (("mean_offsets", mean_offsets), ("log_scales", log_scales)):
            if given is not None and len(given) != k:
                raise ValueError(f"{name} has {len(given)} entries but k = {k}")
        return cls(
            mean_offsets=np.zeros(k) if mean_offsets is None else mean_offsets,
            log_scales=np.full(k, np.log(0.5)) if log_scales is None else log_scales,
            gate_strength=gate_strength,
        )


def _check_signal(x: np.ndarray) -> None:
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D temporal signal, got shape {x.shape}")
    if x.size == 0:
        raise ValueError("empty input")
    if not np.all(np.isfinite(x)):
        raise ValidationError("input contains non-finite values")


def _gate_forward(x: np.ndarray, params: DaamParams):
    """The float64 gate, with the intermediates its gradient reuses."""
    x = np.asarray(x, dtype=np.float64)
    _check_signal(x)
    st = params.scales()

    mu = x.mean()
    dev = x - mu
    var_raw = np.mean(dev**2)
    sigma = np.sqrt(np.maximum(var_raw, _VAR_FLOOR))

    denom = sigma * st + _EPS
    z = (x[None, :] - (mu + params.mean_offsets)[:, None]) / denom[:, None]
    log_p = -0.5 * z * z - np.log(st)[:, None] - 0.5 * _LOG_2PI
    m = log_p.max(axis=0)
    sum_exp = np.exp(log_p - m[None, :]).sum(axis=0)
    gate = np.exp(m + np.log(sum_exp / params.num_components))
    return gate, log_p, m + np.log(sum_exp), z, denom, st, sigma, dev, var_raw


def daam_gate(x: np.ndarray, params: DaamParams) -> np.ndarray:
    """Evaluate the mixture-density gate on a 1-D signal, in float64.

    Returns an array of length T with the gate value at each timestep.  The
    logsumexp runs with max subtraction and folds the 1/K mixture weight
    inside the log, so a mixture of K identical components reproduces the
    K=1 gate bit-for-bit.
    """
    return _gate_forward(x, params)[0]


def _gate_factors(x: np.ndarray, params: DaamParams):
    """One float64 forward pass and the factors of every gate derivative.

    Returns ``(gate, d_offsets, d_log_scales, a, b, d_sigma)``: the parameter
    Jacobians in full ([K, T] each) and the three length-T factors of the
    input Jacobian ``diag(a) - (a / T) 1^T + b d_sigma^T``.
    """
    gate, log_p, log_norm, z, denom, st, sigma, dev, var_raw = _gate_forward(x, params)
    t = dev.size
    # responsibilities: softmax over components at each timestep
    w = np.exp(log_p - log_norm[None, :])

    d_offsets = gate[None, :] * w * z / denom[:, None]

    sig_nu = _sigmoid(params.log_scales)
    d_log_scales = (
        gate[None, :]
        * w
        * (z * z * sigma / denom[:, None] - 1.0 / st[:, None])
        * sig_nu[:, None]
    )

    # d sigma / d x_s is zero while the variance clamp is active
    d_sigma = dev / (t * sigma) * (var_raw > _VAR_FLOOR)
    # d_offsets[k, t] = G_t w_kt z_kt / denom_k, so a and b are sums over it
    a = -d_offsets.sum(axis=0)
    b = (d_offsets * z * st[:, None]).sum(axis=0)
    return gate, d_offsets, d_log_scales, a, b, d_sigma


def daam_gate_grad(
    x: np.ndarray, params: DaamParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic derivatives of the gate, in float64.

    Returns:
        ``(d_offsets, d_log_scales, d_input)`` where
        ``d_offsets[k, t] = dG_t / d delta_k``,
        ``d_log_scales[k, t] = dG_t / d nu_k`` and
        ``d_input[t, s] = dG_t / d x_s``.

    The input Jacobian is built in closed form, never as a [K, T, T] tensor:

        d_input = diag(a) - (a / T) 1^T + b dsigma^T
                = diag(a) + [b, -a / T] @ [dsigma; 1]      (one [T, 2] @ [2, T] GEMM)
        a_t = -G_t sum_k w_kt z_kt / denom_k       (through x_t and the mean)
        b_t = G_t sum_k w_kt z_kt^2 s_k / denom_k  (through sigma)

    where ``w`` are the component responsibilities and ``dsigma_s = (x_s -
    mu) / (T sigma)``, zero while the variance floor is engaged (the clamp is
    flat there).  The [T, T] result is the only array of that size.  Callers
    that contract the Jacobian with a cotangent want :func:`daam_gate_vjp`.
    """
    _, d_offsets, d_log_scales, a, b, d_sigma = _gate_factors(x, params)
    t = a.size
    # b dsigma^T comes first: the tests pin the result bit for bit against the
    # outer product minus a / T, and a swapped order rounds differently
    d_input = np.stack([b, -a / t], axis=1) @ np.stack([d_sigma, np.ones(t)])
    d_input.flat[:: t + 1] += a
    return d_offsets, d_log_scales, d_input


def daam_gate_vjp(
    x: np.ndarray, params: DaamParams, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The gate and its derivatives contracted with a cotangent ``g``, in float64.

    Returns ``(gate, g_offsets, g_log_scales, g_input)``, equal to ``gate``
    and ``g @ J`` for each Jacobian ``J`` of :func:`daam_gate_grad`.  The input
    term ``g_input = g a - (g^T a / T) 1 + (g^T b) dsigma`` comes from the same
    factors, so time and memory are O(K T): no [T, T] array is formed.
    """
    gate, d_offsets, d_log_scales, a, b, d_sigma = _gate_factors(x, params)
    g = np.asarray(g, dtype=np.float64)
    if g.shape != gate.shape:
        raise ValueError(f"cotangent shape {g.shape} does not match the signal's {gate.shape}")
    g_input = g * a - (g @ a) / a.size + (g @ b) * d_sigma
    return gate, d_offsets @ g, d_log_scales @ g, g_input


def apply_gate(
    features: np.ndarray,
    gate: np.ndarray,
    gate_strength: float = DEFAULT_GATE_STRENGTH,
) -> np.ndarray:
    """Modulate a feature tensor by a per-timestep gate: ``y = x * (1 + alpha * gate)``.

    The gate broadcasts over all leading (channel) axes; the trailing axis of
    ``features`` is time.
    """
    features = np.asarray(features)
    gate = np.asarray(gate)
    if gate.ndim != 1:
        raise ValueError(f"gate must be 1-D, got shape {gate.shape}")
    if features.shape[-1] != gate.shape[0]:
        raise ValueError(
            f"time axis mismatch: features have {features.shape[-1]} frames, "
            f"gate has {gate.shape[0]}"
        )
    return features * (1.0 + gate_strength * gate)


def gattn_modulate(features: np.ndarray, attn_proj: np.ndarray, params: DaamParams) -> np.ndarray:
    """Gate a [C, T] feature tensor from its 1-channel temporal projection.

    ``attn_proj`` is the caller's single-channel projection of ``features``
    over time (the projection weights live with the caller's network, not
    here).  Computes the float64 gate on the projection and applies it in
    the residual form ``y = x * (1 + params.gate_strength * gate)``.
    """
    return apply_gate(features, daam_gate(attn_proj, params), params.gate_strength)
