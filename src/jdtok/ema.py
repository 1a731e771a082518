"""Exponential-moving-average parameter tracking and a collapse monitor.

Parameter sets are plain ``{name: 1-D float array}`` dicts; the update is
functional (inputs untouched) so callers control when the swap happens.
``collapse_std`` watches predictor outputs for loss-free degeneration: if the
per-channel standard deviation (over batch and time) collapses toward zero,
the representation has stopped carrying information.  It reports, it never
feeds a loss.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ema_update", "collapse_std"]

COLLAPSE_THRESHOLD = 0.01

ParamSet = dict[str, np.ndarray]


def ema_update(target: ParamSet, online: ParamSet, tau: float) -> ParamSet:
    """Convex blend ``tau * target + (1 - tau) * online``, per parameter.

    tau is the momentum (tau=1 freezes the target, tau=0 copies the online
    set).  Raises on any structure mismatch, naming the offending parameter.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must be in [0, 1], got {tau}")
    missing = set(target) - set(online)
    extra = set(online) - set(target)
    if missing or extra:
        bad = sorted(missing | extra)[0]
        raise ValueError(f"parameter sets disagree on {bad!r}")
    out: ParamSet = {}
    for name, t in target.items():
        t = np.asarray(t, dtype=np.float64)
        o = np.asarray(online[name], dtype=np.float64)
        if t.shape != o.shape:
            raise ValueError(
                f"shape mismatch for {name!r}: {t.shape} vs {o.shape}"
            )
        out[name] = tau * t + (1.0 - tau) * o
    return out


def collapse_std(pred: np.ndarray) -> tuple[float, bool]:
    """Mean per-channel standard deviation of predictor outputs.

    ``pred`` is [batch, channels, time].  Each channel's standard deviation
    is taken over the flattened batch and time axes with population (1/N)
    normalization, then averaged over channels.  ``warn`` is True unless the
    mean reaches ``COLLAPSE_THRESHOLD`` (the threshold itself does not warn),
    so a NaN mean, from a NaN or infinite prediction, warns.
    """
    pred = np.asarray(pred, dtype=np.float64)
    if pred.ndim != 3:
        raise ValueError(f"expected [batch, channels, time], got shape {pred.shape}")
    b, _, t = pred.shape
    if b * t < 2:
        raise ValueError(f"need at least 2 samples per channel, got {b * t}")
    with np.errstate(invalid="ignore"):  # an infinite prediction: inf - inf in the std
        per_channel = pred.std(axis=(0, 2), ddof=0)
    mean_std = float(per_channel.mean())
    return mean_std, not mean_std >= COLLAPSE_THRESHOLD
