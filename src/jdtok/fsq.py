"""Finite scalar quantization onto fixed per-dimension lattices.

Each dimension d carries L_d levels placed at (2i - L_d + 1) / L_d for
i in {0, ..., L_d - 1}: a uniform lattice inside (-1, 1), symmetric about
zero.  Raw features are squashed through tanh and snapped to the nearest
lattice point, so there is no codebook to learn and every code is a plain
integer per dimension.

``quantize_projected`` skips the tanh and operates on already-bounded values;
it is the entry point for re-quantizing dequantized lattice values, for which
it is exactly idempotent.  The snap brackets v between lattice points j and
j + 1, j = floor((v L + L - 1) / 2), and moves up only when j + 1 is strictly
closer, so ties at midpoints and float neighbours of midpoints whose two
distances round equal go to the lower index, exactly as an argmin would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "FsqLevels",
    "fsq_boundaries",
    "fsq_quantize",
    "quantize_projected",
    "fsq_dequantize",
    "straight_through",
]

_CHUNK = 512  # time-axis chunk: keeps the snap's temporaries cache-sized


@dataclass(frozen=True)
class FsqLevels:
    """Per-dimension level counts. Default: 128 dimensions of 4 levels."""

    levels: tuple[int, ...] = (4,) * 128

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(int(v) for v in self.levels))
        if len(self.levels) < 1:
            raise ValueError("need at least one dimension")
        if any(v < 1 for v in self.levels):
            raise ValueError(f"all levels must be >= 1, got {self.levels}")

    @property
    def dim(self) -> int:
        return len(self.levels)


def _as_levels(levels) -> FsqLevels:
    if isinstance(levels, FsqLevels):
        return levels
    return FsqLevels(tuple(levels))


def fsq_boundaries(level: int) -> np.ndarray:
    """The sorted lattice for one dimension with ``level`` levels."""
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    return _lattice(np.arange(level), level)


def _lattice(index, level):
    # shared by snap, dequantize and boundaries so they agree bit for bit
    return (2.0 * index - level + 1) / level


def _check_rows(array: np.ndarray, levels: FsqLevels, what: str) -> None:
    if array.ndim != 2:
        raise ValueError(f"expected a [D, T] {what}, got shape {array.shape}")
    if array.shape[0] != levels.dim:
        raise ValueError(
            f"dimension mismatch: array has {array.shape[0]} rows, "
            f"levels define {levels.dim} dimensions"
        )


def _finite_rows(values, levels: FsqLevels) -> np.ndarray:
    """``values`` as float64, checked once for its [D, T] shape and finiteness."""
    values = np.asarray(values, dtype=np.float64)
    _check_rows(values, levels, "array")
    if not np.all(np.isfinite(values)):
        raise ValueError("input contains non-finite values")
    return values


def _snap(values: np.ndarray, levels: FsqLevels) -> tuple[np.ndarray, np.ndarray]:
    lvl = np.asarray(levels.levels, dtype=np.float64)[:, None]
    multi = lvl > 1  # a 1-level dimension has no upper neighbour
    indices = np.empty(values.shape, dtype=np.int64)
    quantized = np.empty(values.shape)
    for lo in range(0, values.shape[1], _CHUNK):
        v = values[:, lo : lo + _CHUNK]
        j = np.clip(np.floor((v * lvl + lvl - 1) / 2), 0, np.maximum(lvl - 2, 0))
        below = _lattice(j, lvl)
        above = _lattice(j + 1, lvl)
        up = (np.abs(v - above) < np.abs(v - below)) & multi
        indices[:, lo : lo + _CHUNK] = j + up
        quantized[:, lo : lo + _CHUNK] = np.where(up, above, below)
    return indices, quantized


def quantize_projected(
    values: np.ndarray, levels
) -> tuple[np.ndarray, np.ndarray]:
    """Snap already-bounded [D, T] values to the nearest lattice point.

    No tanh is applied.  Returns (indices, lattice values); ties break toward
    the lower index.  Lattice points are fixed points: quantizing the output
    values again reproduces the indices exactly.
    """
    levels = _as_levels(levels)
    return _snap(_finite_rows(values, levels), levels)


def fsq_quantize(z: np.ndarray, levels) -> tuple[np.ndarray, np.ndarray]:
    """Project raw [D, T] features through tanh and quantize to the lattice.

    Returns (indices, quantized values).
    """
    levels = _as_levels(levels)
    return _snap(np.tanh(_finite_rows(z, levels)), levels)


def fsq_dequantize(indices: np.ndarray, levels) -> np.ndarray:
    """Map [D, T] integer lattice indices back to their lattice values."""
    levels = _as_levels(levels)
    indices = np.asarray(indices)
    _check_rows(indices, levels, "index array")
    if not np.issubdtype(indices.dtype, np.integer):
        raise ValidationError(f"indices must be integers, got dtype {indices.dtype}")
    lvl = np.asarray(levels.levels)[:, None]
    bad = (indices < 0) | (indices >= lvl)
    if np.any(bad):
        d, t = np.argwhere(bad)[0]
        raise ValidationError(
            f"index {indices[d, t]} out of range for dimension {d} "
            f"(level {levels.levels[d]}) at frame {t}"
        )
    return _lattice(indices, lvl)


def straight_through(grad_downstream: np.ndarray) -> np.ndarray:
    """Training-time gradient contract: pass the downstream gradient through.

    The quantizer is treated as identity in the backward pass (the gradient
    with respect to the pre-quantization values equals the gradient with
    respect to the quantized values, at the post-tanh point).
    """
    return np.asarray(grad_downstream)
