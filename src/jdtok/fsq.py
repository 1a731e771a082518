"""Finite scalar quantization onto fixed per-dimension lattices.

Each dimension d carries L_d levels placed at (2i - L_d + 1) / L_d for
i in {0, ..., L_d - 1}: a uniform lattice inside (-1, 1), symmetric about
zero.  Raw features are squashed through tanh and snapped to the nearest
lattice point, so there is no codebook to learn and every code is a plain
integer per dimension.

``quantize_projected`` skips the tanh and operates on already-bounded values;
it is the entry point for re-quantizing dequantized lattice values, for which
it is exactly idempotent.

Neither snap evaluates tanh or a distance per value.  Both compare the raw
input with a table of L - 1 input-space thresholds, cached per level count,
map (tanh or identity) and float width.  Threshold tau_j is the smallest
float64 x whose image f(x) is strictly nearer lattice point j + 1 than j,
|f(x) - c[j+1]| < |f(x) - c[j]|, in the float arithmetic an argmin over the
distances uses.  The table is exact because that predicate is monotone in x:
f is non-decreasing (np.tanh is, on every float32; see
scripts/fsq_threshold_check.py); the predicate is false for f(x) <= c[j] and
true for f(x) >= c[j+1] (in the bracket below), and in between, as f(x)
rises, the rounded distance to c[j+1] never grows while the one to c[j]
never shrinks.  So a bisection over the ordered bit patterns of float64
finds each tau_j, and the index of x is the number of thresholds <= x: the
nearest point, ties at midpoints going to the lower index as an argmin's
would.  The bisection brackets [-20, 20]:
beyond it tanh is +-1 in float64 and the identity is nearest the outermost
point, even where both rounded distances of a huge value are equal.  A
float32 table holds each tau_j rounded up to float32, so a float32 input
compares exactly as its float64 value would, without an upcast.  The count
is one branchless binary search over the table, padded with +inf to a power
of two P: log2(P) passes of one gather and one comparison.

Snap and dequantize share one per-level dispatch: with a single distinct
level, the usual case, the kernel sees the whole [D, T] array and a scalar
level; with mixed levels it runs once per distinct level on that level's
rows.

``fsq_indices`` is the snap alone: the threshold count, with no lattice
values.  Packing needs only the integer codes, so tokenizing builds no
[D, T] float64 array it would discard.  ``fsq_quantize`` adds the values,
one ``take`` from the level's lattice per set of rows, unless asked for the
indices alone.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "FsqLevels",
    "fsq_boundaries",
    "fsq_indices",
    "fsq_quantize",
    "quantize_projected",
    "fsq_dequantize",
]

@dataclass(frozen=True)
class FsqLevels:
    """Per-dimension level counts. Default: 128 dimensions of 4 levels."""

    levels: tuple[int, ...] = (4,) * 128

    def __post_init__(self) -> None:
        try:  # a level is an integer: 4.7 and 2.5 are rejected, not truncated
            levels = tuple(operator.index(v) for v in self.levels)
        except TypeError as exc:
            raise ValueError(f"levels must be integers, got {self.levels}") from exc
        object.__setattr__(self, "levels", levels)
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
    (level,) = FsqLevels((level,)).levels
    return _lattice(np.arange(level), level)


def _lattice(index, level):
    # (2 index - level + 1) / level in one float64 buffer; shared by snap,
    # dequantize and boundaries so they agree bit for bit
    out = np.multiply(2.0, index)
    out -= level
    out += 1
    out /= level
    return out


def _check_rows(array: np.ndarray, levels: FsqLevels, what: str) -> None:
    if array.ndim != 2:
        raise ValueError(f"expected a [D, T] {what}, got shape {array.shape}")
    if array.shape[0] != levels.dim:
        raise ValueError(
            f"dimension mismatch: array has {array.shape[0]} rows, "
            f"levels define {levels.dim} dimensions"
        )


def _finite_rows(values, levels: FsqLevels) -> np.ndarray:
    """``values`` checked once for its [D, T] shape and finiteness.

    float32 stays float32, since the float32 tables compare it exactly;
    anything else becomes float64.
    """
    values = np.asarray(values)
    if values.dtype != np.float32:
        values = values.astype(np.float64, copy=False)
    _check_rows(values, levels, "array")
    if not np.all(np.isfinite(values)):
        raise ValidationError("input contains non-finite values")
    return values


def _identity(values):
    return values


_BRACKET = 20.0  # tanh(+-20) is +-1 in float64: both maps are settled beyond
_MAGNITUDE = np.int64(2**63 - 1)


def _ordered(bits: np.ndarray) -> np.ndarray:
    """float64 bit patterns <-> int64 keys in the floats' order (an involution)."""
    return bits ^ ((bits >> 63) & _MAGNITUDE)


@functools.lru_cache(maxsize=64)
def _thresholds(level: int, transform, dtype) -> np.ndarray:
    """The ascending thresholds tau_j for ``level`` levels, read-only.

    +inf pads the table to a power of two P >= ``level``.  A float32 table
    rounds each float64 threshold up, so that for a float32 x,
    x >= float32 tau_j exactly when float64(x) >= tau_j.
    """
    if dtype == np.float32:
        exact = _thresholds(level, transform, np.float64)
        table = exact.astype(np.float32)
        low = table < exact
        table[low] = np.nextafter(table[low], np.float32(np.inf))
    else:
        below = _lattice(np.arange(level - 1), level)
        above = _lattice(np.arange(1, level), level)
        bracket = _ordered(np.array([-_BRACKET, _BRACKET]).view(np.int64))
        lo = np.full(level - 1, bracket[0])  # the predicate is false here
        hi = np.full(level - 1, bracket[1])  # and true here
        for _ in range(64):  # the bracket spans fewer than 2**64 keys
            mid = (lo & hi) + ((lo ^ hi) >> 1)  # floor((lo + hi) / 2), no overflow
            image = transform(_ordered(mid).view(np.float64))
            nearer = np.abs(image - above) < np.abs(image - below)
            hi = np.where(nearer, mid, hi)
            lo = np.where(nearer, lo, mid)
        table = np.full(1 << (level - 1).bit_length(), np.inf)
        table[: level - 1] = _ordered(hi).view(np.float64)
    table.flags.writeable = False
    return table


def _count_thresholds(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The number of ``table`` entries <= x, for each x: one binary search."""
    step = table.size // 2
    if step == 0:
        return np.zeros(x.shape, dtype=np.int64)
    index = np.multiply(x >= table[step - 1], step, dtype=np.int64)
    while step > 1:
        step //= 2
        # index is a multiple of 2 * step, so index + step - 1 stays in the table
        above = x >= table[step - 1 :].take(index)
        index += above * step if step > 1 else above
    return index


def _snap(x: np.ndarray, level: int, transform, with_values: bool) -> tuple:
    """The indices of ``x``, and if ``with_values`` their lattice values."""
    index = _count_thresholds(x, _thresholds(level, transform, x.dtype.type))
    if not with_values:
        return (index,)
    return index, _lattice(np.arange(level), level).take(index)


def _by_level(array: np.ndarray, levels: FsqLevels, kernel, dtypes) -> tuple:
    """``kernel(rows, level)``, returning arrays of ``dtypes``, per set of rows sharing a level.

    One distinct level, the usual case, runs the kernel once on the whole
    array: no gather or scatter of rows.
    """
    distinct = set(levels.levels)
    if len(distinct) == 1:
        return kernel(array, levels.levels[0])
    lvl = np.asarray(levels.levels)
    outs = tuple(np.empty(array.shape, dtype=dtype) for dtype in dtypes)
    for level in distinct:
        rows = lvl == level
        for out, part in zip(outs, kernel(array[rows], level)):
            out[rows] = part
    return outs


def _quantize(values, levels, transform, with_values: bool = True) -> tuple:
    levels = _as_levels(levels)
    values = _finite_rows(values, levels)
    outs = _by_level(
        values,
        levels,
        lambda rows, level: _snap(rows, level, transform, with_values),
        (np.int64, np.float64)[: 1 + with_values],
    )
    return outs if with_values else (outs[0], None)


def quantize_projected(
    values: np.ndarray, levels
) -> tuple[np.ndarray, np.ndarray]:
    """Snap already-bounded [D, T] values to the nearest lattice point.

    No tanh is applied.  Returns (indices, lattice values); ties break toward
    the lower index.  Lattice points are fixed points: quantizing the output
    values again reproduces the indices exactly.
    """
    return _quantize(values, levels, _identity)


def fsq_indices(z: np.ndarray, levels) -> np.ndarray:
    """The [D, T] int64 lattice indices of raw features after tanh, without their values.

    Equal to ``fsq_quantize(z, levels)[0]``; tokenizing needs nothing more.
    It calls ``fsq_quantize`` by its module name, so that the benchmark's
    tracer, which wraps that name, still times the snap as ``fsq.quantize_s``.
    """
    return fsq_quantize(z, levels, with_values=False)[0]


def fsq_quantize(
    z: np.ndarray, levels, *, with_values: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Project raw [D, T] features through tanh and quantize to the lattice.

    Returns (indices, quantized values).  With ``with_values=False`` no
    values are built and None stands in for them.
    """
    return _quantize(z, levels, np.tanh, with_values)


def fsq_dequantize(indices: np.ndarray, levels) -> np.ndarray:
    """Map [D, T] integer lattice indices back to their lattice values."""
    levels = _as_levels(levels)
    indices = np.asarray(indices)
    _check_rows(indices, levels, "index array")
    if not np.issubdtype(indices.dtype, np.integer):
        raise ValidationError(f"indices must be integers, got dtype {indices.dtype}")
    lvl = np.asarray(levels.levels)
    # each row's extremes against its level; a [D, T] mask only to name the first bad index
    if indices.size and np.any((indices.min(axis=1) < 0) | (indices.max(axis=1) >= lvl)):
        d, t = np.argwhere((indices < 0) | (indices >= lvl[:, None]))[0]
        raise ValidationError(
            f"index {indices[d, t]} out of range for dimension {d} "
            f"(level {levels.levels[d]}) at frame {t}"
        )
    (values,) = _by_level(
        indices, levels, lambda rows, level: (_lattice(rows, level),), (np.float64,)
    )
    return values

