"""Finite scalar quantization onto fixed per-dimension lattices.

Each dimension d carries L_d levels placed at (2i - L_d + 1) / L_d for
i in {0, ..., L_d - 1}: a uniform lattice inside (-1, 1), symmetric about
zero.  Raw features are squashed through tanh and snapped to the nearest
lattice point, so there is no codebook to learn and every code is a plain
integer per dimension.

Neither snap (``fsq_quantize``, or ``quantize_projected`` without the tanh)
evaluates tanh or a distance per value.  Both compare the raw input with a
table of L - 1 input-space thresholds, cached per level list, map (tanh or
identity) and float width.  Threshold tau_j is the smallest
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
of two P >= 4.  Its top two levels are three comparisons with scalar
splitters, the entries that end each quarter of the table; the remaining
log2(P) - 2 levels are passes of one gather and one comparison.  At 4
levels, the default, the three splitters are the whole table: no gather.

Indices are digits in the narrowest unsigned dtype that holds the largest,
max(L_d) - 1: uint8 up to 256 levels (the default's 4 included), uint16 up
to 65536, then uint32 and uint64.  A 4-entry table's uint8 count is the
index itself; a longer table's count gathers in intp and is cast once.
Subtracting from such digits wraps (0 - 1 is 255 in uint8): widen first.

Only the threshold count loops over the distinct levels, since each level
count has its own table.  The lattice values, of a snap as of
``fsq_dequantize``, and the digit check are arithmetic on the level, a
scalar when all dimensions share it, else broadcast as a [D, 1] column
(lattice) or compared row by row (a failed digit check).
``fsq_indices`` is the snap alone, with no lattice values: tokenizing needs
only the integer codes.

Lattice values are float64, except that ``fsq_dequantize(out=)`` computes
them in its ``out``'s dtype, float32 or float64, and writes them there.
The float32 values are bit-equal to the float64 ones rounded to float32:
2i - L + 1 and L are exact integers in float32, and rounding their quotient
once to float32 or first to float64 gives the same float, since
53 >= 2 * 24 + 2 (Figueroa, "When is double rounding innocuous?", 1995).
A float32 ``out`` takes levels up to 65535, where
scripts/fsq_threshold_check.py checks every digit.

Codec rules are checked once each: levels by ``FsqLevels``, digits by
``_checked_indices`` (for ``fsq_dequantize`` and ``radix.pack_frames``),
tokens by ``radix._checked_tokens``, rates by ``radix.token_rate`` and
``fileio._check_rate``.
"""

from __future__ import annotations

import functools
import operator
import threading
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


def _lattice(index, level, dtype=np.float64):
    # (2 index - level + 1) / level in one new buffer of ``dtype``; shared by
    # snap, dequantize and boundaries so they agree bit for bit.  level is an
    # int or a scalar of that dtype, or a [D, 1] column of it for mixed levels
    out = np.multiply(2.0, index, dtype=dtype)
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


def _thresholds(level: int, transform, dtype) -> np.ndarray:
    """The ascending thresholds tau_j for ``level`` levels, read-only.

    +inf pads the table to a power of two P >= max(``level``, 4), so that it
    has the three splitters of ``_count_thresholds``.  A float32 table
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
        table = np.full(max(4, 1 << (level - 1).bit_length()), np.inf)
        table[: level - 1] = _ordered(hi).view(np.float64)
    table.flags.writeable = False
    return table


def _digit_dtype(level: int) -> np.dtype:
    """The narrowest unsigned dtype that holds ``level`` - 1, the largest digit."""
    bits = (level - 1).bit_length()
    if bits <= 8:
        return np.dtype(np.uint8)
    if bits <= 16:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32 if bits <= 32 else np.uint64)


def _count_thresholds(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """The number of ``table`` entries <= x, for each x: one binary search.

    Its top two levels count x against the three scalar splitters
    table[s - 1], table[2s - 1] and table[3s - 1], s = table.size / 4, in
    uint8 through bool views: no gather and no cast.  A 4-entry table is
    done there, and its uint8 count is the index.  Each further level
    halves the step and makes one gather in intp; the index is then cast
    once to ``_digit_dtype(table.size)``, as wide as the level's digits,
    since the table is padded to the next power of two.
    """
    step = table.size // 4
    count = (x >= table[step - 1]).view(np.uint8)
    count += (x >= table[2 * step - 1]).view(np.uint8)
    count += (x >= table[3 * step - 1]).view(np.uint8)
    if step == 1:
        return count
    index = np.multiply(count, step, dtype=np.intp)
    while step > 1:
        step //= 2
        # index is a multiple of 2 * step, so index + step - 1 stays in the table
        above = x >= table[step - 1 :].take(index)
        index += above * step if step > 1 else above
    return index.astype(_digit_dtype(table.size))


@functools.lru_cache(maxsize=16)
def _level_tables(levels: tuple[int, ...], transform, dtype) -> tuple:
    """(rows, table) for each distinct count of ``levels``; rows is a bool mask.

    Cached per level list, map and float width, at most 16 lists: a list
    with many distinct counts builds its tables once, not once per block.
    """
    lvl = np.asarray(levels)
    return tuple(
        (lvl == level, _thresholds(level, transform, dtype)) for level in dict.fromkeys(levels)
    )


_TABLES_LOCK = threading.Lock()


def _level_operand(levels: FsqLevels, dtype=np.float64):
    """The level in ``dtype`` for ``_lattice``: one scalar, or a [D, 1] column if mixed."""
    if len(set(levels.levels)) == 1:  # the usual case: a scalar, faster than a column
        return dtype(levels.levels[0])
    # each element meets the same correctly rounded level as a scalar would give it
    return np.array(levels.levels, dtype=dtype)[:, None]


def _quantize(values, levels, transform, with_values: bool = True) -> tuple:
    levels = _as_levels(levels)
    values = _finite_rows(values, levels)
    with _TABLES_LOCK:  # one thread builds a new list's tables while the others wait
        tables = _level_tables(levels.levels, transform, values.dtype.type)
    if len(tables) == 1:  # the usual case: no gather or scatter of rows
        index = _count_thresholds(values, tables[0][1])
    else:  # each level count has its own table: snap the rows sharing a level together
        index = np.empty(values.shape, dtype=_digit_dtype(max(levels.levels)))
        for rows, table in tables:
            index[rows] = _count_thresholds(values[rows], table)
    return index, _lattice(index, _level_operand(levels)) if with_values else None


def quantize_projected(
    values: np.ndarray, levels
) -> tuple[np.ndarray, np.ndarray]:
    """Snap already-bounded [D, T] values to the nearest lattice point.

    No tanh is applied.  Returns (indices, lattice values); ties break toward
    the lower index.  Indices are the narrowest unsigned dtype that holds
    max(level) - 1 (uint8 up to 256 levels, uint16 up to 65536, else
    uint32); values are float64.  Lattice points are fixed points:
    quantizing the output values again reproduces the indices exactly.
    """
    return _quantize(values, levels, _identity)


def fsq_indices(z: np.ndarray, levels) -> np.ndarray:
    """The [D, T] lattice indices of raw features after tanh, without their values.

    Equal to ``fsq_quantize(z, levels)[0]``, in the same narrowest unsigned
    dtype that holds max(level) - 1; tokenizing needs nothing more.
    It calls ``fsq_quantize`` by its module name, so that the benchmark's
    tracer, which wraps that name, still times the snap as ``fsq.quantize_s``.
    """
    return fsq_quantize(z, levels, with_values=False)[0]


def fsq_quantize(
    z: np.ndarray, levels, *, with_values: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Project raw [D, T] features through tanh and quantize to the lattice.

    Returns (indices, quantized values).  Indices are the narrowest unsigned
    dtype that holds max(level) - 1 (uint8 up to 256 levels, uint16 up to
    65536, else uint32), so widen them before subtracting; values are
    float64.  With ``with_values=False`` no values are built and None
    stands in for them.
    """
    return _quantize(z, levels, np.tanh, with_values)


def _checked_indices(indices, levels: FsqLevels) -> np.ndarray:
    """[D, T] integer ``indices`` with digit d in [0, L_d), else the first bad one by frame.

    Extremes compare with the levels as Python ints, so uint64 digits and
    levels up to 2**64 stay exact.  Only a failure builds an element mask:
    the negatives, and the digits >= L_d of each row whose max reached L_d,
    so that L_d fits the dtype and that comparison is exact too.
    """
    indices = np.asarray(indices)
    _check_rows(indices, levels, "index array")
    if not np.issubdtype(indices.dtype, np.integer):
        raise ValidationError(f"indices must be integers, got dtype {indices.dtype}")
    if indices.size == 0:
        return indices
    if len(set(levels.levels)) == 1:  # the usual case: one min and one max
        ends = [(indices.min(), indices.max(), levels.levels[0])]
    else:  # each row's extremes: no gather of each level's rows
        ends = zip(indices.min(axis=1).tolist(), indices.max(axis=1).tolist(), levels.levels)
    if all(int(lo) >= 0 and int(hi) < level for lo, hi, level in ends):
        return indices
    bad = indices < 0
    for d, (top, level) in enumerate(zip(indices.max(axis=1).tolist(), levels.levels)):
        if top >= level:
            bad[d] |= indices[d] >= level
    t, d = np.argwhere(bad.T)[0]
    raise ValidationError(
        f"index {indices[d, t]} out of range for dimension {d} "
        f"(level {levels.levels[d]}) at frame {t}"
    )


_FLOAT32_LEVELS = 65535  # scripts/fsq_threshold_check.py checks every digit up to it


def fsq_dequantize(indices: np.ndarray, levels, *, out: np.ndarray | None = None) -> np.ndarray:
    """Map [D, T] integer lattice indices back to their lattice values.

    Without ``out`` the values are a new float64 array.  ``out``, a float32
    or float64 [D, T] array (a strided view will do), receives them computed
    in its own dtype and is returned; float32 values are bit-equal to the
    float64 ones rounded to float32 (see the module docstring).  A float32
    ``out`` takes levels up to 65535, the range checked exhaustively; a
    larger level, another dtype or shape raise ``ValueError``.  The digits
    are checked before anything is written.
    """
    levels = _as_levels(levels)
    indices = _checked_indices(indices, levels)
    if out is None:
        return _lattice(indices, _level_operand(levels))
    if not isinstance(out, np.ndarray) or out.dtype not in (np.float32, np.float64):
        got = getattr(out, "dtype", type(out).__name__)
        raise ValueError(f"out must be a float32 or float64 array, got {got}")
    if out.shape != indices.shape:
        raise ValueError(f"out has shape {out.shape}, the indices {indices.shape}")
    if out.dtype == np.float32 and max(levels.levels) > _FLOAT32_LEVELS:
        raise ValueError(
            f"a float32 out takes levels up to {_FLOAT32_LEVELS}, got {max(levels.levels)}"
        )
    # built contiguous, then copied once: numpy buffers every pass over a
    # strided view, such as a block of the CLI's [D, frames] array
    out[...] = _lattice(indices, _level_operand(levels, out.dtype.type), out.dtype)
    return out
