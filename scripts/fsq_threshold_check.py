#!/usr/bin/env python3
"""Check the FSQ threshold tables against tanh and a brute-force argmin, and the float32 lattice.

1. Every finite float32, in ascending order and in chunks: np.tanh of its
   float64 value must be non-decreasing, which the tables' exactness rests
   on, and ``fsq_quantize`` at 4 levels must equal the first argmin of the
   distances to the four lattice points.
2. Every table for L = 1..16 and 65535, under tanh and the identity: each
   float64 threshold tau_j keeps the bisection's invariant (the predicate
   "strictly nearer lattice point j + 1 than j" is false one float64 below
   tau_j and true at tau_j), and each float32 entry is tau_j rounded up
   (the smallest float32 >= tau_j).
3. Every digit of every level L = 1..65535, the levels a float32 ``out``
   of ``fsq_dequantize`` takes: the float32 lattice must be bit-equal to
   the float64 lattice rounded to float32 (compared as uint32, so +0 and
   -0 differ), once with L as a scalar and once in a [D, 1] column of 16
   consecutive levels.

Float64 inputs get only the local check in tests/test_fsq.py, every float
within 2**16 ulps of each threshold: there are too many to sweep.

The float32 sweep covers about 4.3e9 floats and took 5 min 45 s of wall
time (4 min 24 s of CPU) on a shared 2-core Xeon; the lattice check covers
about 2.1e9 values twice and took 36 s (numpy 2.4.6); the table checks take
under a second.  Exits 1 on the first failure.

Example:
    PYTHONPATH=src python3 scripts/fsq_threshold_check.py
"""

import sys

import numpy as np

from jdtok.fsq import (
    _FLOAT32_LEVELS,
    FsqLevels,
    _digit_dtype,
    _identity,
    _thresholds,
    fsq_boundaries,
    fsq_dequantize,
    fsq_quantize,
)

CHUNK = 1 << 20  # floats per sweep step: about 60 MB of temporaries
COLUMN_ROWS = 16  # consecutive levels per mixed-level call
MAGNITUDE32 = np.int32(2**31 - 1)


def float32_from_keys(keys: np.ndarray) -> np.ndarray:
    """int32 keys in float order -> float32 values (the map is an involution)."""
    return (keys ^ ((keys >> 31) & MAGNITUDE32)).view(np.float32)


def sweep_float32() -> bool:
    top = np.array([np.finfo(np.float32).max], dtype=np.float32).view(np.int32)[0]
    first, last = -int(top) - 1, int(top)  # the keys of -max and +max
    lattice = fsq_boundaries(4)
    levels = FsqLevels((4,))
    previous = -np.inf
    for lo in range(first, last + 1, CHUNK):
        x = float32_from_keys(np.arange(lo, min(lo + CHUNK, last + 1), dtype=np.int32))
        y = np.tanh(x.astype(np.float64))
        if y[0] < previous or np.any(y[1:] < y[:-1]):
            at = np.flatnonzero(np.diff(np.concatenate([[previous], y])) < 0)[0]
            print(f"FAIL tanh decreases at float32 {x[at]!r}")
            return False
        previous = y[-1]
        expect = np.argmin(np.abs(y[:, None] - lattice), axis=1)
        got, _ = fsq_quantize(x[None, :], levels)
        if not np.array_equal(got[0], expect):
            at = np.flatnonzero(got[0] != expect)[0]
            print(f"FAIL fsq_quantize({x[at]!r}) = {got[0, at]}, argmin {expect[at]}")
            return False
    print("ok    every finite float32: tanh non-decreasing, L=4 snap equals argmin")
    return True


def check_table(level: int, transform) -> bool:
    below = fsq_boundaries(level)[:-1]
    above = fsq_boundaries(level)[1:]

    def nearer_above(x):
        image = transform(x)
        return np.abs(image - above) < np.abs(image - below)

    t64 = _thresholds(level, transform, np.float64)
    t32 = _thresholds(level, transform, np.float32)
    tau, up = t64[: level - 1], t32[: level - 1].astype(np.float64)
    size = t64.size
    checks = {
        "padded to a power of two >= L with +inf": (
            size == t32.size >= level
            and size & (size - 1) == 0
            and np.all(np.isposinf(t64[level - 1 :]))
            and np.all(np.isposinf(t32[level - 1 :]))
        ),
        "ascending": np.all(np.diff(tau) > 0),
        "predicate true at tau": np.all(nearer_above(tau)),
        "predicate false one float64 below tau": not np.any(
            nearer_above(np.nextafter(tau, -np.inf))
        ),
        "float32 entry >= tau": np.all(up >= tau),
        "next float32 down < tau": np.all(
            np.nextafter(t32[: level - 1], np.float32(-np.inf)).astype(np.float64) < tau
        ),
    }
    failed = [name for name, ok in checks.items() if not ok]
    name = "tanh" if transform is np.tanh else "identity"
    for what in failed:
        print(f"FAIL L={level} {name}: {what}")
    return not failed


def same_bits(levels, digits) -> bool:
    """The float32 lattice of ``fsq_dequantize(out=)`` is float32(float64 lattice), bit for bit."""
    got = fsq_dequantize(digits, levels, out=np.empty(digits.shape, np.float32))
    want = fsq_dequantize(digits, levels).astype(np.float32)
    if np.array_equal(got.view(np.uint32), want.view(np.uint32)):  # +0 and -0 differ
        return True
    d, t = np.argwhere(got.view(np.uint32) != want.view(np.uint32))[0]
    print(
        f"FAIL level {levels.levels[d]} digit {digits[d, t]}: float32 lattice "
        f"{got[d, t]!r}, float64 rounded {want[d, t]!r}"
    )
    return False


def check_float32_lattice() -> bool:
    top = _FLOAT32_LEVELS
    for level in range(1, top + 1):  # a scalar level
        if not same_bits(FsqLevels((level,)), np.arange(level, dtype=_digit_dtype(level))[None]):
            return False
    for lo in range(1, top + 1, COLUMN_ROWS):  # a [D, 1] column of mixed levels
        levels = np.arange(lo, min(lo + COLUMN_ROWS, top + 1))
        # every digit of each row's level, the last one repeated up to the widest row
        digits = np.minimum(np.arange(levels[-1]), levels[:, None] - 1).astype(np.uint16)
        if not same_bits(FsqLevels(tuple(levels)), digits):
            return False
    print(f"ok    float32 lattice for every digit of L = 1..{top}, scalar and column levels")
    return True


def main() -> int:
    tables = all(
        check_table(level, transform)
        for level in [*range(1, 17), 65535]
        for transform in (np.tanh, _identity)
    )
    if not tables:
        return 1
    print("ok    tables for L = 1..16 and 65535, tanh and identity")
    if not check_float32_lattice():
        return 1
    return 0 if sweep_float32() else 1


if __name__ == "__main__":
    sys.exit(main())
