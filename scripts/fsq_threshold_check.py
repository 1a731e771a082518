#!/usr/bin/env python3
"""Check the FSQ threshold tables against tanh and a brute-force argmin.

1. Every finite float32, in ascending order and in chunks: np.tanh of its
   float64 value must be non-decreasing, which the tables' exactness rests
   on, and ``fsq_quantize`` at 4 levels must equal the first argmin of the
   distances to the four lattice points.
2. Every table for L = 1..16 and 65535, under tanh and the identity: each
   float64 threshold tau_j keeps the bisection's invariant (the predicate
   "strictly nearer lattice point j + 1 than j" is false one float64 below
   tau_j and true at tau_j), and each float32 entry is tau_j rounded up
   (the smallest float32 >= tau_j).

Float64 inputs get only the local check in tests/test_fsq.py, every float
within 2**16 ulps of each threshold: there are too many to sweep.

The sweep covers about 4.3e9 floats and took 5 min 45 s of wall time
(4 min 24 s of CPU) on a shared 2-core Xeon; the table checks take under a
second.  Exits 1 on the first failure.

Example:
    PYTHONPATH=src python3 scripts/fsq_threshold_check.py
"""

import sys

import numpy as np

from jdtok.fsq import FsqLevels, _identity, _thresholds, fsq_boundaries, fsq_quantize

CHUNK = 1 << 20  # floats per sweep step: about 60 MB of temporaries
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


def main() -> int:
    tables = all(
        check_table(level, transform)
        for level in [*range(1, 17), 65535]
        for transform in (np.tanh, _identity)
    )
    if not tables:
        return 1
    print("ok    tables for L = 1..16 and 65535, tanh and identity")
    return 0 if sweep_float32() else 1


if __name__ == "__main__":
    sys.exit(main())
