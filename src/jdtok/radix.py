"""Mixed-radix packing of per-dimension indices into integer tokens.

A group of G digits with per-position radices (r_1, ..., r_G) packs into

    token = sum_k  i_k * prod_{j > k} r_j

with the first digit most significant, so lexicographic order on digit
tuples equals numeric order on tokens and the map is a bijection onto
[0, prod r).  Unpacking is repeated divmod.  Radix-1 positions carry no
information (their only digit is 0) and serve as padding when the dimension
count is not a multiple of the group size.

Everything here is exact integer arithmetic; the vectorized frame paths use
uint64, and scheme construction rejects group products beyond 2**64.  Both
frame paths hold digits digit-major, one [frames] row per dimension, so a
[D, frames] index array (what fsq returns) is read and written in memory
order: packing runs Horner's rule on [groups, frames] token rows, reading
the digit rows in place, and unpacking divides those rows digit by digit.

A radix is a level count: a scheme keeps its radices as ``scheme.levels``,
against which ``pack_frames`` checks digits by fsq's one digit check.
``_checked_tokens`` checks tokens for ``TokenStream`` and ``unpack_frames``.

Both walk, per digit position, the runs of consecutive groups that share a
radix there, with that radix as a numpy scalar.  Packing multiplies a run's
token rows by it and adds the run's digit rows, a strided view of every
group_size-th row.  Unpacking divides, q = rem // r, and writes the digit
as rem - q * r.  A scalar divisor takes numpy's divide-by-invariant loop;
divmod, or a [groups, 1] column of divisors, runs a hardware divide per
element, several times slower.  The runs are computed once per scheme.
Radix-1 runs (pads) need no multiply or divide: their digit is 0, and a
pad has no digit row to add.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, as_integer
from .fsq import FsqLevels, _checked_indices

__all__ = [
    "RadixScheme",
    "TokenStream",
    "build_scheme",
    "pack_group",
    "unpack_group",
    "pack_frames",
    "unpack_frames",
    "token_rate",
]

MAX_GROUP_PRODUCT = 1 << 64
# a negative integer cast to uint64 wraps to at least this, above any smaller bound
_WRAP = 1 << 63


@dataclass(frozen=True)
class RadixScheme:
    """Grouping of per-dimension radices into packable token groups.

    ``radices`` holds one radix per real dimension; the final group is padded
    with radix-1 dimensions up to a multiple of ``group_size``, which may not
    exceed the dimension count.  The derived padded layout, per-group
    vocabularies and the radix runs are computed once, at construction, as
    is ``levels``: the radices as the ``FsqLevels`` that checked them.
    """

    radices: tuple[int, ...]
    group_size: int
    levels: FsqLevels = field(init=False, repr=False, compare=False)
    padded_radices: tuple[int, ...] = field(init=False, repr=False, compare=False)
    group_products: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # per digit position, the runs of groups that share a radix (_radix_runs)
    _runs: tuple = field(init=False, repr=False, compare=False)
    # some radix exceeds 2**63: unpacked digits need uint64
    _wide: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        levels = FsqLevels(self.radices)
        radices = levels.levels
        g = as_integer("group_size", self.group_size)  # 7.0 too, as FsqLevels rejects 4.0
        if g < 1:
            raise ValueError(f"group_size must be >= 1, got {g}")
        if g > len(radices):
            raise ValueError(f"group_size {g} exceeds the {len(radices)} dimensions")
        padded = radices + (1,) * (-len(radices) % g)
        groups = tuple(padded[i : i + g] for i in range(0, len(padded), g))
        products = tuple(math.prod(group) for group in groups)
        for i, prod in enumerate(products):
            if prod > MAX_GROUP_PRODUCT:
                raise ValueError(
                    f"group {i} product {prod} exceeds 2**64; use a smaller group size"
                )
        object.__setattr__(self, "radices", radices)
        object.__setattr__(self, "group_size", g)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "padded_radices", padded)
        object.__setattr__(self, "group_products", products)
        object.__setattr__(self, "_runs", _radix_runs(groups))
        object.__setattr__(self, "_wide", max(radices) > _WRAP)

    @property
    def dim(self) -> int:
        return len(self.radices)

    @property
    def group_count(self) -> int:
        return len(self.group_products)

    @property
    def pad_count(self) -> int:
        return len(self.padded_radices) - self.dim


@functools.lru_cache(maxsize=64)
def _radix_runs(groups: tuple[tuple[int, ...], ...]) -> tuple:
    """Per digit position, (lo, hi, radix) for each run of consecutive groups sharing a radix.

    The radix is a numpy uint64 scalar, and a 2**64 radix is given as 1.
    Cached, as the fsq threshold tables are: every token file read builds
    its scheme again, and the runs would make that half as slow again.
    """
    runs = []
    for column in zip(*groups):
        at, lo = [], 0
        for radix, run in itertools.groupby(column):
            hi = lo + len(list(run))
            at.append((lo, hi, np.uint64(radix % MAX_GROUP_PRODUCT or 1)))
            lo = hi
        runs.append(tuple(at))
    return tuple(runs)


def build_scheme(levels, group_size: int) -> RadixScheme:
    """Derive the packing scheme from quantizer levels (radix = level count)."""
    radices = levels.levels if isinstance(levels, FsqLevels) else levels
    return RadixScheme(radices=radices, group_size=group_size)


def _checked_tokens(tokens, scheme: RadixScheme) -> np.ndarray:
    """Integer ``tokens`` as [frames, groups] uint64, each in ``[0, product)`` of its group.

    The largest token, ``product - 1``, always fits in uint64, even for a 2**64 vocabulary.
    """
    given = np.asarray(tokens)
    if given.ndim != 2 or given.shape[1] != scheme.group_count:
        raise ValueError(
            f"expected a [frames, {scheme.group_count}] token array, got shape {given.shape}"
        )
    if not np.issubdtype(given.dtype, np.integer):
        raise ValidationError(f"tokens must be integers, got dtype {given.dtype}")
    tokens = given.astype(np.uint64, copy=False)
    largest = np.array([p - 1 for p in scheme.group_products], dtype=np.uint64)
    bad = tokens > largest
    if max(scheme.group_products) > _WRAP:
        bad |= given < 0
    if np.any(bad):
        f, g = np.argwhere(bad)[0]
        if given[f, g] < 0:
            raise ValidationError(f"token {given[f, g]} at frame {f}, group {g} is negative")
        raise ValidationError(
            f"token {given[f, g]} at frame {f}, group {g} exceeds the group "
            f"vocabulary {scheme.group_products[g]}"
        )
    return tokens


@dataclass(frozen=True)
class TokenStream:
    """A [frames, groups] block of packed tokens plus its scheme and rate."""

    tokens: np.ndarray
    scheme: RadixScheme
    frame_rate_hz: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", _checked_tokens(self.tokens, self.scheme))

    @property
    def frame_count(self) -> int:
        return self.tokens.shape[0]

    @property
    def tokens_per_second(self) -> float:
        return self.frame_rate_hz * self.scheme.group_count


def pack_group(indices, radices) -> int:
    """Pack one digit tuple into a token, first digit most significant."""
    indices = list(indices)
    radices = list(radices)
    if len(indices) != len(radices):
        raise ValueError(
            f"digit count ({len(indices)}) != radix count ({len(radices)})"
        )
    token = 0
    for pos, (i, r) in enumerate(zip(indices, radices)):
        if not 0 <= i < r:
            raise ValidationError(
                f"digit {i} at position {pos} out of range for radix {r}"
            )
        token = token * r + i
    return token


def unpack_group(token: int, radices) -> list[int]:
    """Invert :func:`pack_group` exactly."""
    radices = list(radices)
    prod = math.prod(radices)
    if not 0 <= token < prod:
        raise ValidationError(f"token {token} out of range [0, {prod})")
    digits = [0] * len(radices)
    rem = int(token)
    for pos in range(len(radices) - 1, -1, -1):
        rem, digits[pos] = divmod(rem, radices[pos])
    return digits


def pack_frames(indices: np.ndarray, scheme: RadixScheme) -> np.ndarray:
    """Pack [frames, D] integer indices into [frames, groups] tokens (:func:`pack_group`)."""
    indices = np.asarray(indices)
    if indices.ndim != 2 or indices.shape[1] != scheme.dim:
        raise ValueError(
            f"expected a [frames, {scheme.dim}] index array, got shape {indices.shape}"
        )
    digits = _checked_indices(indices.T, scheme.levels)  # [D, frames]: no digit is negative
    size = scheme.group_size
    # digit k of group g is row g * group_size + k; every group has its digit 0
    tokens = digits[::size].astype(np.uint64, order="C")  # its own buffer: no digit stays alive
    # uint64 arithmetic is exact modulo 2**64, and every token is below 2**64
    for pos in range(1, size):
        for lo, hi, radix in scheme._runs[pos]:
            part = tokens[lo:hi]
            if radix != 1:  # a radix 2**64 is given as 1: its group's earlier digits are 0
                part *= radix
            rows = digits[lo * size + pos : hi * size + pos : size]  # no row for a pad
            if len(rows):
                part = part[: len(rows)]
                # force the uint64 loop, exact on non-negative digits: uint64 + int64
                # would promote to float64
                np.add(part, rows, out=part, dtype=np.uint64, casting="unsafe")
    return tokens.T


def unpack_frames(tokens: np.ndarray, scheme: RadixScheme) -> np.ndarray:
    """Invert :func:`pack_frames`, dropping the pad digits.

    Digits are int64, or uint64 when a radix exceeds 2**63.
    """
    tokens = _checked_tokens(tokens, scheme)
    # digit k of group g fills row g * group_size + k with frames along the
    # row, so the [D, frames] transpose that dequantization reads is contiguous
    digits = np.empty((scheme.group_count, scheme.group_size, tokens.shape[0]), dtype=np.uint64)
    rem = tokens.T
    for pos in range(scheme.group_size - 1, 0, -1):
        quotient = np.empty(rem.shape, dtype=np.uint64)
        for lo, hi, radix in scheme._runs[pos]:
            part, q, digit = rem[lo:hi], quotient[lo:hi], digits[lo:hi, pos]
            if radix == 1:  # a pad, or a 2**64 radix: its digit is set below
                q[...] = part
                digit[...] = 0
                continue
            np.floor_divide(part, radix, out=q)  # a scalar divisor: see the module docstring
            np.multiply(q, radix, out=digit)
            np.subtract(part, digit, out=digit)
        rem = quotient
    digits[:, 0] = rem  # in range: every token is below its group product
    if scheme._wide:
        # a 2**64 radix: its group's other radices are all 1, so its digit is the token
        for d, radix in enumerate(scheme.radices):
            if radix == MAX_GROUP_PRODUCT:
                g, pos = divmod(d, scheme.group_size)
                digits[g] = 0
                digits[g, pos] = tokens[:, g]
    else:  # every digit is below 2**63
        digits = digits.view(np.int64)
    return digits.reshape(len(scheme.padded_radices), -1)[: scheme.dim].T


def token_rate(sample_rate: float, hop: int, groups: int) -> tuple[float, float]:
    """Frame rate (Hz) and packed tokens per second for an encoder hop.

    The frame rate is sample_rate / hop; each frame emits one token per
    group.  Each of ``hop`` and ``sample_rate`` must be finite and >= 1, and
    ``hop``, a sample count, an integer.
    """
    for name, value in (("hop", hop), ("sample_rate", sample_rate)):
        if not -math.inf < value < math.inf:  # NaN too, which would break value equality
            raise ValueError(f"{name} must be finite, got {value}")
    as_integer("hop", hop)  # 9600.0 too, as FsqLevels rejects a level of 4.0
    for name, value in (("hop", hop), ("sample_rate", sample_rate)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    frame_rate = sample_rate / hop
    return frame_rate, frame_rate * groups
