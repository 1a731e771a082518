"""Mixed-radix packing of per-dimension indices into integer tokens.

A group of G digits with per-position radices (r_1, ..., r_G) packs into

    token = sum_k  i_k * prod_{j > k} r_j

with the first digit most significant, so lexicographic order on digit
tuples equals numeric order on tokens and the map is a bijection onto
[0, prod r).  Unpacking is repeated divmod.  Radix-1 positions carry no
information (their only digit is 0) and serve as padding when the dimension
count is not a multiple of the group size.

A scheme takes the token file's limits: each radix at most 65535 (a u16)
and each group vocabulary at most 2**32 (a u32 token); beyond either, its
construction raises ``ValueError``.  Its ``token_dtype`` is the file's token
width: uint16 when every vocabulary fits in 2**16, else uint32.  Everything
here is exact integer arithmetic in that dtype: tokens, the partial values
of Horner's rule (each below its group's vocabulary) and unpacked digits.
Both frame paths hold digits digit-major, one [frames] row per dimension, so
a [D, frames] index array (what fsq returns) is read and written in memory
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

MAX_RADIX = 0xFFFF  # a u16 in the token file's radix table
MAX_GROUP_PRODUCT = 1 << 32  # a u32 token


@dataclass(frozen=True)
class RadixScheme:
    """Grouping of per-dimension radices into packable token groups.

    ``radices`` holds one radix per real dimension; the final group is padded
    with radix-1 dimensions up to a multiple of ``group_size``, which may not
    exceed the dimension count.  The derived padded layout, per-group
    vocabularies, token dtype and radix runs are computed once, at
    construction, as is ``levels``: the radices as the ``FsqLevels`` that
    checked them.  ``radices`` may be given as that ``FsqLevels``, which is
    then kept as ``levels`` and not checked again; ``radices`` is still its
    tuple.
    """

    radices: tuple[int, ...] | FsqLevels
    group_size: int
    levels: FsqLevels = field(init=False, repr=False, compare=False)
    padded_radices: tuple[int, ...] = field(init=False, repr=False, compare=False)
    group_products: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # uint16 when every group vocabulary fits in 2**16, else uint32
    token_dtype: np.dtype = field(init=False, repr=False, compare=False)
    # per digit position, the runs of groups that share a radix (_radix_runs)
    _runs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        levels = self.radices
        if not isinstance(levels, FsqLevels):
            levels = FsqLevels(levels)
        radices = levels.levels
        if max(radices) > MAX_RADIX:
            raise ValueError(
                f"radices above {MAX_RADIX} are not serializable (got {max(radices)})"
            )
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
                    f"group {i} vocabulary {prod} exceeds the 32-bit token width; "
                    "use a smaller group size"
                )
        dtype = np.dtype(np.uint16 if max(products) <= 1 << 16 else np.uint32)
        object.__setattr__(self, "radices", radices)
        object.__setattr__(self, "group_size", g)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "padded_radices", padded)
        object.__setattr__(self, "group_products", products)
        object.__setattr__(self, "token_dtype", dtype)
        object.__setattr__(self, "_runs", _radix_runs(groups, dtype))

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
def _radix_runs(groups: tuple[tuple[int, ...], ...], dtype: np.dtype) -> tuple:
    """Per digit position, (lo, hi, radix) for each run of consecutive groups sharing a radix.

    The radix is a numpy scalar of the token ``dtype``.  Cached, as the fsq
    threshold tables are: every token file read builds its scheme again, and
    the runs would make that half as slow again.
    """
    runs = []
    for column in zip(*groups):
        at, lo = [], 0
        for radix, run in itertools.groupby(column):
            hi = lo + len(list(run))
            at.append((lo, hi, dtype.type(radix)))
            lo = hi
        runs.append(tuple(at))
    return tuple(runs)


def build_scheme(levels, group_size: int) -> RadixScheme:
    """Derive the packing scheme from quantizer levels (radix = level count).

    An ``FsqLevels`` is kept as the scheme's ``levels``, not checked again.
    """
    return RadixScheme(radices=levels, group_size=group_size)


def _checked_tokens(tokens, scheme: RadixScheme) -> np.ndarray:
    """Integer ``tokens`` as [frames, groups] ``scheme.token_dtype``, each in ``[0, product)`` of its group.

    Each token is compared as given, then narrowed: a uint64 2**32 + 5 is
    rejected, not wrapped to 5.  No copy is made of tokens already in the
    token dtype, as a token file's are.
    """
    given = np.asarray(tokens)
    if given.ndim != 2 or given.shape[1] != scheme.group_count:
        raise ValueError(
            f"expected a [frames, {scheme.group_count}] token array, got shape {given.shape}"
        )
    if not np.issubdtype(given.dtype, np.integer):
        raise ValidationError(f"tokens must be integers, got dtype {given.dtype}")
    largest = np.array([p - 1 for p in scheme.group_products], dtype=scheme.token_dtype)
    bad = given > largest  # in a dtype that holds both: exact
    if given.dtype.kind == "i":  # -1 is no larger than a token
        bad |= given < 0
    if np.any(bad):
        f, g = np.argwhere(bad)[0]
        if given[f, g] < 0:
            raise ValidationError(f"token {given[f, g]} at frame {f}, group {g} is negative")
        raise ValidationError(
            f"token {given[f, g]} at frame {f}, group {g} exceeds the group "
            f"vocabulary {scheme.group_products[g]}"
        )
    return given.astype(scheme.token_dtype, copy=False)


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
    """Pack [frames, D] integer indices into [frames, groups] tokens (:func:`pack_group`).

    Tokens are ``scheme.token_dtype``.
    """
    indices = np.asarray(indices)
    if indices.ndim != 2 or indices.shape[1] != scheme.dim:
        raise ValueError(
            f"expected a [frames, {scheme.dim}] index array, got shape {indices.shape}"
        )
    digits = _checked_indices(indices.T, scheme.levels)  # [D, frames]: no digit is negative
    size, dtype = scheme.group_size, scheme.token_dtype
    # digit k of group g is row g * group_size + k; every group has its digit 0
    tokens = digits[::size].astype(dtype, order="C")  # its own buffer: no digit stays alive
    for pos in range(1, size):
        for lo, hi, radix in scheme._runs[pos]:
            part = tokens[lo:hi]
            if radix != 1:
                part *= radix  # exact: each partial value stays below its group's vocabulary
            rows = digits[lo * size + pos : hi * size + pos : size]  # no row for a pad
            if len(rows):
                part = part[: len(rows)]
                # in the token dtype, exact on in-range digits of any integer dtype
                np.add(part, rows, out=part, dtype=dtype, casting="unsafe")
    return tokens.T


def unpack_frames(tokens: np.ndarray, scheme: RadixScheme) -> np.ndarray:
    """Invert :func:`pack_frames`, dropping the pad digits; digits are ``scheme.token_dtype``."""
    tokens = _checked_tokens(tokens, scheme)
    # digit k of group g fills row g * group_size + k with frames along the
    # row, so the [D, frames] transpose that dequantization reads is contiguous
    digits = np.empty((scheme.group_count, scheme.group_size, tokens.shape[0]), dtype=tokens.dtype)
    rem = tokens.T
    for pos in range(scheme.group_size - 1, 0, -1):
        quotient = np.empty(rem.shape, dtype=tokens.dtype)
        for lo, hi, radix in scheme._runs[pos]:
            part, q, digit = rem[lo:hi], quotient[lo:hi], digits[lo:hi, pos]
            if radix == 1:  # a pad: its digit is 0
                q[...] = part
                digit[...] = 0
                continue
            np.floor_divide(part, radix, out=q)  # a scalar divisor: see the module docstring
            np.multiply(q, radix, out=digit)
            np.subtract(part, digit, out=digit)
        rem = quotient
    digits[:, 0] = rem  # in range: every token is below its group product
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
