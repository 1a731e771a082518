"""Binary containers for feature streams and packed token streams.

Both formats are little-endian with fixed headers, so identical inputs
produce identical bytes on every platform.

Feature file (magic ``JDF1``), also used for mono waveforms with channels=1
and frame_rate_hz carrying the sample rate:

    offset  size  field
    0       4     magic "JDF1"
    4       4     u32 format version (1)
    8       4     u32 channel count C
    12      8     u64 frame count T
    20      8     f64 frame_rate_hz (finite, > 0)
    28      4*C*T f32 payload, channel-major (all of channel 0, then 1, ...)

Token file (magic ``JDT1``):

    offset  size  field
    0       4     magic "JDT1"
    4       4     u32 format version (1)
    8       4     u32 group count
    12      4     u32 group size G
    16      4     u32 dimension count D
    20      4     u32 token width in bits (16 or 32)
    24      8     u64 frame count
    32      8     f64 frame_rate_hz (finite, > 0)
    40      2*D   u16 per-dimension radices
    ...           frames x groups unsigned tokens of the declared width

The token width is that of the scheme's token dtype: 16 when every group
vocabulary fits in 2**16, else 32.  ``RadixScheme`` rejects a radix above
65535 or a vocabulary above 2**32, which the format cannot hold.

A reader takes the whole file in one read into an uninitialised uint8
buffer of the size ``fstat`` reports, so it pays no zero-fill that the read
would overwrite; a feature payload is returned as a view of that buffer.
A file that ends before that size is malformed; a pipe, whose size reads
as 0, is read to its end into the same buffer, grown in place by an eighth
at a time.  Memory stays bounded by the file's size.
"""

from __future__ import annotations

import os
import stat
import struct

import numpy as np

from .errors import FormatError, ValidationError
from .radix import RadixScheme, TokenStream

__all__ = [
    "FEATURE_MAGIC",
    "TOKEN_MAGIC",
    "FORMAT_VERSION",
    "read_feature_file",
    "write_feature_file",
    "read_token_file",
    "write_token_file",
    "write_mask_file",
]

FEATURE_MAGIC = b"JDF1"
TOKEN_MAGIC = b"JDT1"
FORMAT_VERSION = 1

_FEATURE_HEADER = struct.Struct("<4sIIQd")
_TOKEN_HEADER = struct.Struct("<4sIIIIIQd")
_TOKEN_DTYPES = {16: "<u2", 32: "<u4"}  # token width in bits -> dtype, narrowest first


def _check_rate(rate, error: type[ValueError], where: str = "") -> float:
    """``rate`` as a float if it is a usable frame_rate_hz (finite, > 0), else raise ``error``."""
    rate = float(rate)
    if not (np.isfinite(rate) and rate > 0):
        raise error(f"{where}frame rate {rate!r} is not positive and finite")
    return rate


def _read_header(path, header: struct.Struct, magic: bytes) -> tuple[np.ndarray, tuple]:
    """Read a container and check its fixed header: size, magic, version, rate.

    Returns the raw bytes, read once into one writable uint8 buffer, and the
    header fields after magic and version.
    """
    with open(path, "rb") as f:
        raw = np.empty(os.fstat(f.fileno()).st_size, dtype=np.uint8)
        filled = f.readinto(raw)
        if filled != raw.size:
            raise FormatError(f"{path}: file shrank while it was read")
        while f.peek(1):  # more than fstat said, as from a pipe: grow the buffer in place
            if filled == raw.size:  # no view of raw is alive here
                raw.resize(filled + max(filled // 8, 1 << 16), refcheck=False)
            filled += f.readinto(raw[filled:])
    raw.resize(filled, refcheck=False)
    if raw.size < header.size:
        raise FormatError(f"{path}: truncated header")
    found, version, *fields = header.unpack_from(raw)
    if found != magic:
        raise FormatError(f"{path}: bad magic {found!r}, expected {magic!r}")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    _check_rate(fields[-1], FormatError, f"{path}: ")  # both layouts end in the rate
    return raw, tuple(fields)


def _open_in_place(path, flags: int) -> int:
    """``open`` opener for mode ``"wb"`` that keeps an existing file's contents."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write(path, *parts) -> None:
    """Write header bytes and C-contiguous arrays to ``path`` without joining them.

    An existing regular file is written over in place and then cut to the
    bytes written.  Emptying it first, as plain mode ``"wb"`` does, makes
    ext4 (``auto_da_alloc``) start the file's writeback as it is closed, in
    the writer's time: a 100 kB rewrite took 0.5-10 ms that way against a
    steady 0.2 ms in place.  A write that fails cuts the file to zero bytes,
    so no old bytes survive behind new ones.
    """
    with open(path, "wb", buffering=0, opener=_open_in_place) as f:
        regular = stat.S_ISREG(os.fstat(f.fileno()).st_mode)
        try:
            for part in parts:
                view = np.frombuffer(part, dtype=np.uint8)
                while view.size:  # a raw write may take only part of the buffer
                    view = view[f.write(view):]
        except BaseException:
            if regular:
                f.truncate(0)
            raise
        if regular:
            f.truncate()


def write_feature_file(path, data: np.ndarray, frame_rate_hz: float) -> None:
    """Write a [C, T] float array as a feature file."""
    data = np.ascontiguousarray(data, dtype="<f4")
    if data.ndim != 2:
        raise ValueError(f"expected a [C, T] array, got shape {data.shape}")
    rate = _check_rate(frame_rate_hz, ValidationError)
    header = _FEATURE_HEADER.pack(
        FEATURE_MAGIC, FORMAT_VERSION, data.shape[0], data.shape[1], rate
    )
    _write(path, header, data)


def read_feature_file(path) -> tuple[np.ndarray, float]:
    """Read a feature file back to ([C, T] float32 array, frame_rate_hz)."""
    raw, header = _read_header(path, _FEATURE_HEADER, FEATURE_MAGIC)
    channels, frames, frame_rate = header
    expected = _FEATURE_HEADER.size + 4 * channels * frames
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload size {len(raw) - _FEATURE_HEADER.size} does not match "
            f"header ({channels} x {frames} float32)"
        )
    if 4 * frames > np.iinfo(np.intp).max:  # numpy cannot shape even 0 channels of it
        raise FormatError(f"{path}: frame count {frames} exceeds the addressable size")
    payload = np.frombuffer(raw, dtype="<f4", offset=_FEATURE_HEADER.size)
    return payload.reshape(channels, frames), frame_rate


def write_token_file(path, stream: TokenStream) -> None:
    """Write a token stream in its scheme's token width, u16 or u32."""
    scheme = stream.scheme
    width = scheme.token_dtype.itemsize * 8
    rate = _check_rate(stream.frame_rate_hz, ValidationError)
    header = _TOKEN_HEADER.pack(
        TOKEN_MAGIC,
        FORMAT_VERSION,
        scheme.group_count,
        scheme.group_size,
        scheme.dim,
        width,
        stream.frame_count,
        rate,
    )
    radices = np.array(scheme.radices, dtype="<u2")
    # the stream's own array on a little-endian machine, unless a caller gave a strided one
    tokens = np.ascontiguousarray(stream.tokens, dtype=_TOKEN_DTYPES[width])
    _write(path, header, radices, tokens)


def read_token_file(path) -> TokenStream:
    """Read a token file and revalidate every token against its vocabulary."""
    raw, header = _read_header(path, _TOKEN_HEADER, TOKEN_MAGIC)
    group_count, group_size, dim, width, frames, frame_rate = header
    if width not in _TOKEN_DTYPES:
        raise FormatError(f"{path}: invalid token width {width}")
    offset = _TOKEN_HEADER.size
    if len(raw) < offset + 2 * dim:
        raise FormatError(f"{path}: truncated radix table")
    radices = np.frombuffer(raw, dtype="<u2", count=dim, offset=offset)
    offset += 2 * dim
    try:
        scheme = RadixScheme(radices=radices, group_size=group_size)
    except ValueError as exc:
        raise FormatError(f"{path}: invalid radix table ({exc})") from exc
    if scheme.group_count != group_count:
        raise FormatError(
            f"{path}: header group count {group_count} does not match "
            f"{scheme.group_count} derived from {dim} dimensions"
        )
    expected = offset + (width // 8) * frames * group_count
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload size {len(raw) - offset} does not match header "
            f"({frames} x {group_count} x u{width})"
        )
    tokens = np.frombuffer(raw, dtype=_TOKEN_DTYPES[width], offset=offset)
    # TokenStream checks each token's vocabulary and keeps this array; it
    # narrows a u32 payload of a scheme whose tokens fit in u16
    return TokenStream(tokens.reshape(frames, group_count), scheme, frame_rate)


def write_mask_file(path, mask: np.ndarray) -> None:
    """Write a {0,1} mask as one byte per frame."""
    mask = np.asarray(mask)
    if not ((mask == 0) | (mask == 1)).all():
        raise ValidationError("mask must contain only 0 and 1")
    _write(path, np.ascontiguousarray(mask, dtype=np.uint8))
