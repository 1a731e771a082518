"""Output checks for the benchmark, computed apart from the program.

Everything here re-derives the expected result from the inputs with its own
code: the container layouts are decoded with ``struct`` from the documented
byte offsets, FSQ indices come from the closed-form round-to-lattice, tokens
from a dot product with mixed-radix place values, spectra from explicit
framing with a periodic Hann window, and the gate from the mixture formula.
The one deliberate use of the program is the gradient check, which compares
``daam_gate_grad`` against central differences of ``daam_gate``, as the
method's own acceptance criterion does.

Every check raises :class:`CheckError` on the first mismatch.
"""

from __future__ import annotations

import math
import struct

import numpy as np

FEATURE_HEADER = struct.Struct("<4sIIQd")
TOKEN_HEADER = struct.Struct("<4sIIIIIQd")
STFT_SIZES = ((2048, 512), (1024, 256), (512, 128), (256, 64), (128, 32))
MAGNITUDE_FLOOR = 1e-7
PRINT_RTOL = 1e-5  # six significant digits, as the CLI prints them


class CheckError(AssertionError):
    """An output disagrees with the independently computed expectation."""


def _require(cond, message: str) -> None:
    if not cond:
        raise CheckError(message)


# --- containers ------------------------------------------------------------


def encode_feature_file(data: np.ndarray, rate: float) -> bytes:
    """Feature container bytes for a [C, T] array, from the documented layout."""
    data = np.asarray(data, dtype="<f4")
    header = FEATURE_HEADER.pack(b"JDF1", 1, data.shape[0], data.shape[1], float(rate))
    return header + np.ascontiguousarray(data).tobytes()


def decode_feature_file(raw: bytes) -> tuple[np.ndarray, float]:
    magic, version, channels, frames, rate = FEATURE_HEADER.unpack_from(raw)
    _require(magic == b"JDF1" and version == 1, f"bad feature header {magic!r} v{version}")
    _require(
        len(raw) == FEATURE_HEADER.size + 4 * channels * frames,
        f"feature payload is {len(raw) - FEATURE_HEADER.size} bytes for {channels}x{frames}",
    )
    data = np.frombuffer(raw, dtype="<f4", offset=FEATURE_HEADER.size)
    return data.reshape(channels, frames), rate


def encode_token_file(tokens: np.ndarray, radices, group_size: int, rate: float) -> bytes:
    """Token container bytes (16-bit tokens), from the documented layout."""
    tokens = np.asarray(tokens)
    header = TOKEN_HEADER.pack(
        b"JDT1", 1, tokens.shape[1], group_size, len(radices), 16, tokens.shape[0], rate
    )
    return header + np.asarray(radices, "<u2").tobytes() + tokens.astype("<u2").tobytes()


def decode_token_file(raw: bytes) -> dict:
    magic, version, groups, group_size, dim, width, frames, rate = TOKEN_HEADER.unpack_from(raw)
    _require(magic == b"JDT1" and version == 1, f"bad token header {magic!r} v{version}")
    _require(width in (16, 32), f"token width {width}")
    off = TOKEN_HEADER.size
    radices = np.frombuffer(raw, "<u2", count=dim, offset=off).astype(np.int64)
    off += 2 * dim
    _require(
        len(raw) == off + width // 8 * frames * groups,
        f"token payload is {len(raw) - off} bytes for {frames}x{groups}xu{width}",
    )
    dtype = "<u2" if width == 16 else "<u4"
    tokens = np.frombuffer(raw, dtype, offset=off).reshape(frames, groups).astype(np.int64)
    return {"groups": groups, "group_size": group_size, "dim": dim, "width": width,
            "frames": frames, "rate": rate, "radices": radices, "tokens": tokens}


# --- FSQ lattice and mixed-radix packing -------------------------------------


def fsq_indices(features: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Nearest-lattice indices of tanh(features); midpoints go to the lower index.

    Lattice point i of an L-level dimension is (2i - L + 1) / L, so v is
    closest to i = ceil((v L + L - 2) / 2), clipped to [0, L - 1].
    """
    v = np.tanh(np.asarray(features, dtype=np.float64))
    lv = np.asarray(levels, dtype=np.float64)[:, None]
    return np.clip(np.ceil((v * lv + lv - 2.0) / 2.0), 0, lv - 1).astype(np.int64)


def lattice_values(indices: np.ndarray, levels: np.ndarray) -> np.ndarray:
    lv = np.asarray(levels, dtype=np.float64)[:, None]
    return (2.0 * indices - lv + 1.0) / lv


def pack_tokens(indices: np.ndarray, radices, group_size: int) -> np.ndarray:
    """[T, G] tokens from [D, T] indices: digits dotted with their place values."""
    radices = list(radices)
    groups = -(-len(radices) // group_size)
    pad = groups * group_size - len(radices)
    digits = np.vstack([indices, np.zeros((pad, indices.shape[1]), np.int64)])
    padded = radices + [1] * pad
    tokens = np.empty((indices.shape[1], groups), dtype=np.int64)
    for g in range(groups):
        rs = padded[g * group_size : (g + 1) * group_size]
        place = [math.prod(rs[k + 1 :]) for k in range(group_size)]
        tokens[:, g] = np.asarray(place, np.int64) @ digits[g * group_size : (g + 1) * group_size]
    return tokens


def vocab_summary(radices, group_size: int) -> str:
    radices = list(radices)
    groups = -(-len(radices) // group_size)
    padded = radices + [1] * (groups * group_size - len(radices))
    products = [math.prod(padded[g * group_size : (g + 1) * group_size]) for g in range(groups)]
    runs: list[list[int]] = []
    for p in products:
        if runs and runs[-1][0] == p:
            runs[-1][1] += 1
        else:
            runs.append([p, 1])
    return ", ".join(f"{n} x {p}" for p, n in runs)


def _stdout_fields(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def _close(printed: float, expected: float, what: str, rtol: float = PRINT_RTOL) -> None:
    _require(
        abs(printed - expected) <= rtol * abs(expected) + 1e-12,
        f"{what}: printed {printed!r}, expected {expected!r}",
    )


def check_tokenize(stdout: str, token_bytes: bytes, features: np.ndarray, rate: float,
                   levels, group_size: int) -> None:
    """Token file and summary of ``jdtok tokenize`` on ``features`` [D, T]."""
    levels = np.asarray(levels, dtype=np.int64)
    dec = decode_token_file(token_bytes)
    d, t = features.shape
    groups = -(-d // group_size)
    _require((dec["dim"], dec["frames"], dec["groups"], dec["group_size"]) == (d, t, groups, group_size),
             f"token header {dec['dim']}x{dec['frames']}, {dec['groups']} groups of {dec['group_size']}")
    _require(np.array_equal(dec["radices"], levels), "radix table differs from the levels")
    _require(dec["rate"] == rate, f"token file rate {dec['rate']} != {rate}")
    expected = pack_tokens(fsq_indices(features, levels), levels.tolist(), group_size)
    bad = np.argwhere(dec["tokens"] != expected)
    _require(bad.size == 0, f"token mismatch at frame/group {bad[:1].tolist()}")
    f = _stdout_fields(stdout)
    _require(f.get("frames") == str(t), f"printed frames {f.get('frames')!r} != {t}")
    _close(float(f["frame rate"].split()[0]), rate, "frame rate")
    _close(float(f["tokens/sec"]), rate * groups, "tokens/sec")
    _require(f.get("per-group vocabulary") == vocab_summary(levels.tolist(), group_size),
             f"printed vocabulary {f.get('per-group vocabulary')!r}")


def check_detokenize(stdout: str, feature_bytes: bytes, features: np.ndarray, rate: float,
                     levels) -> None:
    """Lattice file of ``jdtok detokenize`` for a stream tokenized from ``features``."""
    levels = np.asarray(levels, dtype=np.int64)
    values, out_rate = decode_feature_file(feature_bytes)
    _require(values.shape == features.shape, f"lattice shape {values.shape} != {features.shape}")
    _require(out_rate == rate, f"lattice file rate {out_rate} != {rate}")
    v = values.astype(np.float64)
    lv = levels[:, None].astype(np.float64)
    idx = np.rint((v * lv + lv - 1.0) / 2.0)  # the lattice index each value claims to be
    claimed = lattice_values(idx, levels).astype(np.float32)
    on_lattice = (claimed == values) & (idx >= 0) & (idx <= lv - 1)
    bad = np.argwhere(~on_lattice)
    _require(bad.size == 0, f"value off the lattice at dim/frame {bad[:1].tolist()}")
    target = np.tanh(features.astype(np.float64))
    dist = np.abs(v - target)
    _require(bool(np.all(dist <= 1.0 / lv)), "a lattice value is farther than 1/L from tanh")
    nearest = lattice_values(fsq_indices(features, levels), levels)
    bad = np.argwhere(dist > np.abs(nearest - target))
    _require(bad.size == 0, f"value is not the nearest lattice point at {bad[:1].tolist()}")
    f = _stdout_fields(stdout)
    _require(f.get("frames") == str(features.shape[1]), f"printed frames {f.get('frames')!r}")
    _require(f.get("dimensions") == str(features.shape[0]), f"printed dimensions {f.get('dimensions')!r}")


def check_same_bytes(first: bytes, second: bytes, what: str) -> None:
    _require(first == second, f"{what}: outputs differ")


# --- scoring -----------------------------------------------------------------


def reflect_pad(x: np.ndarray, pad: int) -> np.ndarray:
    """Mirror ``pad`` samples at each end without repeating the edge sample."""
    return np.concatenate([x[pad:0:-1], x, x[-2 : -pad - 2 : -1]])


def stft_mag(x: np.ndarray, fft_size: int, hop: int) -> np.ndarray:
    """[frames, bins] magnitudes: centred frames, periodic Hann window."""
    padded = reflect_pad(x, fft_size // 2)
    count = (padded.size - fft_size) // hop + 1
    starts = np.arange(count)[:, None] * hop
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(fft_size) / fft_size)
    return np.abs(np.fft.rfft(padded[starts + np.arange(fft_size)] * window, axis=1))


def score_reference(ref: np.ndarray, hyp: np.ndarray, lambda_stft: float = 2.0) -> dict:
    ref = np.asarray(ref, dtype=np.float64)
    hyp = np.asarray(hyp, dtype=np.float64)
    per_res = []
    for fft_size, hop in STFT_SIZES:
        s_ref, s_hyp = stft_mag(ref, fft_size, hop), stft_mag(hyp, fft_size, hop)
        sc = math.sqrt(np.sum((s_hyp - s_ref) ** 2) / np.sum(s_ref**2))
        mag = float(np.mean(np.abs(np.log(np.maximum(s_hyp, MAGNITUDE_FLOOR))
                                   - np.log(np.maximum(s_ref, MAGNITUDE_FLOOR)))))
        per_res.append((sc, mag))
    l1 = float(np.mean(np.abs(hyp - ref)))
    total = sum(sc + mag for sc, mag in per_res)
    return {"l1": l1, "per_res": per_res, "total": total, "weighted": l1 + lambda_stft * total}


def parse_score(stdout: str) -> dict:
    lines = stdout.splitlines()
    _require(len(lines) == 3 + len(STFT_SIZES), f"score printed {len(lines)} lines")
    per_res = []
    for (fft_size, hop), line in zip(STFT_SIZES, lines[1:-2]):
        head, _, rest = line.partition(": ")
        _require(head == f"stft fft={fft_size} hop={hop}", f"unexpected line {line!r}")
        sc, mag = (float(part.split("=")[1]) for part in rest.split())
        per_res.append((sc, mag))
    return {"l1": float(lines[0].split(": ")[1]), "per_res": per_res,
            "total": float(lines[-2].split(": ")[1]), "weighted": float(lines[-1].split(": ")[1])}


def check_score(stdout: str, ref: np.ndarray, hyp: np.ndarray, scale: float | None) -> None:
    """``jdtok score`` output for a pair; ``scale`` is a when hyp = a * ref."""
    got = parse_score(stdout)
    if scale is not None:
        ref64 = np.asarray(ref, dtype=np.float64)
        _close(got["l1"], abs(scale - 1.0) * float(np.mean(np.abs(ref64))), "l1 of a scaled pair")
        for (sc, mag), (fft_size, _) in zip(got["per_res"], STFT_SIZES):
            _close(sc, abs(scale - 1.0), f"sc at fft {fft_size}")
            _close(mag, abs(math.log(scale)), f"log_mag at fft {fft_size}")
        return
    want = score_reference(ref, hyp)
    _close(got["l1"], want["l1"], "l1")
    for (sc, mag), (wsc, wmag), (fft_size, _) in zip(got["per_res"], want["per_res"], STFT_SIZES):
        _close(sc, wsc, f"sc at fft {fft_size}")
        _close(mag, wmag, f"log_mag at fft {fft_size}")
    _close(got["total"], want["total"], "stft total")
    _close(got["weighted"], want["weighted"], "weighted")


# --- masks -------------------------------------------------------------------


def zero_runs(mask: np.ndarray) -> np.ndarray:
    """Lengths of the maximal runs of zeros in a 1-D mask."""
    z = np.concatenate([[0], (np.asarray(mask) == 0).astype(np.int8), [0]])
    edges = np.flatnonzero(np.diff(z))
    return edges[1::2] - edges[::2]


def check_mask(mask: np.ndarray, frames: int, ratio: float, span_min: int, span_max: int,
               compat: bool) -> None:
    """Block-mask properties; ``compat`` is the legacy overlap-counting mode."""
    mask = np.asarray(mask)
    _require(mask.shape == (frames,), f"mask shape {mask.shape} != ({frames},)")
    _require(bool(np.all((mask == 0) | (mask == 1))), "mask holds values other than 0 and 1")
    masked = int(np.count_nonzero(mask == 0))
    target = math.floor(ratio * frames)
    if compat:
        _require(0 < masked <= target + span_max - 1,
                 f"legacy mask covers {masked}, outside (0, {target + span_max - 1}]")
    else:
        _require(target <= masked <= target + span_min - 1,
                 f"mask covers {masked}, outside [{target}, {target + span_min - 1}]")
    runs = zero_runs(mask)
    _require(runs.size == 0 or int(runs.min()) >= span_min,
             f"a zero run of {int(runs.min()) if runs.size else 0} is shorter than {span_min}")


def check_mask_cli(stdout: str, mask_bytes: bytes, frames: int, ratio: float, span_min: int,
                   span_max: int, compat: bool) -> None:
    mask = np.frombuffer(mask_bytes, dtype=np.uint8)
    check_mask(mask, frames, ratio, span_min, span_max, compat)
    f = _stdout_fields(stdout)
    masked = int(np.count_nonzero(mask == 0))
    _require(f.get("frames") == str(frames), f"printed frames {f.get('frames')!r}")
    _require(f.get("masked") == str(masked), f"printed masked {f.get('masked')!r} != {masked}")
    _require(f.get("masked fraction") == f"{masked / frames:.4f}",
             f"printed fraction {f.get('masked fraction')!r}")


# --- pretraining step --------------------------------------------------------


def gate_reference(x: np.ndarray, offsets, log_scales, eps: float = 1e-3,
                   var_floor: float = 1e-6) -> np.ndarray:
    """G_t = mean_k N(z_kt) / s_k with z standardized per component."""
    x = np.asarray(x, dtype=np.float64)
    s = np.log1p(np.exp(np.asarray(log_scales, dtype=np.float64))) + eps
    mu = x.mean()
    sigma = math.sqrt(max(float(np.mean((x - mu) ** 2)), var_floor))
    z = (x[None, :] - mu - np.asarray(offsets)[:, None]) / (sigma * s[:, None] + eps)
    return np.mean(np.exp(-0.5 * z * z) / (s[:, None] * math.sqrt(2.0 * math.pi)), axis=0)


def check_gate(gate: np.ndarray, x, offsets, log_scales) -> None:
    want = gate_reference(x, offsets, log_scales)
    _require(np.allclose(gate, want, rtol=1e-10, atol=0.0), "gate differs from the mixture density")


def _rel_err(analytic, numeric) -> float:
    # the acceptance criterion's form: |a - o| / max(|o|, 1e-4)
    return float(np.max(np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-4)))


def check_gate_gradients(gate_fn, params_cls, x, offsets, log_scales, alpha, d_offsets,
                         d_log_scales, d_input_cols, cols, step: float = 1e-5,
                         tol: float = 1e-4) -> None:
    """Gradient blocks against central differences of ``gate_fn``.

    ``d_input_cols[:, j]`` is the analytic dG/dx at input position ``cols[j]``.
    """
    def gate(off, log, xx):
        return gate_fn(xx, params_cls(off, log, alpha))

    offsets = np.asarray(offsets, dtype=np.float64)
    log_scales = np.asarray(log_scales, dtype=np.float64)
    for k in range(offsets.size):
        e = np.zeros_like(offsets)
        e[k] = step
        fd = (gate(offsets + e, log_scales, x) - gate(offsets - e, log_scales, x)) / (2 * step)
        err = _rel_err(d_offsets[k], fd)
        _require(err < tol, f"d_offsets[{k}] differs from finite differences (rel {err:.2e})")
        fd = (gate(offsets, log_scales + e, x) - gate(offsets, log_scales - e, x)) / (2 * step)
        err = _rel_err(d_log_scales[k], fd)
        _require(err < tol, f"d_log_scales[{k}] differs from finite differences (rel {err:.2e})")
    for j, s in enumerate(cols):
        e = np.zeros_like(x)
        e[s] = step
        fd = (gate(offsets, log_scales, x + e) - gate(offsets, log_scales, x - e)) / (2 * step)
        err = _rel_err(d_input_cols[:, j], fd)
        _require(err < tol, f"d_input[:, {s}] differs from finite differences (rel {err:.2e})")


def check_modulated(y: np.ndarray, features: np.ndarray, gate: np.ndarray, alpha: float) -> None:
    want = features * (1.0 + alpha * gate)
    _require(np.allclose(y, want, rtol=1e-12, atol=0.0), "gated features differ from x * (1 + a G)")


def check_masked_mse(value: float, pred: np.ndarray, target: np.ndarray, mask: np.ndarray) -> None:
    keep = np.asarray(mask) == 0
    diff = (pred - target)[:, keep]
    want = float(np.einsum("ct,ct->", diff, diff)) / diff.size
    _require(math.isclose(value, want, rel_tol=1e-12), f"masked mse {value!r} != {want!r}")


def check_ema(result: dict, target: dict, online: dict, tau: float) -> None:
    _require(set(result) == set(target) == set(online), "EMA parameter names differ")
    for name in target:
        want = np.asarray(online[name]) + tau * (np.asarray(target[name]) - np.asarray(online[name]))
        _require(np.allclose(result[name], want, rtol=1e-12, atol=1e-15),
                 f"EMA of {name!r} differs from tau * target + (1 - tau) * online")


def check_collapse(value: float, warn: bool, pred: np.ndarray, threshold: float = 0.01) -> None:
    per_channel = pred.transpose(1, 0, 2).reshape(pred.shape[1], -1)
    centred = per_channel - per_channel.mean(axis=1, keepdims=True)
    want = float(np.mean(np.sqrt(np.mean(centred * centred, axis=1))))
    _require(math.isclose(value, want, rel_tol=1e-12), f"collapse std {value!r} != {want!r}")
    _require(bool(warn) == (want < threshold), "collapse warning flag is wrong")
