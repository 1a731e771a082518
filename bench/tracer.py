"""Spans around the program's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function with a timing wrapper under
every name that binds it in the ``jdtok`` modules.  The CLI binds kernels by
name at import (``from .fsq import fsq_quantize``), so wrapping only the
defining module would miss the calls the commands make.  Classes are wrapped
only at their call sites, so that type checks elsewhere still see the class.

Spans are kept in memory as ``[name, start, end, parent, round]`` and written
out by the worker when the run ends; ``summarize`` turns them into per-round
layer times.  Work counts are derived from argument and result sizes, which
repeat exactly from round to round.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from checks import zero_runs

MODULES = ("cli", "config", "daam", "ema", "fileio", "fsq", "losses", "masking", "radix")
STFT_HOPS = (512, 256, 128, 64, 32)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.round = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # (module, attribute, span name, work counter, call-site modules or None).
    # Each span is named after the per-layer metric that sums its time.
    def _targets(self):
        add = self._add
        return [
            ("cli", "main", "cli.main", lambda a, r: add("cli.calls", 1), None),
            ("config", "load_config", "config.load_s", lambda a, r: add("config.loads", 1), None),
            ("fileio", "read_feature_file", "fileio.read_feature_s", self._bytes("fileio.bytes_read"), None),
            ("fileio", "write_feature_file", "fileio.write_feature_s", self._bytes("fileio.bytes_written"), None),
            ("fileio", "read_token_file", "fileio.read_token_s", self._bytes("fileio.bytes_read"), None),
            ("fileio", "write_token_file", "fileio.write_token_s", self._bytes("fileio.bytes_written"), None),
            ("fileio", "write_mask_file", "fileio.write_mask_s", self._bytes("fileio.bytes_written"), None),
            ("fsq", "fsq_quantize", "fsq.quantize_s", lambda a, r: add("fsq.values", np.size(a[0])), None),
            ("fsq", "fsq_dequantize", "fsq.dequantize_s", lambda a, r: add("fsq.values", np.size(a[0])), None),
            ("radix", "build_scheme", "radix.build_scheme_s", None, None),
            ("radix", "pack_frames", "radix.pack_s", lambda a, r: add("radix.tokens", np.size(r)), None),
            ("radix", "unpack_frames", "radix.unpack_s", lambda a, r: add("radix.tokens", np.size(a[0])), None),
            ("radix", "TokenStream", "radix.tokenstream_s", None, ("cli", "fileio")),
            ("losses", "l1_loss", "losses.l1_s", None, None),
            ("losses", "multi_res_stft", "losses.multi_res_stft_s", self._stft_frames, None),
            ("losses", "jepa_masked_mse", "losses.jepa_mse_s", None, None),
            ("daam", "daam_gate", "daam.gate_s", lambda a, r: add("daam.frames", np.size(a[0])), None),
            ("daam", "daam_gate_grad", "daam.grad_s", lambda a, r: add("daam.frames", np.size(a[0])), None),
            ("masking", "generate_block_mask", "masking.mask_s", self._mask_counts, None),
            ("ema", "ema_update", "ema.update_s", None, None),
            ("ema", "collapse_std", "ema.collapse_s", None, None),
        ]

    def _add(self, key: str, n: float) -> None:
        self.counts[self.round][key] += n

    def _bytes(self, key: str):
        return lambda a, r: self._add(key, os.path.getsize(a[0]))

    def _stft_frames(self, a, r) -> None:
        # centred frames per resolution: samples // hop + 1, for both signals
        self._add("losses.stft_frames", 2 * sum(np.size(a[1]) // h + 1 for h in STFT_HOPS))

    def _mask_counts(self, a, r) -> None:
        self._add("masking.frames", np.size(r))
        self._add("masking.zero_runs", zero_runs(r).size)

    def _wrap(self, name: str, fn, count, peak: bool):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round]
            stack.append(len(spans))
            spans.append(span)
            if peak:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if peak:
                    mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                    peaks = self.counts[self.round]
                    peaks["daam.grad_peak_mb"] = max(peaks["daam.grad_peak_mb"], mb)
            if count is not None:
                count(args, result)
            return result

        return traced

    def install(self, round_index: int) -> None:
        """Wrap every target for the round ``round_index``."""
        self.round = round_index
        mods = {m: importlib.import_module(f"jdtok.{m}") for m in MODULES}
        mods["jdtok"] = importlib.import_module("jdtok")
        for mod, attr, name, count, sites in self._targets():
            original = getattr(mods[mod], attr)
            wrapper = self._wrap(name, original, count, peak=name == "daam.grad_s")
            for site in sites or mods:
                for key, value in list(vars(mods[site]).items()):
                    if value is original:
                        self._undo.append((mods[site], key, original))
                        setattr(mods[site], key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._undo):
            setattr(module, key, original)
        self._undo.clear()


def summarize(spans: list[list], counts: dict) -> dict[str, float]:
    """Median over traced rounds of each layer metric's time or work per round.

    ``cli.self_s`` is each command's span minus the spans it called directly.
    """
    per_round: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    child_time: dict[int, float] = defaultdict(float)
    for _name, start, end, parent, _round in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, _parent, r) in enumerate(spans):
        if name == "cli.main":
            per_round[r]["cli.self_s"] += end - start - child_time[i]
        else:
            per_round[r][name] += end - start
    for r, work in counts.items():
        per_round[int(r)].update(work)
    names = {name for values in per_round.values() for name in values}
    return {name: float(np.median([v[name] for v in per_round.values()])) for name in names}
