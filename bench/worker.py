"""Benchmark worker: repeats whole rounds of operations against the program.

Run by ``run.py`` in a fresh interpreter, so that its peak resident memory
is the program's peak for the workload and not the input generator's:

    python3 bench/worker.py SPEC.json

The spec names the operations of one round (see ``workloads.py``), a warm-up
list run once before timing, the run length and whether to trace.  Rounds
start while a typical round still ends within the run length; each operation
is timed alone.  With tracing on, odd rounds run traced and even rounds
untraced, so one run gives the layer spans and the tracing overhead.  Results go to the spec's
``result`` path as JSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from jdtok import cli, daam, ema, losses, masking
from tracer import Tracer


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_cli(op: dict) -> dict:
    out = op["out"]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            rc = cli.main(op["argv"])
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code
        except Exception:  # an escaped exception is a failed operation
            rc = traceback.format_exc()
        dt = time.perf_counter() - start
    rec = {"dt": dt, "rc": rc, "stdout": stdout.getvalue()}
    if out is not None:
        rec["exists"] = os.path.exists(out)
        if rec["exists"]:
            rec["sha"] = file_digest(out)
            if op.get("expect_rc", 0) != 0:  # leave no stale output for the next round
                os.remove(out)
    return rec


def train_steps(op: dict, save: bool) -> dict:
    """A training-step loop over the gate, masks, masked MSE and EMA target.

    Each step draws a batch of block masks, gates every row's features by the
    density gate of their projection, scores the masked frames against the
    targets, and descends the exact gradient of that loss with respect to the
    gate parameters and the projection, then moves the EMA target.
    """
    inp = np.load(op["inputs"])
    x, target = inp["x"], inp["target"]
    batch, channels, frames = x.shape
    alpha, tau, lr = op["alpha"], op["tau"], op["lr"]
    w = inp["w_proj"].copy()
    online = {"mean_offsets": inp["offsets"].copy(), "log_scales": inp["log_scales"].copy()}
    ema_target = {k: v.copy() for k, v in online.items()}
    cols = np.asarray(op["grad_cols"])
    keep: dict[str, np.ndarray] = {}
    records = []
    for step in range(op["steps"]):
        start = time.perf_counter()
        cfg = masking.MaskConfig(mask_ratio=op["ratio"], span_min=op["span_min"],
                                 seed=op["mask_seed"] + step)
        masks = masking.generate_block_masks(batch, frames, cfg)
        params = daam.DaamParams(online["mean_offsets"], online["log_scales"], alpha)
        g_off = np.zeros_like(online["mean_offsets"])
        g_log = np.zeros_like(online["log_scales"])
        g_w = np.zeros_like(w)
        preds = np.empty_like(x)
        row_loss = np.empty(batch)
        saved = {k: [] for k in ("proj", "gate", "d_off", "d_log", "d_in_cols")}
        for b in range(batch):
            proj = w @ x[b]
            gate = daam.daam_gate(proj, params)
            d_off, d_log, d_in = daam.daam_gate_grad(proj, params)
            preds[b] = daam.gattn_modulate(x[b], proj, params)
            row_loss[b] = losses.jepa_masked_mse(preds[b], target[b], masks[b])
            scored = masks[b] == 0
            d_gate = np.where(scored, np.sum((preds[b] - target[b]) * x[b], axis=0), 0.0)
            d_gate *= 2.0 * alpha / (np.count_nonzero(scored) * channels)
            g_off += d_off @ d_gate
            g_log += d_log @ d_gate
            g_w += x[b] @ (d_gate @ d_in)
            if save and step in op["check_steps"]:
                for k, v in zip(saved, (proj, gate, d_off, d_log, d_in[:, cols])):
                    saved[k].append(v)
        before = online
        online = {"mean_offsets": online["mean_offsets"] - lr * g_off,
                  "log_scales": online["log_scales"] - lr * g_log}
        w = w - lr * g_w
        moved = ema.ema_update(ema_target, online, tau)
        spread, warn = ema.collapse_std(preds)
        records.append({"dt": time.perf_counter() - start, "loss": float(row_loss.mean()),
                        "collapse": spread})
        if save and step in op["check_steps"]:
            p = f"s{step}_"
            keep.update({p + k: np.stack(v) for k, v in saved.items()})
            keep.update({p + "masks": masks, p + "preds": preds, p + "row_loss": row_loss,
                         p + "offsets": before["mean_offsets"], p + "log_scales": before["log_scales"],
                         p + "collapse": np.array([spread, float(warn)])})
            for name in online:
                keep[p + "ema_before_" + name] = ema_target[name]
                keep[p + "online_" + name] = online[name]
                keep[p + "ema_after_" + name] = moved[name]
        ema_target = moved
    if save:
        np.savez(op["artifacts"], **keep)
    return {"steps": records}


def run_op(op: dict, save: bool) -> dict:
    return run_cli(op) if op["kind"] == "cli" else train_steps(op, save)


def main() -> int:
    with open(sys.argv[1]) as f:
        spec = json.load(f)
    tracer = Tracer() if spec["trace"] else None
    for op in spec["warmup"]:
        run_op(op, save=False)
    rounds = []
    began = time.perf_counter()
    # Start a round only if a typical round still ends within the run length.
    # A traced run needs round 0 (warm, saves the check artifacts), one traced
    # round and one more untraced round to compare it with.
    while len(rounds) < (3 if tracer else 1) or time.perf_counter() - began + statistics.median(
        r["wall"] for r in rounds
    ) <= spec["seconds"]:
        index = len(rounds)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install(index)
        start = time.perf_counter()
        try:
            ops = [run_op(op, save=index == 0) for op in spec["round"]]
        finally:
            if traced:
                tracer.uninstall()
        rounds.append({"wall": time.perf_counter() - start, "traced": traced, "ops": ops})
    result = {
        "rounds": rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": tracer.spans if tracer else [],
        "counts": tracer.counts if tracer else {},
    }
    with open(spec["result"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
