"""jdtok benchmark: one workload, seeded inputs, checked outputs, one JSON line.

Run from the repository root:

    python3 bench/run.py --workload corpus_long --seed 1 --seconds 25 --trace 0

Workloads: corpus_long, corpus_clips, score, pretrain, or all four in turn
(see README.md).  The inputs are generated from ``--seed`` under
``.bench_work/`` and removed at the end.  A worker process (``worker.py``)
runs whole rounds of operations while a typical round still ends within
``--seconds``; this process then checks every output against
its own computations (``checks.py``) and prints, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they
are the per-layer ones from spans around the program's public functions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import workloads
from tracer import summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
NPROC = len(os.sched_getaffinity(0))
THREAD_CAPS = {v: str(NPROC) for v in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}

SETUP_RUNS = 5  # before the worker, and as many again after it
WORKER_TIMEOUT_S = 150
INFO_STDOUT = (  # configs/default.cfg: 24000 / 9600 Hz frames, 19 groups of 4^7
    "frame rate: 2.5 Hz\n"
    "groups per frame: 19 (group size 7, pad dims 5)\n"
    "tokens/sec: 47.5\n"
    "per-token vocabulary: 16384\n"
    "bits/sec: 665\n"
    "no-packing baseline: 320 tokens/sec (128 dims)\n"
)
RATE_CATS = {"tokenize_frames_per_s": "tokenize", "detokenize_frames_per_s": "detokenize",
             "score_audio_s_per_s": "score", "mask_frames_per_s": "mask"}


def declared_units(kind: str) -> dict[str, str]:
    """Metric names and units of ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def child_env() -> dict:
    """Environment of the measured interpreters: the package on the path, pools capped."""
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **THREAD_CAPS)


def measure_setup(warm_up: bool) -> tuple[list[float], bool]:
    """Wall times of fresh ``python -m jdtok info`` runs, and whether each printed right."""
    argv = [sys.executable, "-m", "jdtok", "info", "--config", workloads.DEFAULT_CONFIG]
    times, ok = [], True
    for i in range(SETUP_RUNS + warm_up):
        start = time.perf_counter()
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, capture_output=True, text=True)
        if i or not warm_up:  # the warm-up writes the bytecode cache
            times.append(time.perf_counter() - start)
        ok = ok and proc.returncode == 0 and proc.stdout == INFO_STDOUT
    return times, ok


def outcome_ok(op: dict, rec: dict) -> bool:
    """Exit code and presence of the output file are what the operation promises."""
    if op["kind"] == "train":
        return True
    expect = op.get("expect_rc", 0)
    return rec["rc"] == expect and (op["out"] is None or rec["exists"] == (expect == 0))


def check_op(op: dict, stdout: str) -> None:
    c = op["check"]
    kind = c["type"]
    if kind in ("tokenize", "detokenize"):
        with open(c["features"], "rb") as f:
            features, rate = checks.decode_feature_file(f.read())
        with open(op["out"], "rb") as f:
            out = f.read()
        if kind == "tokenize":
            checks.check_tokenize(stdout, out, features, rate, workloads.LEVELS,
                                  workloads.GROUP_SIZE)
        else:
            checks.check_detokenize(stdout, out, features, rate, workloads.LEVELS)
    elif kind == "same_bytes":
        with open(c["other"], "rb") as a, open(op["out"], "rb") as b:
            checks.check_same_bytes(a.read(), b.read(), "re-tokenized lattice file")
    elif kind == "score":
        waves = []
        for key in ("ref", "hyp"):
            with open(c[key], "rb") as f:
                waves.append(checks.decode_feature_file(f.read())[0][0])
        checks.check_score(stdout, waves[0], waves[1], c["scale"])
    elif kind == "mask":
        with open(op["out"], "rb") as f:
            checks.check_mask_cli(stdout, f.read(), c["frames"], c["ratio"], c["span_min"],
                                  c["span_max"], c["compat"])
    elif kind == "train":
        check_train(op)


def check_train(op: dict) -> None:
    from jdtok.daam import DaamParams, daam_gate

    inp = np.load(op["inputs"])
    art = np.load(op["artifacts"])
    x, target = inp["x"], inp["target"]
    frames = x.shape[2]
    for step in op["check_steps"]:
        a = {k[len(f"s{step}_"):]: art[k] for k in art.files if k.startswith(f"s{step}_")}
        for b in range(x.shape[0]):
            checks.check_mask(a["masks"][b], frames, op["ratio"], op["span_min"],
                              max(op["span_min"], frames // 4), compat=False)
            checks.check_gate(a["gate"][b], a["proj"][b], a["offsets"], a["log_scales"])
            checks.check_gate_gradients(daam_gate, DaamParams, a["proj"][b], a["offsets"],
                                        a["log_scales"], op["alpha"], a["d_off"][b],
                                        a["d_log"][b], a["d_in_cols"][b], op["grad_cols"])
            checks.check_modulated(a["preds"][b], x[b], a["gate"][b], op["alpha"])
            checks.check_masked_mse(float(a["row_loss"][b]), a["preds"][b], target[b],
                                    a["masks"][b])
        names = ("mean_offsets", "log_scales")
        checks.check_ema({n: a["ema_after_" + n] for n in names},
                         {n: a["ema_before_" + n] for n in names},
                         {n: a["online_" + n] for n in names}, op["tau"])
        checks.check_collapse(float(a["collapse"][0]), bool(a["collapse"][1]), a["preds"])


def verify(round_ops: list[dict], rounds: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every operation of every round."""
    attempted = failed = 0
    problems: list[str] = []
    for i, op in enumerate(round_ops):
        recs = [r["ops"][i] for r in rounds]
        if op["kind"] == "train":
            attempted += sum(len(rec["steps"]) for rec in recs)
            outputs = {json.dumps([(s["loss"], s["collapse"]) for s in rec["steps"]]) for rec in recs}
        else:
            attempted += len(recs)
            bad = [rec for rec in recs if not outcome_ok(op, rec)]
            if bad and not failed:
                print(f"failed: {' '.join(op['argv'])} -> exit {bad[0]['rc']}", file=sys.stderr)
            failed += len(bad)
            recs = [rec for rec in recs if outcome_ok(op, rec)]
            outputs = {(rec["stdout"], rec.get("sha")) for rec in recs}
        if len(outputs) > 1:
            problems.append(f"{' '.join(op.get('argv', [op['cat']]))}: output differs between rounds")
        if not recs or op["check"]["type"] == "rejected":
            continue
        try:
            check_op(op, recs[-1].get("stdout", ""))
        except checks.CheckError as exc:
            problems.append(f"{' '.join(op.get('argv', [op['cat']]))}: {exc}")
    return attempted, failed, problems


def end_to_end(round_ops: list[dict], rounds: list[dict]) -> dict[str, float]:
    """Rates are the work completed per second of operation time over the run."""
    out = {}
    for metric, cat in RATE_CATS.items():
        done = [(op["work"], rec["dt"]) for r in rounds for op, rec in zip(round_ops, r["ops"])
                if op["cat"] == cat and outcome_ok(op, rec)]
        out[metric] = sum(w for w, _ in done) / sum(t for _, t in done)
    steps = [s["dt"] for r in rounds for op, rec in zip(round_ops, r["ops"])
             if op["kind"] == "train" for s in rec["steps"]]
    out["train_step_s"] = statistics.median(steps)
    return out


def environment(args, workload: str, rounds) -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "nproc": NPROC,
            "thread_caps": THREAD_CAPS, "machine": platform.machine(),
            "workload": workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": len(rounds)}


def run_workload(args, workload: str) -> int:
    """Measure and check one workload; print the environment and the result lines."""
    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        round_ops, warmup = workloads.build(workload, workdir, args.seed)
        setup_times, setup_ok = measure_setup(warm_up=True) if not args.trace else ([], True)
        spec_path = os.path.join(workdir, "spec.json")
        result_path = os.path.join(workdir, "result.json")
        with open(spec_path, "w") as f:
            json.dump({"round": round_ops, "warmup": warmup, "seconds": args.seconds,
                       "trace": args.trace, "result": result_path}, f)
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path],
                              env=child_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        if not args.trace:
            more, more_ok = measure_setup(warm_up=False)
            setup_times, setup_ok = setup_times + more, setup_ok and more_ok
        with open(result_path) as f:
            result = json.load(f)
        rounds = result["rounds"]
        attempted, failed, problems = verify(round_ops, rounds)
        if not setup_ok:
            problems.append("jdtok info: unexpected exit code or output")
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        if args.trace:
            values = summarize(result["spans"], result["counts"])
            values["trace.round_s"] = statistics.median(r["wall"] for r in rounds if r["traced"])
            values["trace.untraced_round_s"] = statistics.median(  # round 0 also saves artifacts
                r["wall"] for r in rounds[1:] if not r["traced"])
            values["trace.overhead"] = values["trace.round_s"] / values["trace.untraced_round_s"]
            units = declared_units("per_layer")
        else:
            values = end_to_end(round_ops, rounds)
            values["setup_s"] = statistics.median(setup_times)
            values["peak_mem_mb"] = result["peak_rss_mb"]
            units = declared_units("end_to_end")
        print(json.dumps({"env": environment(args, workload, rounds)}))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:  # another run still uses it
            pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for need in (os.path.join("src", "jdtok", "cli.py"), workloads.DEFAULT_CONFIG, "BENCHMARK.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"error: {need} not found; run from the repository root", file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))  # the gradient check calls daam_gate
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run_workload(args, name) for name in names)


if __name__ == "__main__":
    sys.exit(main())
