#!/usr/bin/env python3
"""Verify analytic gate gradients against central finite differences.

Draws random (signal, parameter) instances, compares every partial
derivative of the gate (mean offsets, log-scales, input) with a central
difference at step h, and the vector-Jacobian products of
``daam_gate_vjp`` with central differences of g^T G for a random
cotangent g.  Reports the worst error per gradient block and exits 1 if
any block fails.

Example:
    python3 scripts/gate_grad_check.py --instances 200 --step 1e-4
"""

import argparse
import sys

import numpy as np

from jdtok.daam import DaamParams, daam_gate, daam_gate_grad, daam_gate_vjp


def finite_difference(x, params, h):
    k, t = params.num_components, x.size
    d_off = np.empty((k, t))
    d_log = np.empty((k, t))
    d_in = np.empty((t, t))
    for i in range(k):
        up, dn = params.mean_offsets.copy(), params.mean_offsets.copy()
        up[i] += h
        dn[i] -= h
        d_off[i] = (
            daam_gate(x, DaamParams(up, params.log_scales))
            - daam_gate(x, DaamParams(dn, params.log_scales))
        ) / (2 * h)
        up, dn = params.log_scales.copy(), params.log_scales.copy()
        up[i] += h
        dn[i] -= h
        d_log[i] = (
            daam_gate(x, DaamParams(params.mean_offsets, up))
            - daam_gate(x, DaamParams(params.mean_offsets, dn))
        ) / (2 * h)
    for s in range(t):
        xp, xm = x.copy(), x.copy()
        xp[s] += h
        xm[s] -= h
        d_in[:, s] = (daam_gate(xp, params) - daam_gate(xm, params)) / (2 * h)
    return d_off, d_log, d_in


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=100)
    parser.add_argument("--step", type=float, default=1e-4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    # cotangents come from their own stream, so the instances stay those of rng alone
    cotangents = np.random.default_rng([args.seed, 1])
    worst = dict.fromkeys(
        ("offsets", "log_scales", "input", "vjp_offsets", "vjp_log_scales", "vjp_input"), 0.0
    )
    for trial in range(args.instances):
        k = [1, 2, 4][trial % 3]
        t = int(rng.integers(4, 65))
        params = DaamParams(rng.uniform(-1, 1, k), rng.uniform(-2, 1, k))
        x = rng.standard_normal(t) * float(rng.uniform(0.5, 3.0))
        g = cotangents.standard_normal(t)
        analytic = (*daam_gate_grad(x, params), *daam_gate_vjp(x, params, g)[1:])
        fd_off, fd_log, fd_in = finite_difference(x, params, args.step)
        # central differences of g^T G are those of G contracted with g
        oracle = (fd_off, fd_log, fd_in, fd_off @ g, fd_log @ g, g @ fd_in)
        # a contraction is judged against the summed size of its terms, which
        # bounds the differencing error it accumulates
        mag = [np.abs(o) for o in oracle[:3]]
        scale = (*mag, mag[0] @ np.abs(g), mag[1] @ np.abs(g), np.abs(g) @ mag[2])
        for name, a, o, s in zip(worst, analytic, oracle, scale):
            err = float(np.max(np.abs(a - o) / np.maximum(s, 1e-4)))
            worst[name] = np.maximum(worst[name], err)  # keeps a NaN

    passed = {name: err < 1e-4 for name, err in worst.items()}
    for name, err in worst.items():
        status = "ok" if passed[name] else "FAIL"
        print(f"{name:<14} worst rel err {err:.3e}  [{status}]")
    return 0 if all(passed.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
