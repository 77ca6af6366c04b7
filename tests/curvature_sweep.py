"""Backward-error sweep of the structured Newton curvature near singular
blocks of H_U, the measurement behind `objective.BLOCK_TOL`.

Three families of draws d, each from its own seeded generator:

- random, `default_rng([1, d])`: `rand_problem` with N <= 4, n_x <= 3,
  n_u <= 2, lam = 10^U(-3, 4) and a causal Theta of scale 1;
- crafted, `default_rng([2, d])`: N <= 4, n_u = n_w = n_x <= 3,
  lam = 10^U(-3, 4), and block t of H_U given the eigenvalue
  +-10^U(-8, -1) by `singular_block_kernel`;
- seeded, `default_rng([3, d])`: N <= 2, n_x = n_u = n_w = 3,
  lam = 10^U(-1, 4), and block t given the eigenvalue +-10^U(-4, -2).

Each draw is binned by the smallest |eigenvalue| of the blocks
I + C_t^T A C_t that the curvature computed.  On a PD draw the sweep solves
as `solver.newton_refine` does: with H, or, where a block is within
BLOCK_TOL of singular ("near"), with H + 2 s I, s the curvature's `shift`.
For each bin it prints the worst backward error of that refined solve,
measured against the dense causal block `_hessian_block` (plus s times J2's
curvature, which is 2 s I in Phi) and against the curvature's own `matvec`
at the same shift, in the columns "at H" or "at H+2sI".  Each family prints
the number of PD decisions that disagree with dense Cholesky where
lambda_min(H) is not within 1e-8 of ||H||_2 of zero, the number that
disagree with the sign of `_lambda_min` on draws with no block singular to
eigvalsh's error, and the number of draws with such a block, whose decision
is `_lambda_min`'s sign.  Draws above 1e-14 on either measure are listed.
Run from the repository root, with one BLAS thread for reproducible bits:

    OMP_NUM_THREADS=1 PYTHONPATH=src python tests/curvature_sweep.py [DRAWS]
"""

import sys

import numpy as np

from conftest import rand_causal_theta, rand_problem, singular_block_kernel
import wsteer as w
from wsteer.errors import WsteerError
from wsteer.objective import _Curvature, _hessian_block, _lambda_min, _terminal

EDGES = (1e-6, 1e-5, 2e-5, 1e-4, 1.5e-4, 1e-3, 1e-2)
BOUND = 1e-14


def _random(rng):
    N, n_x, n_u = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 3))
    lam = 10.0 ** rng.uniform(-3, 4)
    prob = rand_problem(rng, N=N, n_x=n_x, n_u=n_u, lam=lam)
    ops, mask = w.assemble(prob), w.causality_mask(N, n_u, n_x)
    return ops, lam, mask, _terminal(ops, rand_causal_theta(rng, mask, 1.0))


def _crafted(rng, N, n_x, lam, lg_sigma):
    t = int(rng.integers(0, N))
    sigma = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(*lg_sigma)
    prob = rand_problem(rng, N=N, n_x=n_x, n_u=n_x, n_w=n_x, lam=lam)
    ops, mask = w.assemble(prob), w.causality_mask(N, n_x, n_x)
    term = singular_block_kernel(ops, lam, _terminal(ops, rand_causal_theta(rng, mask)), t, sigma)
    return ops, lam, mask, term


FAMILIES = {
    "random": (1, _random),
    "crafted": (2, lambda rng: _crafted(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)),
                                        10.0 ** rng.uniform(-3, 4), (-8, -1))),
    "seeded": (3, lambda rng: _crafted(rng, int(rng.integers(1, 3)), 3,
                                       10.0 ** rng.uniform(-1, 4), (-4, -2))),
}


def sweep(family, draws):
    """Draws 0..draws-1 of a family: {"bins": {(bin, near): [PD draws, worst
    against the oracle, its d, worst against matvec, its d]}, "pd", "skipped",
    "mismatches", "lambda_min_mismatches", "singular" and "above": [(d, near,
    oracle, matvec)] over BOUND}."""
    key, draw = FAMILIES[family]
    out = {"bins": {}, "pd": 0, "skipped": 0, "mismatches": 0, "lambda_min_mismatches": 0,
           "singular": 0, "above": []}
    for d in range(draws):
        rng = np.random.default_rng([key, d])
        try:
            ops, lam, mask, term = draw(rng)
        except WsteerError:  # a singular terminal covariance at this Theta
            out["skipped"] += 1
            continue
        curv = _Curvature(ops, lam, mask, term)
        H = _hessian_block(ops, lam, mask.free_entries, term)
        eig = np.linalg.eigvalsh(H)
        try:
            np.linalg.cholesky(H)
            dense_pd = True
        except np.linalg.LinAlgError:
            dense_pd = False
        if abs(eig[0]) > 1e-8 * np.abs(eig).max() and curv.pd != dense_pd:
            out["mismatches"] += 1
        out["singular"] += curv.singular
        if not curv.singular and curv.pd != (_lambda_min(ops, lam, term) > 0.0):
            out["lambda_min_mismatches"] += 1
        if not curv.pd:
            continue
        s = curv.shift if curv.near else 0.0  # the solve newton_refine takes
        if curv.near:
            H = H + s * _hessian_block(ops, 0.0, mask.free_entries)
            eig = np.linalg.eigvalsh(H)
        b = rng.standard_normal(H.shape[0])
        x = curv.solve(b, s)
        scale = np.abs(eig).max() * np.linalg.norm(x) + np.linalg.norm(b)
        errs = (np.linalg.norm(H @ x - b) / scale, np.linalg.norm(curv.matvec(x, s) - b) / scale)
        out["pd"] += 1
        row = out["bins"].setdefault((int(np.searchsorted(EDGES, np.abs(curv.sig).min())),
                                      curv.near), [0, 0.0, None, 0.0, None])
        row[0] += 1
        for i, e in zip((1, 3), errs):
            if e > row[i]:
                row[i:i + 2] = [e, d]
        if max(errs) > BOUND:
            out["above"].append((d, curv.near, *errs))
    return out


_AT = {False: "H", True: "H+2sI"}


def _bin_label(i):
    lo = "0" if i == 0 else f"{EDGES[i - 1]:g}"
    hi = "inf" if i == len(EDGES) else f"{EDGES[i]:g}"
    return f"{lo}-{hi}"


def main(draws):
    for family in FAMILIES:
        r = sweep(family, draws)
        print(f"{family}: {draws} draws, {r['pd']} PD, {r['skipped']} skipped, "
              f"{r['mismatches']} PD mismatches, {r['lambda_min_mismatches']} against "
              f"lambda_min, {r['singular']} numerically singular")
        for (i, near), (n, eo, do, em, dm) in sorted(r["bins"].items()):
            print(f"  {_bin_label(i):>13}  {n:5d} PD  at {_AT[near]:<9}  oracle {eo:.2e} "
                  f"(d = {do})  matvec {em:.2e} (d = {dm})")
        for d, near, eo, em in r["above"]:
            print(f"  above {BOUND:g}: d = {d} at {_AT[near]}  oracle {eo:.2e}  matvec {em:.2e}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 3000)
