"""Shared test helpers: random problem generators, finite-difference oracles,
and the double-integrator benchmark instance used across the suite."""

from types import SimpleNamespace

import numpy as np

import wsteer as w
from wsteer import problem
from wsteer.objective import _hessian_block


def pytest_runtest_setup(item):
    """Every test starts with nothing lifted or validated: what a test counts or
    patches inside `assemble` and `validate` runs whatever ran before it.  A
    hook, not a fixture, so that scripts importing this module need no pytest."""
    problem._LIFTINGS.clear()
    problem._VERDICTS.clear()

# 2-D discretized double integrator (dt = 0.1), horizon 10, with the two
# steering targets exercised throughout: a wide correlated covariance and a
# tight diagonal one.  Process noise is 0.01*I per step.
DI_A = [[1.0, 0.1], [0.0, 1.0]]
DI_B = [[0.0], [0.1]]
DI_G = [[1.0, 0.0], [0.0, 1.0]]
DI_N = 10
DI_MU0 = [0.0, 0.0]
DI_MUD = [10.0, 5.0]
SD_WIDE = [[4.0, -2.0], [-2.0, 2.0]]
SD_TIGHT = [[0.2, 0.0], [0.0, 0.1]]
DI_SW_SCALE = 0.01


def double_integrator_problem(Sd, lam=1.0, sw_scale=DI_SW_SCALE, N=DI_N):
    sysm = w.TimeVaryingLinearSystem.time_invariant(DI_A, DI_B, DI_G, N)
    return w.SteeringProblem(
        system=sysm,
        initial=w.Gaussian(DI_MU0, np.eye(2)),
        noise_cov=sw_scale * np.eye(2),
        desired=w.Gaussian(DI_MUD, Sd),
        lam=lam,
    )


def rand_spd(rng, n, scale=1.0):
    M = rng.standard_normal((n, n))
    return scale * (M @ M.T + n * np.eye(n))


def rand_system(rng, N, n_x, n_u, n_w):
    A = tuple(0.7 * rng.standard_normal((n_x, n_x)) for _ in range(N))
    B = tuple(rng.standard_normal((n_x, n_u)) for _ in range(N))
    G = tuple(rng.standard_normal((n_x, n_w)) for _ in range(N))
    return w.TimeVaryingLinearSystem(A, B, G)


def rand_problem(rng, N=None, n_x=None, n_u=None, lam=None, n_w=None):
    """Random valid steering problem; n_w >= n_x keeps Stilde PD."""
    n_x = n_x if n_x is not None else int(rng.integers(1, 4))
    n_u = n_u if n_u is not None else int(rng.integers(1, 3))
    N = N if N is not None else int(rng.integers(1, 5))
    n_w = n_w if n_w is not None else n_x + int(rng.integers(0, 2))
    lam = lam if lam is not None else float(rng.uniform(0.1, 10.0))
    sysm = rand_system(rng, N, n_x, n_u, n_w)
    return w.SteeringProblem(
        system=sysm,
        initial=w.Gaussian(rng.standard_normal(n_x), rand_spd(rng, n_x)),
        noise_cov=rand_spd(rng, n_w),
        desired=w.Gaussian(rng.standard_normal(n_x), rand_spd(rng, n_x)),
        lam=lam,
    )


def long_horizon_problem(rng, N, n_x=4, n_u=2, lam=10.0):
    """Random time-varying problem whose lifted operators stay well scaled
    over long horizons: each A_k is a chain of integrators near the identity.
    The target covariance is too wide to dominate, so the certificate that
    `solve` issues is the spectral one."""
    A = tuple(np.eye(n_x) + 0.1 * np.eye(n_x, k=1) + 0.02 * rng.standard_normal((n_x, n_x))
              for _ in range(N))
    B = tuple(0.1 * rng.standard_normal((n_x, n_u)) for _ in range(N))
    G = tuple(0.1 * np.eye(n_x) for _ in range(N))
    return w.SteeringProblem(
        system=w.TimeVaryingLinearSystem(A, B, G),
        initial=w.Gaussian(np.zeros(n_x), np.eye(n_x)),
        noise_cov=np.eye(n_x),
        desired=w.Gaussian(np.ones(n_x), 4.0 * np.eye(n_x) + 0.5),
        lam=lam,
    )


def per_step_config(problem):
    """problem as a config of `wsteer.cli.load_config`, with per-step A/B/G."""
    sysm = problem.system
    return {"N": sysm.horizon,
            "A": [M.tolist() for M in sysm.A], "B": [M.tolist() for M in sysm.B],
            "G": [M.tolist() for M in sysm.G],
            "mu0": problem.initial.mean.tolist(), "S0": problem.initial.cov.tolist(),
            "Sw": np.asarray(problem.noise_cov).tolist(),
            "mud": problem.desired.mean.tolist(), "Sd": problem.desired.cov.tolist(),
            "lambda": problem.lam}


def rand_causal_theta(rng, mask, scale=0.3):
    return mask.project(scale * rng.standard_normal(mask.theta_shape))


def singular_block_kernel(ops, lam, term, t, sigma=0.0):
    """term with W changed so that A = 2 lam (I - Mt) gives the block
    I + C_t^T A C_t of H_U the eigenvalue sigma: C_t^T A C_t =
    diag(sigma - 1, 0, ..., 0), for the square C_t with C_t C_t^T = Q_t / 2
    from an eigh of Q_t (the curvature's own C_t is `input_qr`'s)."""
    q, V = np.linalg.eigh(0.5 * ops.input_grams)
    C = V * np.sqrt(np.maximum(q, 0.0))[:, None, :]
    Cinv = np.linalg.inv(C[t])
    K = np.diag([sigma - 1.0] + [0.0] * (ops.n_x - 1))
    m, Vm = np.linalg.eigh(np.eye(ops.n_x) - Cinv.T @ K @ Cinv / (2.0 * lam))
    return term._replace(W=Vm * np.sqrt(m * term.r))


def phi_block(ops, lam, mask, term=None):
    """`_hessian_block` on the free entries in the coordinates Phi = X L, L =
    chol(Stilde), X the causal block of Theta, where J2's curvature is 2I: the
    same formula with Stilde -> I and Omega Stilde -> Omega Stilde L^-T, which
    is T^-T H T^-1 for the map T: vec X -> vec(X L), without forming T."""
    qq = ops.N * ops.n_x
    if term is not None:
        term = term._replace(OmS=term.OmS[:, :qq] @ ops.causal_cholesky[1].T)
    return _hessian_block(SimpleNamespace(FHu=ops.FHu, n_x=ops.n_x, Stilde=np.eye(qq)),
                          lam, mask.free_entries, term)


# finite-difference oracles ---------------------------------------------------

FD_CBRT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)


def fd_jacobian(f, x, step=None):
    """Central-difference Jacobian of a vector-valued f at 1-D x.

    Default per-coordinate step is cbrt(machine eps) * max(1, |x_i|).
    """
    x = np.asarray(x, dtype=float)
    y0 = np.asarray(f(x), dtype=float)
    J = np.empty((y0.size, x.size))
    for i in range(x.size):
        h = step if step is not None else FD_CBRT_EPS * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        J[:, i] = (np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h)
    return J


def fd_grad_scalar(f, x):
    """Central-difference gradient of scalar f at 1-D x with the objective
    step rule h_i = max(1e-6, 1e-6 * |x_i|)."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        h = max(1e-6, 1e-6 * abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def fd_grad_matrix(f, X):
    """Like fd_grad_scalar but for matrix-valued argument, entrywise."""
    X = np.asarray(X, dtype=float)
    G = np.empty_like(X)
    for r in range(X.shape[0]):
        for c in range(X.shape[1]):
            h = max(1e-6, 1e-6 * abs(X[r, c]))
            Xp, Xm = X.copy(), X.copy()
            Xp[r, c] += h
            Xm[r, c] -= h
            G[r, c] = (f(Xp) - f(Xm)) / (2.0 * h)
    return G


def fd_hessian_from_grad(grad, X):
    """Central differences of a matrix-gradient function w.r.t. vec(X)."""
    X = np.asarray(X, dtype=float)
    flat = X.reshape(-1, order="F")
    H = np.empty((flat.size, flat.size))
    for j in range(flat.size):
        h = max(1e-6, 1e-6 * abs(flat[j]))
        fp, fm = flat.copy(), flat.copy()
        fp[j] += h
        fm[j] -= h
        gp = grad(fp.reshape(X.shape, order="F"))
        gm = grad(fm.reshape(X.shape, order="F"))
        H[:, j] = (gp - gm).reshape(-1, order="F") / (2.0 * h)
    return H


def rel_err(approx, exact):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    return float(np.linalg.norm(approx - exact) / max(1.0, np.linalg.norm(exact)))


def check_monotone(trace):
    """Every recorded step, CCP or Newton, lowers J (to 1e-10)."""
    Js = [r.J for r in trace.records]
    assert all(Js[i + 1] <= Js[i] + 1e-10 for i in range(len(Js) - 1))
