"""Compression-orthogonal vector blocks.

A rank-k witness needs k orthonormal vectors v_s with
conj(v_s)^T (sigma - lambda I) v_p = 0 for ALL s, p: the diagonal
conditions fix the weighted eigenvalue sums and the off-diagonal ones make
the compression of sigma a scalar on the span. Vectors supported on
disjoint index sets decouple, so plain triangle vectors combine freely;
two vectors sharing support must be solved jointly. This module provides
that joint solve.

Reduction used by the pair solver: isotropy for diag(d) is a property of
the spanned subspace and survives per-coordinate positive rescaling, so
normalize d_m to unit modulus nu_m. Seeking two REAL row vectors r_m in
R^2 per coordinate turns the conditions into the moment equations

    sum_m nu_m r_m r_m^T = 0   and   sum_m r_m r_m^T = I.

Writing r_m = sqrt(h_m) (cos phi_m, sin phi_m) and kappa_m = h_m
exp(2 i phi_m), the equations collapse to: kappa lies in the complex
kernel of the rows {Re nu, Im nu, 1} and sum_m nu_m |kappa_m| = 0. The
kernel is the complexification of a real 2-dimensional kernel for five
points, so a single complex parameter t in kappa = b1 + t b2 remains and
the scalar balance condition is a two-real-unknown root find, solved by a
coarse grid plus damped Newton. The grid's coordinates are a module
constant, exactly symmetric about 0; as b1 and b2 are real, kappa and the
balance on the grid are formed in real arithmetic, rounded as the complex
products would be, and each modulus is taken once. Newton's 2 x 2 Jacobian
is analytic, from d|kappa_m|/dt = conj(kappa_m) b2_m / |kappa_m|, and the
iteration runs in plain complex arithmetic over the points.

``isotropic_pair`` takes one block or a stack of them. The stack shares one
kernel SVD, one grid scoring, one map from kappa to rows, one QR and one
residual; only Newton runs block by block, and a block that misses the
gate goes on alone through the swapped kernel ordering and the frame
solve. Each block of a stack is ``==`` to that block solved alone.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from .errors import NoSolution

BLOCK_RESIDUAL_GATE = 1e-10
# the coarse grid of the root seed: GRID x GRID points of |Re t|, |Im t| <= SPAN,
# each coordinate taken from _GRID_XS; its upper half, mirrored, makes the
# grid exactly symmetric about 0 (within 1.8e-15 of linspace's), so that
# _grid_root needs only the half Im t < 0
GRID = 48
SPAN = 6.0
_GRID_XS = np.linspace(-SPAN, SPAN, GRID)[GRID // 2:]
_GRID_XS = np.concatenate([-_GRID_XS[::-1], _GRID_XS])
_GRID_XS.setflags(write=False)
NEWTON_ITERS = 60


def pair_isotropy_residual(V: np.ndarray, d: np.ndarray):
    """max |conj(V)^T diag(d) V| entry and Gram deviation from identity, of
    one frame V (n, c), or per frame of a stack V (B, n, c) with d (B, n)."""
    adj = np.swapaxes(V.conj(), -1, -2)
    comp = np.abs(adj @ (d[..., None] * V)).max(axis=(-2, -1))
    gram = np.abs(adj @ V - np.eye(V.shape[-1])).max(axis=(-2, -1))
    r = np.maximum(comp, gram)
    return float(r) if V.ndim == 2 else r


def _kernel_basis(nu: np.ndarray) -> np.ndarray:
    rows = np.stack([nu.real, nu.imag, np.ones(nu.shape)], axis=-2)
    _, _, vt = np.linalg.svd(rows)
    return vt[..., 3:, :]


def _rows_from_kappa(kap: np.ndarray):
    """The real rows (B, n, 2) of each stacked kappa (B, n), and which
    kappa are not all zero; the rows of one that is are zero."""
    h = np.abs(kap)
    total = h.sum(axis=-1, keepdims=True)
    live = total[:, 0] != 0.0
    h = 2.0 * h / np.where(live[:, None], total, 1.0)
    phi = np.angle(kap) / 2.0
    return np.sqrt(h)[..., None] * np.stack([np.cos(phi), np.sin(phi)],
                                            axis=-1), live


def _closed_chain(d, nu, b1, b2):
    """Grid seed, Newton, rows and QR for each stacked block (B, n) with
    kernel ordering (b1, b2): the frames (B, n, 2) and their residuals,
    inf where kappa vanished."""
    t0 = _grid_root(nu, b1, b2)
    t = np.array([_newton_root(*block) for block in
                  zip(nu, b1, b2, t0.tolist())])
    rows, live = _rows_from_kappa(b1 + t[:, None] * b2)
    V, _ = np.linalg.qr(rows / np.sqrt(np.abs(d))[..., None])
    return V, np.where(live, pair_isotropy_residual(V, d), np.inf)


def isotropic_pair(d: np.ndarray):
    """Two orthonormal vectors V (n x 2) with conj(V)^T diag(d) V = 0, or
    one such V per block of a stack d (B, n), as V (B, n, 2).

    ``d`` holds the shifted eigenvalues (mu_m - lambda) of the block's
    support; feasibility requires 0 inside the rank-2 region of the
    normalized points. Deterministic: fixed grid seeding and damped Newton
    refinement with an analytic Jacobian (``_newton_root``), the whole
    stack at once but Newton block by block. A block whose chain misses
    the residual gate tries the swapped kernel ordering alone, then a frame
    solve whose first seed is the best Newton frame; NoSolution when that
    fails too, for any block of the stack. The caller checks feasibility:
    this solve does not score the block's margin.
    """
    d = np.asarray(d, dtype=complex)
    stack = d.reshape(-1, d.shape[-1])
    if stack.shape[1] < 5:
        raise NoSolution(f"pair block needs at least 5 support points, "
                         f"got {stack.shape[1]}")
    if np.abs(stack).min() < 1e-14:
        raise NoSolution("target coincides with an eigenvalue in the block")
    nu = stack / np.abs(stack)
    basis = _kernel_basis(nu)
    V, r = _closed_chain(stack, nu, basis[:, -2], basis[:, -1])
    for i in np.flatnonzero(~(r <= BLOCK_RESIDUAL_GATE)):
        lone = _lone_block(stack[i], nu[i], basis[i], V[i], r[i])
        # a frame solve returns a complex frame; Newton's are real
        V = V.astype(np.result_type(V, lone), copy=False)
        V[i] = lone
    return V if d.ndim == 2 else V[0]


def _lone_block(d, nu, basis, V, r):
    """The rest of one block's solve once its first chain (V, residual r)
    missed the gate: the swapped ordering, then the frame solve."""
    best_V, best_r = (V, r) if r < np.inf else (None, np.inf)
    V, r = _closed_chain(d[None], nu[None], basis[None, -1], basis[None, -2])
    if r[0] < best_r:
        best_V, best_r = V[0], r[0]
    if best_r <= BLOCK_RESIDUAL_GATE:
        return best_V
    # the real-rows ansatz can run out of roots when points nearly
    # coincide; the complex frame solve, which polishes the best Newton
    # frame first and then fixed seeds, still reaches the solutions
    # guaranteed for strict interior targets
    rng = np.random.default_rng(0x5eed)
    seeds = [] if best_V is None else [best_V]
    for _ in range(8):
        W = rng.standard_normal((d.size, 2)) \
            + 1j * rng.standard_normal((d.size, 2))
        q, _ = np.linalg.qr(W)
        seeds.append(q)
    V = frame_solve(d, 2, seeds)
    if V is not None:
        return V
    raise NoSolution(f"block pair residual stuck at {best_r:.2e}")


def _grid_root(nu, b1, b2):
    """For each stacked block (B, n), the grid point t = x + iy, x and y
    from ``_GRID_XS``, of least relative balance |sum nu_m |kappa_m|| /
    sum |kappa_m|, kappa = b1 + t b2, the first in row-major (x, y) order
    among equals.

    As b1 and b2 are real, |kappa_m| at x - iy equals it at x + iy bit for
    bit, and so does the balance; on the mirrored grid the first least
    point therefore has y < 0, and only that half is scored. kappa's parts
    b1 + x b2 and y b2, and the balance's parts, are formed in real
    arithmetic, which rounds them as complex arithmetic does; ``einsum``
    adds the points' terms in order, as a sum over them does. Both moduli
    are numpy's complex ``abs``: ``np.hypot`` rounds differently and can
    move the argmin."""
    half = GRID // 2
    kap = np.empty(nu.shape + (GRID, half), dtype=complex)
    kap.real = (b1[..., None] + _GRID_XS * b2[..., None])[..., None]
    kap.imag = (_GRID_XS[:half] * b2[..., None])[..., None, :]
    mags = np.abs(kap)
    bal = np.empty((nu.shape[0], GRID, half), dtype=complex)
    bal.real = np.einsum("bm,bmxy->bxy", nu.real, mags)
    bal.imag = np.einsum("bm,bmxy->bxy", nu.imag, mags)
    score = (np.abs(bal) / mags.sum(axis=1)).reshape(nu.shape[0], -1)
    i, j = np.divmod(np.argmin(score, axis=1), half)
    return _GRID_XS[i] + 1j * _GRID_XS[j]


def _newton_root(nu, b1, b2, t0):
    """Damped Newton on the balance f(t) = sum nu_m |kappa_m| / sum |kappa_m|
    with kappa = b1 + t b2, from t0, in plain complex arithmetic over the
    points (faster than numpy at five).

    The Jacobian is analytic: with t = x + iy and b2 real, d|kappa_m|/dx =
    b2_m Re(kappa_m) / |kappa_m| and d|kappa_m|/dy = b2_m Im(kappa_m) /
    |kappa_m| (the real and imaginary parts of d|kappa_m|/dt =
    conj(kappa_m) b2_m / |kappa_m|, read as a real-linear map), so f_x =
    sum (nu_m - f) d|kappa_m|/dx / sum |kappa_m|, and f_y likewise."""
    pts = list(zip(nu.tolist(), b1.tolist(), b2.tolist()))

    def balance(t):
        kap = [b1m + t * b2m for _, b1m, b2m in pts]
        mags = [abs(z) for z in kap]
        scale = sum(mags)
        if scale == 0.0:
            return complex(np.inf), kap, mags, scale
        return sum(p[0] * a for p, a in zip(pts, mags)) / scale, \
            kap, mags, scale

    t = t0
    f, kap, mags, scale = balance(t)
    for _ in range(NEWTON_ITERS):
        if abs(f) < 1e-16 or scale == 0.0:
            break
        fx = fy = 0j
        for (num, _, b2m), z, a in zip(pts, kap, mags):
            if a > 0.0:
                w = (num - f) * (b2m / a)
                fx += w * z.real
                fy += w * z.imag
        fx, fy = fx / scale, fy / scale
        det = fx.real * fy.imag - fy.real * fx.imag
        if det == 0.0:
            break
        sx = (fy.real * f.imag - fy.imag * f.real) / det
        sy = (fx.imag * f.real - fx.real * f.imag) / det
        step = 1.0
        for _ in range(30):
            cand = t + step * complex(sx, sy)
            fc, kc, mc, sc = balance(cand)
            if abs(fc) < abs(f):
                t, f, kap, mags, scale = cand, fc, kc, mc, sc
                break
            step *= 0.5
        else:
            break
    return t


def _ortho_columns(W: np.ndarray) -> np.ndarray:
    """Map an unconstrained matrix to an isometry via the polar factor."""
    u, _, vh = np.linalg.svd(W, full_matrices=False)
    return u @ vh


def _polish(V0: np.ndarray, d: np.ndarray):
    """Least-squares refinement of an isotropic frame seeded at V0."""
    n, k = V0.shape

    def unpack(x):
        return (x[:n * k] + 1j * x[n * k:]).reshape(n, k)

    def residuals(x):
        V = _ortho_columns(unpack(x))
        C = V.conj().T @ (d[:, None] * V)
        return np.concatenate([C.real.ravel(), C.imag.ravel()])

    x0 = np.concatenate([V0.real.ravel(), V0.imag.ravel()])
    sol = scipy.optimize.least_squares(residuals, x0, method="trf",
                                       xtol=3e-16, ftol=3e-16, gtol=3e-16,
                                       max_nfev=400)
    V = _ortho_columns(unpack(sol.x))
    if pair_isotropy_residual(V, d) <= BLOCK_RESIDUAL_GATE:
        return V
    return None


def frame_solve(d: np.ndarray, k: int, seeds):
    """The pair block's fallback: a joint solve for k isotropic columns
    over all of d, which ``isotropic_pair`` runs when Newton misses.

    Runs the least-squares polish from each seed (n x k isometries) in
    order and returns the first frame under the gate; None if all fail.
    """
    for V0 in seeds:
        V = _polish(np.asarray(V0, dtype=complex), d)
        if V is not None:
            return V
    return None
