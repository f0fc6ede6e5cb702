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
kernel of the rows {Re nu, Im nu, 1} and s = |kappa| lies in L, the real
kernel of {Re nu, Im nu}. For five points the first kernel is the
complexification of a real 2-dimensional one, span{b1, b2}, and L is
span{e, b1, b2}, with e in the rows' own span. So kappa = c1 b1 + c2 b2
and s_m^2 = p_m^T Q p_m, p_m = (b1_m, b2_m), for the real 2 x 2 Q =
Re(c c^H) >= 0. Scaled so that s = e + y1 b1 + y2 b2, the square s^2 is
e^2 + 2 y1 e b1 + 2 y2 e b2 plus a term in span{b1^2, b1 b2, b2^2}, so the
balance is linear in (y1, y2) and the three entries of Q less that term:
one 5 x 5 solve, whose root is unique. A real-row frame exists when that
s is nonnegative and Q is positive semidefinite; any other block misses
the residual gate and goes on to a least-squares frame solve.

``isotropic_pair`` takes one block or a stack of them. The stack shares one
kernel SVD, one 5 x 5 solve, one map from kappa to rows, one QR and one
residual; a block that misses the gate goes on alone to the frame solve.
Each block of a stack is ``==`` to that block solved alone.
"""

from __future__ import annotations

import numpy as np
import scipy.optimize

from .errors import NoSolution

BLOCK_RESIDUAL_GATE = 1e-10


def pair_isotropy_residual(V: np.ndarray, d: np.ndarray):
    """max |conj(V)^T diag(d) V| entry and Gram deviation from identity, of
    one frame V (n, c), or per frame of a stack V (B, n, c) with d (B, n)."""
    adj = np.swapaxes(V.conj(), -1, -2)
    comp = np.abs(adj @ (d[..., None] * V)).max(axis=(-2, -1))
    gram = np.abs(adj @ V - np.eye(V.shape[-1])).max(axis=(-2, -1))
    r = np.maximum(comp, gram)
    return float(r) if V.ndim == 2 else r


def _rows_from_kappa(h, kap):
    """The real rows (B, n, 2) of each stacked kappa (B, n) whose moduli
    are h; the rows of an h that is all zero are zero."""
    total = h.sum(axis=-1, keepdims=True)
    h = 2.0 * h / np.where(total != 0.0, total, 1.0)
    phi = np.angle(kap) / 2.0
    return np.sqrt(h)[..., None] * np.stack([np.cos(phi), np.sin(phi)],
                                            axis=-1)


def _closed_form(nu):
    """s = |kappa| and kappa of each stacked five-point block (B, 5) of
    unit points nu, and whether kappa was formed: it needs a nonsingular
    system and Q11 > 0.

    One SVD of the rows [Re nu; Im nu; 1] gives their span R and the
    kernel b1, b2 (its last two rows); e = c^T R with c = (R Re nu) x
    (R Im nu) is the part of L in the rows' span, signed so that sum e >
    0. The solve [2 e b1, 2 e b2, -b1^2, -b1 b2, -b2^2] x = -e^2 gives
    (y1, y2, q11, q12, q22), so s = e + y1 b1 + y2 b2, Q11 = q11 + y1^2
    and Q12 = q12 / 2 + y1 y2. Then kappa = c1 b1 + c2 b2 with c1 =
    sqrt(Q11) and c2 = Q12 / c1 - i beta, beta = sqrt(det Q) / c1: b1 +
    t b2 with Im t < 0, times a positive factor. As s_m^2 = (Re kappa_m)^2
    + beta^2 b2_m^2 at every m, beta is read at the m of least s_m /
    |b2_m|, where rounding costs least: det Q keeps an error of sqrt(eps)
    in beta when the target lies on the block's boundary and some s_m
    vanishes, and there it reads 0."""
    rows = np.stack([nu.real, nu.imag, np.ones(nu.shape)], axis=-2)
    _, _, vt = np.linalg.svd(rows)
    R, b1, b2 = vt[:, :3], vt[:, 3], vt[:, 4]
    proj = R @ np.stack([nu.real, nu.imag], axis=-1)
    e = (np.cross(proj[..., 0], proj[..., 1])[:, None] @ R)[:, 0]
    e *= np.sign(e.sum(axis=-1, keepdims=True))
    A = np.stack([2 * e * b1, 2 * e * b2, -b1 * b1, -b1 * b2, -b2 * b2],
                 axis=-1)
    # an exactly singular system, as when the points lie on one line
    # through 0, forms no kappa; it solves I x = -e^2 instead, so that the
    # rest of the stack is solved as if alone
    singular = np.linalg.det(A) == 0.0
    y1, y2, q11, q12, _ = np.linalg.solve(
        np.where(singular[:, None, None], np.eye(5), A),
        -(e * e)[..., None])[..., 0].T
    s = e + y1[:, None] * b1 + y2[:, None] * b2
    Q11, Q12 = q11 + y1 * y1, q12 / 2 + y1 * y2
    ok = (Q11 > 0.0) & ~singular
    c1 = np.sqrt(np.where(ok, Q11, 1.0))
    re = c1[:, None] * b1 + (Q12 / c1)[:, None] * b2
    w = np.abs(b2)
    m = np.argmin(np.divide(np.abs(s), w, out=np.full_like(w, np.inf),
                            where=w > 0.0), axis=-1)
    sm, rm, wm = np.stack([s, re, w])[:, np.arange(len(m)), m, None]
    beta = np.sqrt(np.maximum((sm - rm) * (sm + rm), 0.0)) / wm
    return s, re - 1j * beta * b2, ok


def _closed_chain(d, nu):
    """The closed-form real-row frame of each stacked five-point block
    (B, 5), from its unit points nu: the frames (B, 5, 2) and their
    residuals, inf where ``_closed_form`` formed no kappa. The rows take
    their moduli from s and their angles from kappa, so a negative entry
    of s, or a Q that is not positive semidefinite, misses the gate."""
    s, kap, ok = _closed_form(nu)
    rows = _rows_from_kappa(np.abs(s), kap)
    V, _ = np.linalg.qr(rows / np.sqrt(np.abs(d))[..., None])
    return V, np.where(ok, pair_isotropy_residual(V, d), np.inf)


def isotropic_pair(d: np.ndarray):
    """Two orthonormal vectors V (n x 2) with conj(V)^T diag(d) V = 0, or
    one such V per block of a stack d (B, n), as V (B, n, 2).

    ``d`` holds the shifted eigenvalues (mu_m - lambda) of the block's
    support; feasibility requires 0 inside the rank-2 region of the
    normalized points. Deterministic: a five-point block takes the closed
    form of ``_closed_chain``, the whole stack at once. A block whose
    closed form misses the residual gate goes on alone to a frame solve
    whose first seed is that closed-form frame when one was formed, as
    does every block of a support of more than five points; NoSolution
    when that fails too, for any block of the stack. The caller checks
    feasibility: this solve does not score the block's margin.
    """
    d = np.asarray(d, dtype=complex)
    stack = d.reshape(-1, d.shape[-1])
    if stack.shape[1] < 5:
        raise NoSolution(f"pair block needs at least 5 support points, "
                         f"got {stack.shape[1]}")
    if np.abs(stack).min() < 1e-14:
        raise NoSolution("target coincides with an eigenvalue in the block")
    if stack.shape[1] == 5:
        V, r = _closed_chain(stack, stack / np.abs(stack))
    else:
        V = np.zeros(stack.shape + (2,))
        r = np.full(stack.shape[0], np.inf)
    for i in np.flatnonzero(~(r <= BLOCK_RESIDUAL_GATE)):
        lone = _lone_block(stack[i], V[i], r[i])
        # a frame solve returns a complex frame; the closed form's are real
        V = V.astype(np.result_type(V, lone), copy=False)
        V[i] = lone
    return V if d.ndim == 2 else V[0]


def _lone_block(d, V, r):
    """The frame solve of one block whose closed-form frame V (residual r,
    inf when none was formed) missed the gate."""
    # the complex frame solve polishes the closed-form frame first and then
    # fixed seeds
    rng = np.random.default_rng(0x5eed)
    seeds = [] if r == np.inf else [V]
    for _ in range(8):
        W = rng.standard_normal((d.size, 2)) \
            + 1j * rng.standard_normal((d.size, 2))
        q, _ = np.linalg.qr(W)
        seeds.append(q)
    V = frame_solve(d, 2, seeds)
    if V is not None:
        return V
    raise NoSolution(f"block pair residual stuck at {r:.2e}")


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
    over all of d, which ``isotropic_pair`` runs when the closed form
    misses or the support has more than five points.

    Runs the least-squares polish from each seed (n x k isometries) in
    order and returns the first frame under the gate; None if all fail.
    """
    for V0 in seeds:
        V = _polish(np.asarray(V0, dtype=complex), d)
        if V is not None:
            return V
    return None
