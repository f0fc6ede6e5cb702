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
s is nonnegative and Q is positive semidefinite.

The system is singular, or nearly so, when the five points lie on one
line through 0. A real diagonal form has a 2-dimensional isotropic
subspace only when it has at least two entries of each sign, and then the
two-segment frame solves it: each column joins one point on each side of
0, and the two columns share no point. So the ladder is the closed form,
then the two-segment frame, then NoSolution, with no seeds and no
iteration; a support of other than five points is NoSolution at once.

``isotropic_pair`` takes one block or a stack of them. The stack shares one
kernel SVD, one 5 x 5 solve, one map from kappa to rows, one QR and one
residual; the blocks that miss the gate share one two-segment step. Each
block of a stack is ``==`` to that block solved alone.
"""

from __future__ import annotations

import numpy as np

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
    (u0, u1, u2), (v0, v1, v2) = (R @ np.stack([nu.real, nu.imag],
                                               axis=-1)).T
    c = np.stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0],
                 axis=-1)
    e = (c[:, None] @ R)[:, 0]
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


def _two_segment(d, nu):
    """The two-segment frame of each stacked five-point block (B, 5) whose
    points lie on one line through 0, and its residuals: the blocks the
    closed form cannot solve, as its system is singular there.

    With theta = arg(sum nu^2) / 2 the direction of the line and x the real
    coordinate of d along it, column c joins the c-th most positive index p
    and the c-th most negative index q as sqrt(a) e_p + sqrt(1 - a) e_q,
    a = -x_q / (x_p - x_q), whose compression a x_p + (1 - a) x_q is 0.
    The columns have disjoint supports, so they are orthonormal and their
    cross term is 0. Such a frame exists only when two entries of x are
    positive and two negative; a block of any other shape, or off the line,
    keeps a residual above the gate."""
    theta = np.angle((nu * nu).sum(axis=-1, keepdims=True)) / 2.0
    x = (d * np.exp(-1j * theta)).real
    order = np.argsort(x, axis=-1, kind="stable")
    p, q = order[:, :-3:-1], order[:, :2]
    xp, xq = np.take_along_axis(x, p, -1), np.take_along_axis(x, q, -1)
    a = np.clip(np.divide(-xq, xp - xq, out=np.zeros_like(xq),
                          where=xp > xq), 0.0, 1.0)
    V = np.zeros(d.shape + (2,))
    rows, cols = np.arange(len(d))[:, None], np.arange(2)
    V[rows, p, cols] = np.sqrt(a)
    V[rows, q, cols] = np.sqrt(1.0 - a)
    return V, pair_isotropy_residual(V, d)


def isotropic_pair(d: np.ndarray):
    """Two orthonormal vectors V (5 x 2) with conj(V)^T diag(d) V = 0, or
    one such V per block of a stack d (B, 5), as V (B, 5, 2).

    ``d`` holds the shifted eigenvalues (mu_m - lambda) of the block's five
    support points; feasibility requires 0 inside the rank-2 region of the
    normalized points. Deterministic, with no seeds and no iteration: every
    block takes the closed form of ``_closed_chain``, the whole stack at
    once, and a block whose closed form misses the residual gate or forms
    no frame takes the two-segment frame of ``_two_segment``; NoSolution
    when that misses too, for any block of the stack, for a support of
    other than five points, and for a point that is not finite. An empty
    stack (0, 5) gives an empty (0, 5, 2). The caller checks feasibility:
    this solve does not score the block's margin.
    """
    d = np.asarray(d, dtype=complex)
    stack = d.reshape(-1, d.shape[-1])
    if stack.shape[1] != 5:
        raise NoSolution(f"pair block needs 5 support points, "
                         f"got {stack.shape[1]}")
    if not len(stack):
        return np.zeros((0, 5, 2))
    if not np.isfinite(stack).all():
        raise NoSolution("pair block has a point that is not finite")
    if np.abs(stack).min() < 1e-14:
        raise NoSolution("target coincides with an eigenvalue in the block")
    nu = stack / np.abs(stack)
    V, r = _closed_chain(stack, nu)
    miss = np.flatnonzero(~(r <= BLOCK_RESIDUAL_GATE))
    if miss.size:
        V[miss], r[miss] = _two_segment(stack[miss], nu[miss])
        if not (r[miss] <= BLOCK_RESIDUAL_GATE).all():
            raise NoSolution(f"block pair residual stuck at "
                             f"{r[miss].max():.2e}")
    return V if d.ndim == 2 else V[0]
