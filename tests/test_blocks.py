import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankrange import (NoSolution, blocks, build_region, decomposition,
                       ingest_spectrum, interior_point, isotropic_pair,
                       pair_isotropy_residual, subspectrum_margin)

from clustered import clustered_phases


def feasible_instance(rng):
    while True:
        phases = np.sort(rng.uniform(0, 2 * np.pi, 5))
        es = ingest_spectrum(phases)
        lam = interior_point(build_region(es, 2))
        if lam is None:
            continue
        if subspectrum_margin(phases, 2, lam) < 1e-4:
            continue
        return es, lam


def test_random_blocks_full_isotropy():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(250):
        es, lam = feasible_instance(rng)
        d = es.eigenvalues() - lam
        V = isotropic_pair(d)
        worst = max(worst, pair_isotropy_residual(V, d))
    assert worst <= 1e-10


def test_block_deterministic():
    rng = np.random.default_rng(1)
    es, lam = feasible_instance(rng)
    d = es.eigenvalues() - lam
    V1 = isotropic_pair(d)
    V2 = isotropic_pair(d)
    assert np.array_equal(V1, V2)


def test_block_rejects_eigenvalue_target():
    es = ingest_spectrum([0.0, 1.0, 2.0, 3.5, 5.0])
    d = es.eigenvalues() - es.eigenvalue(2)
    with pytest.raises(NoSolution):
        isotropic_pair(d)


def test_block_needs_five_points():
    with pytest.raises(NoSolution):
        isotropic_pair(np.array([1.0, -1.0, 1j, -1j]))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), clustered=st.booleans())
def test_block_property_wide(seed, clustered):
    # uneven spectra, including tight angle clusters, as long as the target
    # keeps a real margin inside the rank-2 region of the five points
    rng = np.random.default_rng(seed)
    if clustered:
        base = rng.uniform(0, 2 * np.pi, 2)
        phases = np.sort(np.concatenate([
            base[0] + rng.uniform(0, 0.2, 3),
            base[1] + rng.uniform(0, 0.2, 2)]) % (2 * np.pi))
    else:
        phases = np.sort(rng.uniform(0, 2 * np.pi, 5))
    es = ingest_spectrum(phases)
    lam = interior_point(build_region(es, 2))
    if lam is None or subspectrum_margin(phases, 2, lam) < 1e-5:
        return
    d = es.eigenvalues() - lam
    V = isotropic_pair(d)
    assert pair_isotropy_residual(V, d) <= 1e-10


def frame_solve_block():
    """The shifted eigenvalues of the pair block of
    ``test_decomposition.py::test_frame_solve_closes_pair_block``, whose
    Newton chains miss the gate in both kernel orderings."""
    es = ingest_spectrum(clustered_phases(44, 3, 8))
    lam = -0.22069262232778145 + 0.6124527386670806j
    pieces = decomposition._planned_pieces(decomposition.plan(es, 3, lam))
    idx = [idx for kind, idx in pieces if kind == "block"]
    assert len(idx) == 1
    return es.eigenvalues()[np.array(idx[0]) - 1] - lam


def test_stacked_blocks_equal_blocks_alone(monkeypatch):
    # stacks of 1 to 4 blocks, each block == to it solved alone; one stack
    # holds a block that needs the frame solve beside blocks that close by
    # Newton, and only that block reaches it
    calls = []
    frame_solve = blocks.frame_solve

    def counted(d, *args):
        calls.append(d.copy())
        return frame_solve(d, *args)

    monkeypatch.setattr(blocks, "frame_solve", counted)
    rng = np.random.default_rng(19)
    plain = []
    for _ in range(12):
        es, lam = feasible_instance(rng)
        plain.append(es.eigenvalues() - lam)
    stacks = [np.array(plain[i:i + size])
              for i, size in ((0, 1), (1, 2), (3, 3), (6, 4))]
    hard = frame_solve_block()
    stacks.append(np.array([plain[10], hard, plain[11]]))
    for stack in stacks:
        alone = [isotropic_pair(d) for d in stack]
        calls.clear()
        got = isotropic_pair(stack)
        assert got.shape == (len(stack), 5, 2)
        for V, d in zip(alone, stack):
            assert pair_isotropy_residual(V, d) <= blocks.BLOCK_RESIDUAL_GATE
        assert np.array_equal(got, np.array(alone))
        assert len(calls) == any(d is hard or np.array_equal(d, hard)
                                 for d in stack)
    assert np.array_equal(calls[0], hard)
    # the stacked residual is each frame's own
    V = isotropic_pair(stacks[3])
    assert pair_isotropy_residual(V, stacks[3]).tolist() == \
        [pair_isotropy_residual(v, d) for v, d in zip(V, stacks[3])]


def test_stack_with_coincident_eigenvalue_raises():
    es = ingest_spectrum([0.0, 1.0, 2.0, 3.5, 5.0])
    d = es.eigenvalues() - es.eigenvalue(2)
    with pytest.raises(NoSolution):
        isotropic_pair(np.array([es.eigenvalues() - 0.1j, d]))


def test_frame_solve_closes_seven_point_seed():
    d = np.exp(2j * np.pi * np.arange(7) / 7)
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((7, 2))
                        + 1j * rng.standard_normal((7, 2)))
    # the seed closes after about 65 function evaluations and 28 Jacobians
    # of 2 * 7 * 2 = 28 columns each
    V = blocks.frame_solve(d, 2, [q])
    assert V is not None and pair_isotropy_residual(V, d) <= 1e-10


# --- the analytic-Jacobian Newton ------------------------------------------

def fd_balance(nu, b1, b2, t):
    kap = b1 + t * b2
    scale = np.abs(kap).sum()
    if scale == 0.0:
        return complex(np.inf)
    return complex((nu * np.abs(kap)).sum() / scale)


def fd_newton_root(nu, b1, b2, t0):
    """The damped Newton as it stood with a central-difference Jacobian
    (step 1e-7, four extra balance calls per step)."""
    t = t0
    f = fd_balance(nu, b1, b2, t)
    h = 1e-7
    for _ in range(blocks.NEWTON_ITERS):
        if abs(f) < 1e-16:
            break
        fx = (fd_balance(nu, b1, b2, t + h)
              - fd_balance(nu, b1, b2, t - h)) / (2 * h)
        fy = (fd_balance(nu, b1, b2, t + 1j * h)
              - fd_balance(nu, b1, b2, t - 1j * h)) / (2 * h)
        J = np.array([[fx.real, fy.real], [fx.imag, fy.imag]])
        try:
            step = np.linalg.solve(J, [-f.real, -f.imag])
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        for _ in range(30):
            cand = t + scale * (step[0] + 1j * step[1])
            fc = fd_balance(nu, b1, b2, cand)
            if abs(fc) < abs(f):
                t, f = cand, fc
                break
            scale *= 0.5
        else:
            break
    return t


def newton_pairs(width, count, seed):
    """(finite-difference root, analytic root, both balances) for both
    kernel orderings of ``count`` blocks: uniform phases (width None) or
    2 to 4 clusters of ``width``, each at the Chebyshev centre of its
    rank-2 region."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        if width is None:
            phases = np.sort(rng.uniform(0, 2 * np.pi, 5))
        else:
            phases = clustered_phases([seed, i], 2 + i % 3, 5, width)
        es = ingest_spectrum(phases)
        lam = interior_point(build_region(es, 2))
        if lam is None or subspectrum_margin(phases, 2, lam) < 1e-12:
            continue
        d = es.eigenvalues() - lam
        nu = d / np.abs(d)
        basis = blocks._kernel_basis(nu)
        for b1, b2 in ((basis[-2], basis[-1]), (basis[-1], basis[-2])):
            t0 = grid_root(nu, b1, b2)
            old = fd_newton_root(nu, b1, b2, t0)
            new = blocks._newton_root(nu, b1, b2, t0)
            out.append((old, new, abs(fd_balance(nu, b1, b2, old)),
                        abs(fd_balance(nu, b1, b2, new))))
    return out


def test_newton_root_matches_finite_differences():
    # a root is where the balance reaches rounding level; both versions
    # reach one from the same grid seeds, and it is the same root. Where
    # neither does (clustered blocks whose ordering has no root), the
    # isotropic_pair gate rejects either end point
    roots = 0
    for width in (None, 1e-1, 1e-2, 1e-3):
        for old, new, f_old, f_new in newton_pairs(width, 40, 7):
            assert (f_old < 1e-15) == (f_new < 1e-15), (width, old, new)
            if f_old < 1e-15:
                roots += 1
                assert abs(new - old) <= 1e-12 * max(1.0, abs(old)), width
    assert roots >= 200


def test_newton_converges_with_finite_differences_on_tight_clusters():
    # at width 1e-4 the balance is flat near its root (|f'| ~ 1e-5), so
    # rounding moves either root by up to ~5e-12; both still converge on
    # the same blocks
    pairs = newton_pairs(1e-4, 40, 8)
    assert sum(f < 1e-15 for _, _, f, _ in pairs) >= 10
    for old, new, f_old, f_new in pairs:
        assert (f_old < 1e-15) == (f_new < 1e-15), (old, new)
        if f_old < 1e-15:
            assert abs(new - old) <= 1e-9 * max(1.0, abs(old))


def grid_root(nu, b1, b2):
    """``blocks._grid_root`` of one block, as a stack of one."""
    return complex(blocks._grid_root(nu[None], b1[None], b2[None])[0])


def reference_grid_root(nu, b1, b2):
    """_grid_root as it stood, on the whole mirrored grid: the grid rebuilt
    as a complex meshgrid on every call, and |kappa| taken twice."""
    xs = blocks._GRID_XS
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    T = X + 1j * Y
    kap = b1[:, None, None] + T[None, :, :] * b2[:, None, None]
    scale = np.abs(kap).sum(axis=0)
    vals = np.abs((nu[:, None, None] * np.abs(kap)).sum(axis=0)) / scale
    idx = np.unravel_index(np.argmin(vals), vals.shape)
    return complex(T[idx])


def test_grid_is_mirrored():
    xs = blocks._GRID_XS
    assert xs.size == blocks.GRID and xs[0] == -blocks.SPAN
    assert np.array_equal(xs, -xs[::-1])
    assert np.abs(xs - np.linspace(-blocks.SPAN, blocks.SPAN,
                                   blocks.GRID)).max() <= 2e-15


def test_grid_root_matches_reference():
    # uniform blocks and clusters of width 1e-1 to 1e-6, both kernel
    # orderings, each at the Chebyshev centre of its rank-2 region (or the
    # eigenvalues' mean when the region has none): the half grid finds the
    # whole grid's point; a stack of all of them finds each one's
    rng = np.random.default_rng(15)
    count = 0
    stack = []
    for width in (None, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        for i in range(40):
            if width is None:
                phases = np.sort(rng.uniform(0, 2 * np.pi, 5))
            else:
                phases = clustered_phases([15, i], 2 + i % 3, 5, width)
            es = ingest_spectrum(phases)
            lam = interior_point(build_region(es, 2))
            if lam is None:
                lam = complex(es.eigenvalues().mean())
            d = es.eigenvalues() - lam
            if np.abs(d).min() < 1e-14:
                continue
            nu = d / np.abs(d)
            basis = blocks._kernel_basis(nu)
            for b1, b2 in ((basis[-2], basis[-1]), (basis[-1], basis[-2])):
                want = reference_grid_root(nu, b1, b2)
                assert grid_root(nu, b1, b2) == want, (width, i)
                stack.append((nu, b1, b2, want))
                count += 1
    assert count >= 500
    nu, b1, b2, want = map(np.array, zip(*stack))
    assert blocks._grid_root(nu, b1, b2).tolist() == want.tolist()
