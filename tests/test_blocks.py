import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankrange import (NoSolution, blocks, build_region, decomposition,
                       ingest_spectrum, interior_point, isotropic_pair,
                       pair_isotropy_residual, region_margin,
                       subspectrum_margin)

from clustered import clustered_phases


def feasible_instance(rng):
    while True:
        phases = np.sort(rng.uniform(0, 2 * np.pi, 5))
        es = ingest_spectrum(phases)
        lam = interior_point(build_region(es, 2))
        if lam is None:
            continue
        if subspectrum_margin(es, 2, lam, np.arange(5)) < 1e-4:
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
    if lam is None or subspectrum_margin(es, 2, lam, np.arange(5)) < 1e-5:
        return
    d = es.eigenvalues() - lam
    V = isotropic_pair(d)
    assert pair_isotropy_residual(V, d) <= 1e-10


def first_tier_misses(monkeypatch, hard, residual):
    """Patch the closed form so that on the block ``hard`` its residual
    reads ``residual`` (inf: no frame formed), and count the frame solves
    and their first seeds."""
    calls = []
    closed_chain, frame_solve = blocks._closed_chain, blocks.frame_solve

    def missing(d, nu):
        V, r = closed_chain(d, nu)
        return V, np.where((d == hard).all(axis=1), residual, r)

    def counted(d, k, seeds):
        calls.append((d.copy(), seeds[0]))
        return frame_solve(d, k, seeds)

    monkeypatch.setattr(blocks, "_closed_chain", missing)
    monkeypatch.setattr(blocks, "frame_solve", counted)
    return calls


def test_stacked_blocks_equal_blocks_alone(monkeypatch):
    # stacks of 1 to 4 blocks, each block == to it solved alone; one stack
    # holds a block on which the closed form is made to miss the gate
    # beside blocks that close by it, and only that block reaches the frame
    # solve, seeded first by its closed-form frame
    rng = np.random.default_rng(19)
    plain = []
    for _ in range(13):
        es, lam = feasible_instance(rng)
        plain.append(es.eigenvalues() - lam)
    hard = plain[12]
    closed = isotropic_pair(hard)
    calls = first_tier_misses(monkeypatch, hard,
                              2 * blocks.BLOCK_RESIDUAL_GATE)
    stacks = [np.array(plain[i:i + size])
              for i, size in ((0, 1), (1, 2), (3, 3), (6, 4))]
    stacks.append(np.array([plain[10], hard, plain[11]]))
    for stack in stacks:
        alone = [isotropic_pair(d) for d in stack]
        calls.clear()
        got = isotropic_pair(stack)
        assert got.shape == (len(stack), 5, 2)
        for V, d in zip(alone, stack):
            assert pair_isotropy_residual(V, d) <= blocks.BLOCK_RESIDUAL_GATE
        assert np.array_equal(got, np.array(alone))
        assert len(calls) == any(np.array_equal(d, hard) for d in stack)
    assert np.array_equal(calls[0][0], hard)
    assert np.array_equal(calls[0][1], closed)
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




def test_seven_point_support_goes_to_frame_solve(monkeypatch):
    # the closed form is for five points; a wider support goes straight to
    # the frame solve, from its fixed seeds, and its polish closes it
    seen = {"polish": 0, "frame_solve": 0}
    polish, frame_solve = blocks._polish, blocks.frame_solve

    def counted_polish(*args):
        seen["polish"] += 1
        return polish(*args)

    def counted_frame_solve(*args):
        seen["frame_solve"] += 1
        return frame_solve(*args)

    monkeypatch.setattr(blocks, "_polish", counted_polish)
    monkeypatch.setattr(blocks, "frame_solve", counted_frame_solve)
    d = np.exp(2j * np.pi * np.arange(7) / 7)
    V = isotropic_pair(d)
    assert V.shape == (7, 2)
    assert pair_isotropy_residual(V, d) <= blocks.BLOCK_RESIDUAL_GATE
    assert seen["frame_solve"] == 1 and seen["polish"] >= 1



def test_points_on_one_line_go_to_frame_solve(monkeypatch):
    # eigenvalues 1 (three times) and -1 (twice) about the target 0: the
    # points nu lie on one line through 0, the closed form's system is
    # singular and forms no frame, and the frame solve closes the block;
    # beside it in a stack, a block that the closed form closes is == to
    # that block solved alone
    calls = []
    frame_solve = blocks.frame_solve

    def counted(d, k, seeds):
        calls.append(d.copy())
        return frame_solve(d, k, seeds)

    monkeypatch.setattr(blocks, "frame_solve", counted)
    line = np.array([1, 1, 1, -1, -1], dtype=complex)
    V, r = blocks._closed_chain(line[None], line[None])
    assert r[0] == np.inf
    good = np.exp(2j * np.pi * (np.arange(5) + [0, 0.1, -0.1, 0.2, 0]) / 5)
    stack = np.array([good, line])
    V = isotropic_pair(stack)
    assert len(calls) == 1 and np.array_equal(calls[0], line)
    assert (pair_isotropy_residual(V, stack)
            <= blocks.BLOCK_RESIDUAL_GATE).all()
    assert np.array_equal(V[0], isotropic_pair(good))

# --- the closed form --------------------------------------------------------

def scan_targets(es, k):
    """The rate-of-use scan's targets: from the Chebyshev centre along 8
    directions, the boundary found by 60 bisection steps on region_margin,
    the points at 0.5, 0.9 and 0.99 of that distance whose margin exceeds
    1e-9."""
    region = build_region(es, k)
    c = interior_point(region)
    out = []
    for u in np.exp(2j * np.pi * np.arange(8) / 8):
        lo, hi = 0.0, 2.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if region_margin(region, c + mid * u) > 0:
                lo = mid
            else:
                hi = mid
        out += [complex(c + s * lo * u) for s in (0.5, 0.9, 0.99)
                if region_margin(region, c + s * lo * u) > 1e-9]
    return out


def clustered_blocks(sizes, kinds, seeds):
    """The distinct pair blocks (shifted eigenvalues, (B, 5)) that the
    planned and block-first rungs propose for the scan's targets on its
    clustered spectra ``clustered_phases([seed, n, kind], 3 + kind, n)``:
    a seeded slice of the scan, with no solve run to find them."""
    out = []
    for n, k in sizes:
        for kind in kinds:
            for seed in seeds:
                es = ingest_spectrum(clustered_phases([seed, n, kind],
                                                      3 + kind, n))
                for lam in scan_targets(es, k):
                    pieces = decomposition._planned_pieces(
                        decomposition.plan(es, k, lam))
                    if not decomposition._blocks_feasible(es, pieces, lam):
                        pieces = []
                    pieces += decomposition._blockwise_pieces(es, k, lam) \
                        or []
                    out += [es.mu[np.array(idx) - 1] - lam
                            for kind_, idx in pieces if kind_ == "block"]
    return np.unique(np.array(out), axis=0)


def test_clustered_blocks_close_without_frame_solve(monkeypatch):
    # clusters of width 1e-4 at (8,3) and (11,4): the grid-seeded Newton
    # that came before the closed form missed the gate on 39 of these
    # blocks in both kernel orderings; the closed form closes every one
    def no_frame_solve(*args):
        raise AssertionError("the frame solve was reached")

    monkeypatch.setattr(blocks, "frame_solve", no_frame_solve)
    D = clustered_blocks([(8, 3), (11, 4)], (1, 2), (0, 1))
    assert len(D) >= 250
    V = isotropic_pair(D)
    assert pair_isotropy_residual(V, D).max() <= 1e-14


def test_closed_form_solves_the_balance():
    # |kappa| solves sum_m nu_m |kappa_m| = 0, and kappa lies in the
    # complex kernel of [Re nu; Im nu; 1], to rounding; s is |kappa|
    rng = np.random.default_rng(25)
    D = np.array([es.eigenvalues() - lam for es, lam in
                  (feasible_instance(rng) for _ in range(100))])
    D = np.concatenate([D, clustered_blocks([(8, 3)], (1, 2), (0,))])
    nu = D / np.abs(D)
    s, kap, ok = blocks._closed_form(nu)
    assert ok.all()
    scale = np.abs(kap).sum(axis=1)
    assert (np.abs((nu * np.abs(kap)).sum(axis=1)) <= 1e-14 * scale).all()
    for row in (nu.real, nu.imag, np.ones(nu.shape)):
        assert (np.abs((row * kap).sum(axis=1)) <= 1e-14 * scale).all()
    assert (np.abs(np.abs(kap) - s).max(axis=1) <= 1e-14 * scale).all()


def reference_newton_frame(d):
    """The first tier before the closed form, kept as a reference: with
    b1, b2 the last two right singular vectors of [Re nu; Im nu; 1], the
    least point t of a 48 x 48 grid on [-6, 6]^2 of the balance f(t) =
    sum nu_m |kappa_m| / sum |kappa_m|, kappa = b1 + t b2, a damped
    Newton from there (central differences, at most 60 steps), and the
    rows and QR of that kappa. Returns the frame and its residual."""
    nu = d / np.abs(d)
    _, _, vt = np.linalg.svd(np.array([nu.real, nu.imag, np.ones(5)]))
    b1, b2 = vt[3], vt[4]

    def balance(t):
        mags = np.abs(b1 + np.multiply.outer(t, b2))
        return (mags * nu).sum(axis=-1) / mags.sum(axis=-1)

    xs = np.linspace(-6.0, 6.0, 48)
    grid = (xs[:, None] + 1j * xs[None, :]).ravel()
    t = grid[np.argmin(np.abs(balance(grid)))]
    f, h = balance(t), 1e-7
    for _ in range(60):
        if abs(f) < 1e-16:
            break
        fx = (balance(t + h) - balance(t - h)) / (2 * h)
        fy = (balance(t + 1j * h) - balance(t - 1j * h)) / (2 * h)
        J = np.array([[fx.real, fy.real], [fx.imag, fy.imag]])
        try:
            step = np.linalg.solve(J, [-f.real, -f.imag])
        except np.linalg.LinAlgError:
            break
        for scale in 0.5 ** np.arange(30):
            fc = balance(t + scale * (step[0] + 1j * step[1]))
            if abs(fc) < abs(f):
                t, f = t + scale * (step[0] + 1j * step[1]), fc
                break
        else:
            break
    kap = b1 + t * b2
    h = 2 * np.abs(kap) / np.abs(kap).sum()
    phi = np.angle(kap) / 2
    rows = np.sqrt(h)[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=1)
    V, _ = np.linalg.qr(rows / np.sqrt(np.abs(d))[:, None])
    return V, pair_isotropy_residual(V, d)


def test_closed_form_matches_newton_reference():
    # where the grid-seeded Newton closes a block, the closed form finds
    # the same root: the same frame, to rounding
    rng = np.random.default_rng(7)
    closed = 0
    for _ in range(150):
        es, lam = feasible_instance(rng)
        d = es.eigenvalues() - lam
        want, r = reference_newton_frame(d)
        if r <= blocks.BLOCK_RESIDUAL_GATE:
            closed += 1
            assert np.abs(isotropic_pair(d) - want).max() <= 1e-12
    assert closed >= 140
