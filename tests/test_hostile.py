"""Inputs that once ran without bound: each must finish within its own
deadline, with a witness or with a typed error.

At the Chebyshev centre of uniform spectra, a re-partition search over a
table of every index triple ran past 250 s at (148,50) and (299,100), and
at (2999,1000) it asked for all C(N,3) triangles (33.5 GiB). Those three
must be built by the block-first rung, with no block-first step
scoring more than its shortlist. With the shortlist made to give up, so
that every step scores the remainder of every candidate, the block-first
rung must still give a witness at the first two sizes within 10 s and 64
MiB of traced memory.

On a clustered (58,20) target and equally spaced (88,30) and (89,30)
ones, no partition into evenly spaced pair blocks exists. A least-squares
rung once spent 13 s to 38 s on the first two before ``NoSolution``; with
the paper's shared-vertex block in the block-first family, each must give
a witness that verifies within 2 s.

Two clustered (8,3) targets and one clustered (11,4) target once spent
4 s to 9 s in failed pair solves, the (8,3) ones before ``NoSolution``;
the closed-form pair solve closes their blocks, and each must now give a
witness that verifies within 2 s.

At N = 300,000 the 3k and rank-1 constructions held their triangles as
Python tuples and solved all N - 2 fan triangles, and peaked at 79 and 112
MiB of traced memory; each must now stay under its own bound.

A finite target of huge modulus once overflowed in the rank-1 scan, the
margins, the oracle and the verification, a warning that the tests turn
into an untyped failure; each must now give its normal answer.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from rankrange import (INSIDE, OUTSIDE, BruteForceOracle,
                       LambdaOutsideRegion, build_region, caratheodory_rank1,
                       construct_projector, contains, decomposition,
                       ingest_spectrum, interior_point, plan, region_margin,
                       verify_projector)
from rankrange.decomposition import subspectrum_margin

from clustered import clustered_phases
from deadline import deadline


@pytest.mark.parametrize("n, k, seed, seconds", [
    (148, 50, 0, 10.0),
    (299, 100, 0, 10.0),
    (2999, 1000, 3, 30.0),
])
def test_large_construction_finishes(monkeypatch, n, k, seed, seconds):
    scores = decomposition._remainder_scores

    def shortlisted(table, size, rest, lam):
        # a step that scores every candidate reads more remainders
        assert len(rest) <= decomposition.BLOCK_SHORTLIST, len(rest)
        return scores(table, size, rest, lam)

    monkeypatch.setattr(decomposition, "_remainder_scores", shortlisted)
    with deadline(seconds):
        es = ingest_spectrum(np.sort(
            np.random.default_rng(seed).uniform(0, 2 * np.pi, n)))
        lam = interior_point(build_region(es, k))
        proj = construct_projector(es, k, lam)
    assert proj.strategy == "blockwise"
    # the frame form of the check: for a spectrum input sigma is diagonal,
    # so P sigma P = lam P reads W^H diag(mu) W = lam I on the frame W
    W = proj.frame
    assert W.shape == (n, k)
    assert np.abs(W.conj().T @ W - np.eye(k)).max() <= 1e-9
    comp = W.conj().T @ (es.eigenvalues()[:, None] * W) - lam * np.eye(k)
    assert np.abs(comp).max() <= 1e-9
    if n < 1000:
        assert verify_projector(proj.matrix, es.matrix, lam, k).passed


@pytest.mark.parametrize("n, k", [(148, 50), (299, 100)])
def test_forced_search_is_bounded(monkeypatch, n, k):
    # with the shortlist made to give up, each block-first step scores
    # every candidate's remainder, in chunks, and builds the witness
    monkeypatch.setattr(decomposition, "_shortlist", lambda good, m: good[:0])
    es = ingest_spectrum(np.sort(
        np.random.default_rng(0).uniform(0, 2 * np.pi, n)))
    lam = interior_point(build_region(es, k))
    with deadline(10.0):
        tracemalloc.start()
        try:
            proj = construct_projector(es, k, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 64 * 2**20, peak
    assert proj.strategy == "blockwise"
    assert verify_projector(proj.matrix, es.matrix, lam, k).passed


@pytest.mark.parametrize("n, k, seed, limit_mb, seconds", [
    (30_000, 1, 0, 32, 20.0),
    (2999, 1000, 3, 72, 30.0),
])
def test_large_spectrum_input_holds_no_square_array(n, k, seed, limit_mb,
                                                    seconds):
    # a spectrum input keeps only its phases, and the construction never
    # reads its basis: one N x N complex array would take 14.4 GB at
    # N = 30,000 and 144 MB at N = 2999
    phases = np.sort(np.random.default_rng(seed).uniform(0, 2 * np.pi, n))
    with deadline(seconds):
        tracemalloc.start()
        try:
            es = ingest_spectrum(phases)
            lam = interior_point(build_region(es, k))
            proj = construct_projector(es, k, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        W = proj.frame
    assert peak <= limit_mb * 1e6, peak
    assert W.shape == (n, k)
    assert np.abs(W.conj().T @ W - np.eye(k)).max() <= 1e-9
    comp = W.conj().T @ (es.eigenvalues()[:, None] * W) - lam * np.eye(k)
    assert np.abs(comp).max() <= 1e-9


def test_scattered_frame_equals_gathered_frame():
    # in the standard basis the frame is scattered from the pieces; the
    # gather through the identity gives the same bits, whatever the rung
    rng = np.random.default_rng(4)
    cases = [(ingest_spectrum(np.zeros(5)), 2, 1.0 + 0j)]     # eigenspace
    for n, k in ((5, 2), (7, 1), (9, 3), (11, 4), (13, 5), (30, 1)):
        es = ingest_spectrum(rng.uniform(0, 2 * np.pi, n))
        cases.append((es, k, interior_point(build_region(es, k))))
    for es, k, lam in cases:
        proj = construct_projector(es, k, lam)
        assert proj.basis is None
        gathered = dataclasses.replace(proj, basis=es.basis).frame
        assert np.array_equal(proj.frame, gathered), (es.dim, k, proj.strategy)
        assert np.array_equal(es.basis, np.eye(es.dim))
        assert np.array_equal(es.matrix, np.diag(es.eigenvalues()))


@pytest.mark.parametrize("phases, k, lam", [
    # 4 clusters of width 1e-4: the first block-first step leaves a
    # remainder none of whose evenly spaced pair blocks holds the target
    (clustered_phases([2, 58, 1], 4, 58), 20,
     0.9185714874906576 + 0.17667316336147557j),
    # equally spaced, 0.99 of the way from the centre toward eigenvalue 1:
    # no evenly spaced pair block is feasible
    (2 * np.pi * np.arange(88) / 88, 30, 0.47445649586280525 + 0j),
    (2 * np.pi * np.arange(89) / 89, 30, 0.4848779828041661 + 0j),
], ids=["58-20-clustered", "88-30-spaced", "89-30-spaced"])
def test_missed_target_is_blockwise_witness_at_once(phases, k, lam):
    """Strictly interior targets that no partition into evenly spaced pair
    blocks builds: with the paper's shared-vertex block in the block-first
    family, each is a blockwise witness that verifies within 2 s."""
    es = ingest_spectrum(phases)
    assert contains(build_region(es, k), lam) == INSIDE
    with deadline(2.0):
        proj = construct_projector(es, k, lam)
        assert proj.strategy == "blockwise"
        assert verify_projector(proj.matrix, es.matrix, lam, k).passed


@pytest.mark.parametrize("phases, k, lam", [
    (clustered_phases([0, 8, 1], 4, 8), 3,
     0.6509080611338536 + 0.5969822708560122j),
    (clustered_phases([0, 8, 1], 4, 8), 3,
     0.6508978340523239 + 0.5971189096968988j),
    (clustered_phases([0, 11, 1], 4, 11), 4, -0.81224873 + 0.48334029j),
], ids=["8-3-clustered-a", "8-3-clustered-b", "11-4-clustered"])
def test_clustered_target_is_witness_at_once(phases, k, lam):
    """Clustered targets whose pair blocks Newton missed: the closed form
    closes them, and the witness verifies within 2 s."""
    es = ingest_spectrum(phases)
    assert contains(build_region(es, k), lam) == INSIDE
    with deadline(2.0):
        proj = construct_projector(es, k, lam)
        assert verify_projector(proj.matrix, es.matrix, lam, k).passed


@pytest.mark.parametrize("k, lam, limit_mib", [
    # traced peaks, change (parent): 59.9 (78.9) MiB, 55.2 (112.3) MiB;
    # each bound is about 15% and 30% above the change's
    (100_000, 0.01 + 0.02j, 69),
    (1, 0.3 - 0.2j, 72),
], ids=["3k", "rank1"])
def test_construction_peak_at_n300000(k, lam, limit_mib):
    # the 3k leaf keeps its triangles as one index array, and the rank-1
    # scan solves only the fan rows that can hold lam; a first call fills
    # the spectrum's own caches (its points and two turns), so that the
    # traced call holds only what the construction makes
    n = 300_000
    es = ingest_spectrum(np.sort(
        np.random.default_rng(0).uniform(0, 2 * np.pi, n)))
    with deadline(10.0):
        construct_projector(es, k, lam)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            proj = construct_projector(es, k, lam)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peak <= limit_mib * 2**20, peak
    assert proj.strategy == ("planned" if k > 1 else "caratheodory")
    assert proj.rank == k


HUGE = [1e308 + 1e308j, -1e308 + 0j, 1e308j]
HUGE_IDS = ["diagonal", "negative-real", "imaginary"]


@pytest.mark.parametrize("z", HUGE, ids=HUGE_IDS)
def test_huge_target_leaves_the_rank1_hull(z):
    es = ingest_spectrum(np.random.default_rng(0).uniform(0, 2 * np.pi, 9))
    with pytest.raises(LambdaOutsideRegion):
        caratheodory_rank1(es, z)
    with pytest.raises(LambdaOutsideRegion):
        plan(es, 1, z)


@pytest.mark.parametrize("z", HUGE, ids=HUGE_IDS)
def test_huge_target_is_outside_everywhere(z):
    # a negative margin, outside, and a report that fails the compression
    es = ingest_spectrum(np.random.default_rng(0).uniform(0, 2 * np.pi, 9))
    region = build_region(es, 3)
    assert region_margin(region, z) == 1.0 - abs(z)
    assert subspectrum_margin(es, 3, z, np.arange(9)) == 1.0 - abs(z)
    assert BruteForceOracle(es, 3).verdict(z) == OUTSIDE
    proj = construct_projector(es, 3, interior_point(region))
    report = verify_projector(proj.matrix, es.matrix, z, 3)
    assert not report.passed
    assert report.residuals["compression"] > 1e300
