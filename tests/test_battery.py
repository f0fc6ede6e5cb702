import numpy as np
import pytest

from rankrange.battery import (demo_battery, pick_target, random_instance,
                               run_one)
from rankrange import (ParseError, build_region, ingest_spectrum,
                       interior_point)


def test_battery_all_pass_and_covers_cases():
    records = demo_battery(seed=42, repeats=2)
    assert all(r.passed for r in records)
    cases = {r.case for r in records if not r.skipped}
    assert {"three_k", "three_k_minus_1", "three_k_minus_2",
            "rank1"} <= cases
    # the crafted empty-region instance is skipped, not failed
    skipped = [r for r in records if r.skipped]
    assert any(r.skipped == "empty region" for r in skipped)


@pytest.mark.parametrize("seed, repeats", [(1.5, 1), ("7", 1), (7, 1.0),
                                           (7, None), (-1, 1), (7, 0)])
def test_battery_reads_seed_and_repeats_typed(seed, repeats):
    # a negative seed failed inside numpy, a non-integer one untyped, and
    # no repeats ran the two crafted instances alone
    with pytest.raises(ParseError):
        demo_battery(seed=seed, repeats=repeats)


def test_battery_deterministic_modulo_walltime():
    a = demo_battery(seed=7, repeats=1)
    b = demo_battery(seed=7, repeats=1)
    for ra, rb in zip(a, b):
        da, db = ra.to_doc(), rb.to_doc()
        da.pop("wall_ms")
        db.pop("wall_ms")
        assert da == db


def test_pick_target_degenerate_point():
    es = ingest_spectrum([0.0, 0.0, 0.0])
    assert pick_target(es, 2) == 1 + 0j


def test_pick_target_empty():
    es = ingest_spectrum([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    assert pick_target(es, 2) is None


def test_single_point_region_has_no_target():
    # a (4,2) region is the crossing point of the two diagonals; the LP
    # lands on it with margin ~1e-17 for spectra 0, 18 and 20 of this stream,
    # a point ``contains`` calls boundary
    rng = np.random.default_rng(0)
    for _ in range(30):
        es = ingest_spectrum(np.sort(rng.uniform(0, 2 * np.pi, 4)))
        assert interior_point(build_region(es, 2)) is None
        assert pick_target(es, 2) is None


def test_record_names_the_rung_that_built_it():
    # the block-first rung builds the witness of this (11,4) instance, and
    # the record names it; it keeps no branch of the paper's template
    es = random_instance(np.random.default_rng(1), 11, True)
    rec = run_one(es, 4, "three_k_minus_1", True, 1)
    assert rec.passed and not rec.skipped
    assert rec.strategy == rec.to_doc()["strategy"] == "blockwise"
    assert "branch" not in rec.to_doc()
