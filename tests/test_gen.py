"""Scenario-based random instance generator.

Frozen expectations come straight from the scenario definitions: demand
ranges [22, 595] / [111, 3012] / [1619, 7147], period 14400, the three
timing pools, per-scenario mold-copy policies, and the group-based
compatibility template.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from curesched.bench import instance_to_json
from curesched.domain import validate_instance
from curesched.gen import SCENARIOS, ScenarioSpec, generate_instance
from curesched.horizon import compute_thb

TC_POOL = {416, 606, 668}
TQ_POOL = {252, 449, 622}
TV_POOL = {125, 180, 260, 300, 400, 420, 530, 550}

# sha256 over the sorted-key JSON of seeds 0-59, one digest per scenario;
# covers every corpus the benchmark draws (small 1-15, medium 1-10, large 1-5)
CORPUS_DIGESTS = {
    "small": "c37514e459eccdd81ef21bf318b84c470d40d6b20abb371ce6244668b261488e",
    "medium": "23ee5f9a4f9a5052b06445578aec79acf14ee6e85474418ba6b7097c42f53379",
    "large": "133931fc1aaa3a5c17a34f20c9153dfef07aced113d81d659cc706ac3b83c5b4",
}


def test_scenario_registry():
    assert set(SCENARIOS) == {"small", "medium", "large"}
    assert SCENARIOS["small"].demand_range == (22, 595)
    assert SCENARIOS["medium"].demand_range == (111, 3012)
    assert SCENARIOS["large"].demand_range == (1619, 7147)


def test_demands_stay_in_scenario_range():
    for name, spec in SCENARIOS.items():
        lo, hi = spec.demand_range
        for seed in range(10):
            inst = generate_instance(spec, seed)
            for m in inst.molds:
                assert lo <= m.demand <= hi, (name, seed, m)


def test_baseline_band_inside_range():
    for spec in SCENARIOS.values():
        lo, hi = spec.demand_range
        assert 0.8 * min(spec.demand_baselines) >= lo - 0.5
        assert 1.2 * max(spec.demand_baselines) <= hi + 0.5


def test_structural_choices_and_meta():
    seen_molds, seen_heaters = set(), set()
    for seed in range(25):
        inst = generate_instance(SCENARIOS["small"], seed)
        n_molds = len(inst.molds)
        n_heaters = len(inst.heaters)
        seen_molds.add(n_molds)
        seen_heaters.add(n_heaters)
        assert n_molds in (5, 7)
        assert n_heaters in (7, 12)
        if n_molds == 7:
            # molds 6 and 7 cure only in heaters 8..10
            assert n_heaters == 12, seed
        assert inst.meta["scenario"] == "small"
        assert inst.meta["seed"] == seed
        assert inst.meta["n_molds"] == n_molds
        assert inst.meta["n_heaters"] == n_heaters
    assert seen_molds == {5, 7}
    assert len(seen_heaters) == 2


def test_timing_pools_and_period():
    for name, spec in SCENARIOS.items():
        inst = generate_instance(spec, 3)
        assert inst.period_dmin == 14400
        for m in inst.molds:
            assert m.setup_dmin in TC_POOL, name
            assert m.removal_dmin in TQ_POOL, name
        for tv in inst.curing.values():
            assert tv in TV_POOL, name


def test_mold_copy_policy():
    for seed in range(8):
        small = generate_instance(SCENARIOS["small"], seed)
        assert all(m.copies == 1 for m in small.molds)
        medium = generate_instance(SCENARIOS["medium"], seed)
        assert all(m.copies == 2 for m in medium.molds)
        large = generate_instance(SCENARIOS["large"], seed)
        assert all(m.copies in (2, 10, 15) for m in large.molds)


def test_compatibility_template():
    # find a 7-mold draw to exercise the second group
    inst = next(generate_instance(SCENARIOS["small"], s) for s in range(50)
                if len(generate_instance(SCENARIOS["small"], s).molds) == 7)
    compat = set(inst.mold_compat)
    for m in inst.mold_ids:
        assert (m, m) in compat
    assert (1, 2) in compat and (6, 7) in compat
    # no cross-group pairing
    assert not any({i, j} & {1, 2, 3, 4, 5} and {i, j} & {6, 7}
                   for i, j in compat if i != j)
    for m in (1, 2, 3, 4, 5):
        assert set(inst.compat_heaters[m]) <= {1, 2, 3, 4, 5, 6, 7}
    for m in (6, 7):
        assert set(inst.compat_heaters[m]) <= {8, 9, 10}
        assert inst.compat_heaters[m]


def test_part_layout():
    small = generate_instance(SCENARIOS["small"], 1)
    assert len(small.parts) == 1
    (p1,) = small.parts
    assert (p1.id, p1.units, set(p1.molds)) == (1, 1, {1, 2})
    assert "part2_units" not in small.meta

    large = generate_instance(SCENARIOS["large"], 1)
    assert len(large.parts) == 2
    p2 = large.part_by_id[2]
    assert (p2.units, set(p2.molds)) == (2, {3, 4})
    assert large.meta["part2_units"] == 2


def test_determinism():
    for name, spec in SCENARIOS.items():
        a = generate_instance(spec, 7)
        b = generate_instance(spec, 7)
        assert a.name == b.name
        assert a.molds == b.molds
        assert a.heaters == b.heaters
        assert a.curing == b.curing
        assert a.mold_compat == b.mold_compat
        assert a.parts == b.parts
        assert a.meta == b.meta
    c = generate_instance(SCENARIOS["small"], 8)
    assert c.molds != generate_instance(SCENARIOS["small"], 7).molds or \
        c.curing != generate_instance(SCENARIOS["small"], 7).curing


def test_generated_corpus_frozen():
    for name, digest in CORPUS_DIGESTS.items():
        h = hashlib.sha256()
        for seed in range(60):
            doc = instance_to_json(generate_instance(SCENARIOS[name], seed))
            h.update(json.dumps(doc, sort_keys=True).encode())
        assert h.hexdigest() == digest, name


def test_generated_instances_are_admissible():
    for name, spec in SCENARIOS.items():
        for seed in range(6):
            inst = generate_instance(spec, seed)
            report = validate_instance(inst)
            assert report.ok, (name, seed, report.violations)
            assert compute_thb(inst) > 0


def test_baseline_override_and_clamping():
    sky_high = replace(SCENARIOS["large"],
                       demand_baselines=(99999,) * 7)
    inst = generate_instance(sky_high, 2)
    assert all(m.demand == 7147 for m in inst.molds)

    flat = replace(SCENARIOS["small"], demand_baselines=(100,) * 7)
    inst2 = generate_instance(flat, 2)
    assert all(80 <= m.demand <= 120 for m in inst2.molds)


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(size="tiny", demand_baselines=(1,), demand_range=(2, 1))
    with pytest.raises(ValueError):
        replace(SCENARIOS["small"], demand_baselines=())


def test_instance_names():
    assert generate_instance(SCENARIOS["small"], 1).name == "S01"
    assert generate_instance(SCENARIOS["medium"], 12).name == "M12"
    assert generate_instance(SCENARIOS["large"], 3).name == "L03"
