"""Tests for the fault plane itself: rules, determinism, site registry."""

import pytest

from repro.faults import (
    SITES,
    CorruptBytes,
    FaultConfigError,
    FaultKind,
    FaultPlane,
    FaultRule,
    InjectedIOError,
    SimCrash,
    TornWrite,
    build_scenario,
    scenario_names,
)
from repro.hooks import SITES as HOOK_SITES, detach
from repro.kml import model_io
from repro.os_sim import make_stack


class TestSiteRegistry:
    def test_every_site_is_a_hook_site_with_kinds(self):
        for name, kinds in SITES.items():
            assert kinds, name
            assert all(isinstance(k, FaultKind) for k in kinds)
            assert name in HOOK_SITES

    def test_unknown_site_rejected(self):
        plane = FaultPlane()
        with pytest.raises(FaultConfigError, match="unknown injection site"):
            plane.inject("no.such.site", FaultKind.ERROR)
        with pytest.raises(KeyError, match="unknown hook site"):
            plane.hook("no.such.site")

    def test_disallowed_kind_rejected(self):
        with pytest.raises(FaultConfigError, match="does not support"):
            FaultPlane().inject("buffer.push", FaultKind.TORN_WRITE)


class TestRuleValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"probability": 1.5},
            {"probability": -0.1},
            {"nth": 0},
            {"every": 0},
            {"after": -1},
            {"keep_fraction": 2.0},
            {"delay_s": -1.0},
            {"corrupt": "scribble"},
        ],
    )
    def test_bad_parameters(self, kwargs):
        rule = FaultRule(site="vfs.write", kind=FaultKind.ERROR, **kwargs)
        with pytest.raises(FaultConfigError):
            rule.validate()


class TestTriggering:
    def _fire_pattern(self, plane, site, n):
        handle = plane.hook(site)
        pattern = []
        for _ in range(n):
            try:
                pattern.append(handle.fire() is not None)
            except (InjectedIOError, SimCrash):
                pattern.append(True)
        return pattern

    def test_nth_fires_exactly_once(self):
        plane = FaultPlane().inject("vfs.fsync", FaultKind.ERROR, nth=4)
        pattern = self._fire_pattern(plane, "vfs.fsync", 10)
        assert pattern == [False] * 3 + [True] + [False] * 6

    def test_every_with_after(self):
        plane = FaultPlane().inject(
            "vfs.fsync", FaultKind.ERROR, every=3, after=2
        )
        pattern = self._fire_pattern(plane, "vfs.fsync", 12)
        # Evals 1,2 skipped; then every 3rd past the offset: 5, 8, 11.
        assert [i + 1 for i, hit in enumerate(pattern) if hit] == [5, 8, 11]

    def test_max_injections_caps(self):
        plane = FaultPlane().inject(
            "vfs.fsync", FaultKind.ERROR, every=1, max_injections=2
        )
        pattern = self._fire_pattern(plane, "vfs.fsync", 10)
        assert sum(pattern) == 2 and pattern[0] and pattern[1]

    def test_probability_zero_never_triggers(self):
        plane = FaultPlane().inject("vfs.fsync", FaultKind.ERROR, probability=0.0)
        assert not any(self._fire_pattern(plane, "vfs.fsync", 50))
        assert plane.rules_for("vfs.fsync")[0].evals == 50

    def test_seeded_probability_is_deterministic(self):
        def pattern(seed):
            plane = FaultPlane(seed=seed).inject(
                "vfs.fsync", FaultKind.ERROR, probability=0.3
            )
            return self._fire_pattern(plane, "vfs.fsync", 200)

        a, b, other = pattern(7), pattern(7), pattern(8)
        assert a == b
        assert a != other  # astronomically unlikely to collide
        assert 20 < sum(a) < 120  # roughly the configured rate

    def test_site_resolution_is_none_without_rules(self):
        plane = FaultPlane().inject("vfs.write", FaultKind.ERROR)
        fs = make_stack("nvme").fs
        plane.attach(fs)
        assert fs._write_hook is plane.hook("vfs.write")
        assert fs._fsync_hook is None and fs._read_hook is None
        plane.attach(model_io)
        try:
            assert model_io._load_hook is None
        finally:
            detach(model_io)

    def test_injection_accounting(self):
        plane = FaultPlane().inject("vfs.fsync", FaultKind.ERROR, nth=2)
        self._fire_pattern(plane, "vfs.fsync", 5)
        assert plane.injection_counts() == {("vfs.fsync", "error"): 1}
        assert "vfs.fsync" in plane.describe()


class TestActions:
    def test_torn_write_always_keeps_less_than_all(self):
        torn = TornWrite("vfs.write", keep_fraction=1.0)
        for size in range(1, 12):
            assert 0 <= torn.keep_bytes(size) < size
        with pytest.raises(SimCrash):
            torn.crash()

    def test_corrupt_bitflip_and_truncate(self):
        import random

        data = bytes(range(64))
        flip = CorruptBytes("bitflip", random.Random(1))
        flipped = flip.apply(data)
        assert len(flipped) == len(data)
        assert sum(a != b for a, b in zip(flipped, data)) == 1
        cut = CorruptBytes("truncate", random.Random(1))
        assert len(cut.apply(data)) < len(data)

    def test_error_carries_transient_flag(self):
        plane = FaultPlane().inject(
            "device.submit", FaultKind.ERROR, transient=False
        )
        with pytest.raises(InjectedIOError) as excinfo:
            plane.hook("device.submit").fire()
        assert excinfo.value.transient is False
        assert isinstance(excinfo.value, OSError)


class TestScenarios:
    def test_all_named_scenarios_build(self):
        for name in scenario_names():
            plane = build_scenario(name, seed=3)
            assert plane.num_rules >= 1, name

    def test_unknown_scenario(self):
        with pytest.raises(FaultConfigError):
            build_scenario("definitely-not-a-scenario")
