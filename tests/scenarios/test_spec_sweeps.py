"""Tests for scenario specifications and sweep generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GridError, ReproError
from repro.scenarios import (
    Scenario,
    ScenarioSet,
    cartesian_sweep,
    combine,
    load_corner_sweep,
    metal_width_sweep,
    pad_current_sweep,
    tsv_design_sweep,
)


class TestScenario:
    def test_defaults_are_identity(self, small_stack):
        scenario = Scenario("nominal")
        applied = scenario.apply(small_stack)
        for tier, base in zip(applied.tiers, small_stack.tiers):
            np.testing.assert_array_equal(tier.loads, base.loads)
        np.testing.assert_array_equal(
            applied.pillars.r_seg, small_stack.pillars.r_seg
        )

    def test_global_load_scale(self, small_stack):
        applied = Scenario("hot", load_scale=1.5).apply(small_stack)
        for tier, base in zip(applied.tiers, small_stack.tiers):
            np.testing.assert_allclose(tier.loads, base.loads * 1.5)

    def test_per_tier_load_scale(self, small_stack):
        applied = Scenario(
            "mixed", load_scale=(0.5, 1.0, 2.0)
        ).apply(small_stack)
        for k, (tier, base) in enumerate(zip(applied.tiers, small_stack.tiers)):
            np.testing.assert_allclose(
                tier.loads, base.loads * (0.5, 1.0, 2.0)[k]
            )

    def test_per_tier_scale_count_checked(self, small_stack):
        with pytest.raises(GridError):
            Scenario("bad", load_scale=(1.0, 2.0)).apply(small_stack)

    def test_r_tsv_scale(self, small_stack):
        applied = Scenario("stiff", r_tsv_scale=4.0).apply(small_stack)
        np.testing.assert_allclose(
            applied.pillars.r_seg, small_stack.pillars.r_seg * 4.0
        )

    def test_apply_preserves_keepout(self, small_stack):
        applied = Scenario("hot", load_scale=2.0).apply(small_stack)
        assert applied.keepout_violations() == 0

    def test_apply_does_not_mutate_base(self, small_stack):
        before = [tier.loads.copy() for tier in small_stack.tiers]
        Scenario("hot", load_scale=3.0).apply(small_stack)
        for tier, loads in zip(small_stack.tiers, before):
            np.testing.assert_array_equal(tier.loads, loads)

    def test_validation(self):
        with pytest.raises(ReproError):
            Scenario("")
        with pytest.raises(ReproError):
            Scenario("neg", load_scale=-1.0)
        with pytest.raises(ReproError):
            Scenario("zero-r", r_tsv_scale=0.0)
        with pytest.raises(ReproError):
            Scenario("zero-w", plane_scale=0.0)
        with pytest.raises(ReproError):
            Scenario("neg-seg", r_seg_scale=-np.ones((3, 4)))
        with pytest.raises(ReproError):
            Scenario("flat-seg", r_seg_scale=np.ones(4))

    def test_plane_scale_scales_all_conductances(self, small_stack):
        applied = Scenario("wide", plane_scale=1.25).apply(small_stack)
        for tier, base in zip(applied.tiers, small_stack.tiers):
            np.testing.assert_allclose(tier.g_h, base.g_h * 1.25)
            np.testing.assert_allclose(tier.g_v, base.g_v * 1.25)
            np.testing.assert_allclose(tier.g_pad, base.g_pad * 1.25)
            np.testing.assert_array_equal(tier.loads, base.loads)

    def test_per_tier_plane_scale(self, small_stack):
        applied = Scenario(
            "graded", plane_scale=(0.8, 1.0, 1.2)
        ).apply(small_stack)
        for k, (tier, base) in enumerate(zip(applied.tiers, small_stack.tiers)):
            np.testing.assert_allclose(
                tier.g_h, base.g_h * (0.8, 1.0, 1.2)[k]
            )

    def test_r_seg_scale_per_segment(self, small_stack):
        spread = np.random.default_rng(0).lognormal(
            0, 0.2, size=small_stack.pillars.r_seg.shape
        )
        applied = Scenario(
            "spread", r_tsv_scale=2.0, r_seg_scale=spread
        ).apply(small_stack)
        np.testing.assert_allclose(
            applied.pillars.r_seg,
            small_stack.pillars.r_seg * 2.0 * spread,
        )

    def test_r_seg_scale_shape_checked_on_apply(self, small_stack):
        with pytest.raises(GridError):
            Scenario(
                "bad-seg", r_seg_scale=np.ones((2, 2))
            ).apply(small_stack)

    def test_describe_reports_new_knobs(self):
        record = Scenario(
            "w", plane_scale=(0.9, 1.1),
            r_seg_scale=np.full((2, 3), 2.0),
        ).describe()
        assert record["plane_scale"] == "0.9x1.1"
        assert "r_seg_spread" in record
        assert "plane_scale" not in Scenario("plain").describe()


class TestScenarioSet:
    def test_unique_names_enforced(self):
        with pytest.raises(ReproError):
            ScenarioSet([Scenario("a"), Scenario("a")])

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            ScenarioSet([])

    def test_ensure_coerces(self):
        single = ScenarioSet.ensure(Scenario("one"))
        assert len(single) == 1
        again = ScenarioSet.ensure(single)
        assert again is single

    def test_matrices(self):
        scenarios = ScenarioSet(
            [
                Scenario("a", load_scale=2.0, r_tsv_scale=3.0),
                Scenario("b", load_scale=(1.0, 0.5, 0.25)),
            ]
        )
        scales = scenarios.load_scale_matrix(3)
        np.testing.assert_allclose(scales[:, 0], 2.0)
        np.testing.assert_allclose(scales[:, 1], (1.0, 0.5, 0.25))
        np.testing.assert_allclose(scenarios.r_scale_vector(), (3.0, 1.0))

    def test_index_of(self):
        scenarios = ScenarioSet([Scenario("a"), Scenario("b")])
        assert scenarios.index_of("b") == 1

    def test_index_of_missing_name(self):
        scenarios = ScenarioSet([Scenario("a"), Scenario("b")])
        with pytest.raises(ReproError, match="zz"):
            scenarios.index_of("zz")

    def test_plane_scale_matrix_and_r_seg_table(self):
        spread = np.full((2, 3), 1.5)
        scenarios = ScenarioSet(
            [
                Scenario("a", plane_scale=2.0),
                Scenario("b", plane_scale=(0.5, 1.0)),
                Scenario("c", r_tsv_scale=2.0, r_seg_scale=spread),
            ]
        )
        alpha = scenarios.plane_scale_matrix(2)
        np.testing.assert_allclose(alpha[:, 0], 2.0)
        np.testing.assert_allclose(alpha[:, 1], (0.5, 1.0))
        np.testing.assert_allclose(alpha[:, 2], 1.0)
        base = np.full((2, 3), 0.05)
        table = scenarios.r_seg_table(base)
        assert table.shape == (2, 3, 3)
        np.testing.assert_allclose(table[..., 0], base)
        np.testing.assert_allclose(table[..., 2], base * 3.0)


class TestSweepGenerators:
    def test_pad_current_sweep(self):
        scenarios = pad_current_sweep((0.5, 1.0))
        assert [s.load_scale for s in scenarios] == [0.5, 1.0]
        assert len({s.name for s in scenarios}) == 2

    def test_load_corner_sweep_cartesian(self):
        scenarios = load_corner_sweep(3, (0.7, 1.3))
        assert len(scenarios) == 8
        assert all(len(s.load_scale) == 3 for s in scenarios)
        assert len({s.name for s in scenarios}) == 8

    def test_tsv_design_sweep(self):
        scenarios = tsv_design_sweep((0.5, 2.0))
        assert [s.r_tsv_scale for s in scenarios] == [0.5, 2.0]

    def test_cartesian_sweep_composes(self):
        grid = cartesian_sweep(
            pad_current_sweep((0.5, 1.0)), tsv_design_sweep((1.0, 2.0))
        )
        assert len(grid) == 4
        ScenarioSet(grid)  # names stay unique
        stiff = [s for s in grid if s.r_tsv_scale == 2.0]
        assert {s.load_scale for s in stiff} == {0.5, 1.0}

    def test_metal_width_sweep(self):
        scenarios = metal_width_sweep((0.9, 1.1))
        assert [s.plane_scale for s in scenarios] == [0.9, 1.1]
        assert all(s.load_scale == 1.0 for s in scenarios)

    def test_combine_per_tier(self):
        a = Scenario("a", load_scale=(1.0, 2.0))
        b = Scenario("b", load_scale=0.5, r_tsv_scale=2.0)
        c = combine(a, b)
        assert c.load_scale == (0.5, 1.0)
        assert c.r_tsv_scale == 2.0

    def test_combine_plane_and_seg_scales(self):
        spread = np.full((2, 2), 1.1)
        a = Scenario("a", plane_scale=(0.9, 1.1), r_seg_scale=spread)
        b = Scenario("b", plane_scale=2.0, r_seg_scale=spread)
        c = combine(a, b)
        assert c.plane_scale == (1.8, 2.2)
        np.testing.assert_allclose(c.r_seg_scale, spread * spread)
        d = combine(a, Scenario("plain"))
        np.testing.assert_allclose(d.r_seg_scale, spread)

    def test_combine_mismatched_tiers_rejected(self):
        with pytest.raises(ReproError):
            combine(
                Scenario("a", load_scale=(1.0, 2.0)),
                Scenario("b", load_scale=(1.0, 2.0, 3.0)),
            )

    def test_empty_inputs_rejected(self):
        with pytest.raises(ReproError):
            pad_current_sweep(())
        with pytest.raises(ReproError):
            load_corner_sweep(0)
        with pytest.raises(ReproError):
            tsv_design_sweep(())
        with pytest.raises(ReproError):
            cartesian_sweep()


class TestStimulusSpec:
    def test_step_scale_at(self):
        from repro.scenarios import StimulusSpec

        spec = StimulusSpec(kind="step", t_event=1e-9, before=0.2, after=1.4)
        assert spec.scale_at(0.0) == 0.2
        assert spec.scale_at(1e-9) == 1.4  # inclusive at the event
        assert spec.scale_at(5e-9) == 1.4
        assert spec.settles_at() == 1e-9
        assert spec.label() == "step(0.2->1.4)"

    def test_ramp_interpolates_linearly(self):
        from repro.scenarios import StimulusSpec

        spec = StimulusSpec(
            kind="ramp", t_event=1e-9, before=0.0, after=1.0, rise=2e-9
        )
        assert spec.scale_at(0.5e-9) == 0.0
        assert spec.scale_at(2e-9) == pytest.approx(0.5)
        assert spec.scale_at(3e-9) == pytest.approx(1.0)
        assert spec.scale_at(4e-9) == 1.0
        assert spec.settles_at() == pytest.approx(3e-9)

    def test_pulse_cycles_and_never_settles(self):
        from repro.scenarios import StimulusSpec

        spec = StimulusSpec(
            kind="pulse", period=2e-9, before=0.2, after=1.0, duty=0.25
        )
        assert spec.scale_at(0.0) == 1.0
        assert spec.scale_at(0.6e-9) == 0.2
        assert spec.scale_at(2.1e-9) == 1.0
        assert spec.settles_at() is None

    def test_validation(self):
        from repro.scenarios import StimulusSpec

        with pytest.raises(ReproError):
            StimulusSpec(kind="sine")
        with pytest.raises(ReproError):
            StimulusSpec(kind="step", before=-0.1)
        with pytest.raises(ReproError):
            StimulusSpec(kind="ramp", rise=0.0)
        with pytest.raises(ReproError):
            StimulusSpec(kind="step", rise=1e-9)
        with pytest.raises(ReproError):
            StimulusSpec(kind="pulse", period=0.0)
        with pytest.raises(ReproError):
            StimulusSpec(kind="pulse", period=1e-9, duty=1.0)

    def test_as_stimulus_scales_base_loads(self):
        from repro.scenarios import StimulusSpec

        spec = StimulusSpec(kind="step", t_event=1e-9, before=0.5, after=2.0)
        base = [np.ones((2, 2)), np.full((2, 2), 3.0)]
        stim = spec.as_stimulus(base)
        np.testing.assert_allclose(stim(0.0)[0], 0.5)
        np.testing.assert_allclose(stim(2e-9)[1], 6.0)


class TestTransientSweepGenerators:
    def test_load_step_sweep(self):
        from repro.scenarios import load_step_sweep

        sweep = load_step_sweep((0.5, 1.5), t_step=1e-9, before=0.2)
        assert [s.name for s in sweep] == ["step-to-0.5", "step-to-1.5"]
        assert all(s.stimulus.kind == "step" for s in sweep)
        assert sweep[1].stimulus.after == 1.5
        with pytest.raises(ReproError):
            load_step_sweep((), t_step=1e-9)

    def test_ramp_shape_sweep_zero_rise_degenerates_to_step(self):
        from repro.scenarios import ramp_shape_sweep

        sweep = ramp_shape_sweep((0.0, 1e-9), t_start=0.5e-9)
        assert sweep[0].stimulus.kind == "step"
        assert sweep[1].stimulus.kind == "ramp"
        assert sweep[1].stimulus.rise == 1e-9

    def test_pulse_shape_sweep(self):
        from repro.scenarios import pulse_shape_sweep

        sweep = pulse_shape_sweep((0.25, 0.75), period=4e-9)
        assert all(s.stimulus.kind == "pulse" for s in sweep)
        assert sweep[0].stimulus.duty == 0.25

    def test_decap_placement_sweep(self):
        from repro.scenarios import decap_placement_sweep

        sweep = decap_placement_sweep(3, boosts=(4.0,))
        assert sweep[0].cap_scale == 1.0  # uniform baseline
        assert [s.cap_scale for s in sweep[1:]] == [
            (4.0, 1.0, 1.0),
            (1.0, 4.0, 1.0),
            (1.0, 1.0, 4.0),
        ]
        no_base = decap_placement_sweep(3, boosts=(2.0,),
                                        include_uniform=False)
        assert len(no_base) == 3
        with pytest.raises(ReproError):
            decap_placement_sweep(3, boosts=(-1.0,))


class TestCombineTransientKnobs:
    def test_cap_scales_multiply_per_tier(self):
        from repro.scenarios import combine

        merged = combine(
            Scenario("a", cap_scale=(2.0, 1.0, 1.0)),
            Scenario("b", cap_scale=3.0),
        )
        assert merged.cap_scale == (6.0, 3.0, 3.0)

    def test_single_stimulus_propagates(self):
        from repro.scenarios import StimulusSpec, combine

        spec = StimulusSpec(kind="step", t_event=1e-9, before=0.2, after=1.0)
        merged = combine(
            Scenario("wave", stimulus=spec), Scenario("corner", load_scale=2.0)
        )
        assert merged.stimulus is spec
        assert merged.load_scale == 2.0

    def test_two_stimuli_rejected(self):
        from repro.scenarios import StimulusSpec, combine

        spec = StimulusSpec(kind="step", t_event=1e-9)
        with pytest.raises(ReproError):
            combine(
                Scenario("a", stimulus=spec), Scenario("b", stimulus=spec)
            )

    def test_tier_cap_scales_broadcast(self):
        scenario = Scenario("x", cap_scale=2.0)
        np.testing.assert_allclose(
            scenario.tier_cap_scales(3), [2.0, 2.0, 2.0]
        )
        with pytest.raises(GridError):
            Scenario("y", cap_scale=(1.0, 2.0)).tier_cap_scales(3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "field, shape",
    [
        ("load_scale", None),
        ("load_scale", 3),
        ("r_tsv_scale", None),
        ("plane_scale", None),
        ("plane_scale", 3),
        ("r_seg_scale", (3, 4)),
        ("cap_scale", None),
        ("cap_scale", 3),
    ],
)
def test_non_finite_scales_are_refused(field, shape, bad):
    """NaN passes a plain ``< 0`` / ``<= 0`` check; every scale must be
    finite, scalar or per tier, and the error names the field."""
    if shape is None:
        value = bad
    else:
        value = np.ones(shape)
        value.flat[-1] = bad
        value = value if field == "r_seg_scale" else tuple(value)
    with pytest.raises(ReproError, match=field):
        Scenario("bad", **{field: value})
