"""Carrier-ladder design and audit."""

import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caossim.freq_plan import (
    MainsGuardWarning,
    HarmonicCollision,
    available_slots,
    design_plan,
    plan_from_frequencies,
    validate_plan,
)
from caossim.runner import run
from caossim.scenario import scenario_from_dict
from caossim.waveform import SamplingWindow, fold_bin, folded_harmonic_bins

INVALID_SET = [1170.3, 1368.3, 1638.4, 2048.0, 2730.6, 4096.0, 8192.0]
VALID_SET = [128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0]


class TestDesignPlan:
    def test_eight_channel_ladder(self):
        plan = design_plan(T=1.0, p=16, m=7, P=8)
        assert plan.delta_f == 1.0 and plan.fs == 65536.0
        assert plan.channels == (64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0)
        assert plan.bins == (64, 128, 256, 512, 1024, 2048, 4096, 8192)

    def test_seven_channel_quarter_second(self):
        plan = design_plan(T=0.25, p=14, m=6, P=7)
        assert plan.delta_f == 4.0 and plan.fs == 65536.0
        assert plan.channels == (128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0)

    def test_minimal_plan_builds_silently_and_its_run_warns_once(self):
        # the mains guard is the audit's: design_plan builds the plan, the run warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = design_plan(T=1.0, p=3, m=1, P=1)
        assert plan.channels == (1.0,) and plan.fs == 8.0
        scenario = scenario_from_dict({
            "mode": "fm-tdma", "grid": {"rows": 1, "cols": 2},
            "target": {"kind": "uniform", "level": 1.0},
            "plan": {"T": 1.0, "p": 3, "m": 1, "P": 1}})
        with pytest.warns(MainsGuardWarning) as record:
            run(scenario)
        assert [w.category for w in record] == [MainsGuardWarning]

    def test_too_fast_carrier_rejected(self):
        plan = design_plan(T=1.0, p=16, m=14, P=2)  # f_2 = 16384 = fs/4, allowed
        assert plan.channels[-1] == 16384.0
        with pytest.raises(ValueError, match="fs/4"):
            design_plan(T=1.0, p=16, m=14, P=3)

    def test_exponents_too_large_for_a_float_are_named(self):
        with pytest.raises(ValueError, match="fs/4"):
            design_plan(T=1.0, p=6, m=2000, P=1)
        with pytest.raises(ValueError, match="p = 2000"):
            design_plan(T=1.0, p=2000, m=7, P=1)

    def test_designed_plans_pass_validation(self):
        for (T, p, m, P) in [(1.0, 16, 7, 8), (0.25, 14, 6, 7), (1.0, 12, 7, 4), (2.0, 10, 8, 2)]:
            plan = design_plan(T, p, m, P)
            report = validate_plan(plan.channels, plan.delta_f, plan.fs)
            assert report.passed, report.summary()
            assert not report.flagged_indices()

    def test_ladder_isolation_alias_aware(self):
        # odd harmonics of one channel never fold onto another channel's bin
        plan = design_plan(T=1.0, p=16, m=7, P=8)
        window = plan.window()
        for i, f in enumerate(plan.channels):
            n_per = int(plan.fs / f)
            folded = folded_harmonic_bins(f, window, n_per - 1)
            others = {b for j, b in enumerate(plan.bins) if j != i}
            assert not (folded & others), f"channel {f} folds onto {folded & others}"


class TestValidatePlan:
    def test_invalid_set_flags_1_2_3_5(self):
        report = validate_plan(INVALID_SET, delta_f=4.0, fs=65536.0)
        assert not report.passed
        assert report.flagged_indices() == (0, 1, 2, 4)
        assert report.not_multiple_of_delta_f == (1170.3, 1368.3, 1638.4, 2730.6)

    def test_valid_set_passes(self):
        report = validate_plan(VALID_SET, delta_f=4.0, fs=65536.0)
        assert report.passed
        assert report.flagged_indices() == ()

    def test_third_harmonic_collision_needs_its_source(self):
        # 6*fa alone with fa: no collision (even multiple of fa)
        fa = 64.0
        rep = validate_plan([fa, 6 * fa], delta_f=1.0, fs=65536.0)
        assert not rep.odd_harmonic_collision
        assert rep.not_power_of_two_ladder == (6 * fa,)
        # once 2*fa joins, 6*fa = 3 * (2*fa) collides and is charged to 6*fa
        rep = validate_plan([fa, 2 * fa, 6 * fa], delta_f=1.0, fs=65536.0)
        assert len(rep.odd_harmonic_collision) == 1
        hit = rep.odd_harmonic_collision[0]
        assert (hit.frequency, hit.source, hit.harmonic) == (6 * fa, 2 * fa, 3)

    def test_aliased_collision_detected(self):
        # 3*16384 = 49152 folds about fs=65536 onto 16384: self-fold only, no flag;
        # but 3*24576 = 73728 folds onto 8192 -> collision charged to 8192
        rep = validate_plan([8192.0, 24576.0], delta_f=1.0, fs=65536.0)
        hits = {(c.frequency, c.source, c.harmonic) for c in rep.odd_harmonic_collision}
        assert (8192.0, 24576.0, 3) in hits

    def test_permutation_invariant(self):
        rep_a = validate_plan(INVALID_SET, 4.0, 65536.0)
        rep_b = validate_plan(list(reversed(INVALID_SET)), 4.0, 65536.0)
        assert rep_a.not_multiple_of_delta_f == rep_b.not_multiple_of_delta_f
        assert rep_a.not_power_of_two_ladder == rep_b.not_power_of_two_ladder
        assert rep_a.odd_harmonic_collision == rep_b.odd_harmonic_collision

    def test_mains_guard_is_warning_not_failure(self):
        rep = validate_plan([32.0, 64.0], delta_f=1.0, fs=1024.0)
        assert rep.below_mains_guard == (32.0,)
        assert rep.passed

    def test_report_always_produced(self):
        rep = validate_plan([7.3], delta_f=2.0, fs=1024.0)
        assert not rep.passed and rep.frequencies == (7.3,)

    def test_off_ladder_member_is_blamed(self):
        report = validate_plan([96.0, 128.0], delta_f=1.0, fs=65536.0)
        assert report.not_power_of_two_ladder == (96.0,)
        assert report.flagged_indices() == (0,)

    @pytest.mark.parametrize(
        "freqs, fs",
        [
            ([3.0, 6.0], 64.0),  # relative ladder, fs/f not whole
            ([16.0, 32.0], 64.0),  # fs/32 has 2 samples per period
            ([100.0], 1024.0),
            ([1000.0, 2000.0], 60000.0),  # Q = fs/delta_f not a power of two
        ],
    )
    def test_carrier_not_fs_over_power_of_two_flagged(self, freqs, fs):
        report = validate_plan(freqs, delta_f=1.0, fs=fs)
        assert not report.passed
        assert report.not_power_of_two_ladder

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            validate_plan([], 1.0, 1024.0)

    def test_fs_not_a_whole_number_of_bins_rejected(self):
        with pytest.raises(ValueError, match="whole number of bins"):
            validate_plan([3.0], delta_f=3.0, fs=65536.0)

    @pytest.mark.parametrize("max_harmonic", [0, -1])
    def test_max_harmonic_below_1_rejected(self, max_harmonic):
        # an empty harmonic range would skip even the same-bin (h = 1) test
        with pytest.raises(ValueError, match="max_harmonic must be >= 1"):
            validate_plan([64.0, 64.0], delta_f=1.0, fs=65536.0, max_harmonic=max_harmonic)
        assert not validate_plan([64.0, 64.0], delta_f=1.0, fs=65536.0, max_harmonic=1).passed

    @pytest.mark.parametrize("freqs", [[64.0, 64.0], [64.0, 64.00000001]])
    def test_same_bin_is_a_harmonic_1_collision(self, freqs):
        report = validate_plan(freqs, delta_f=1.0, fs=65536.0)
        assert not report.passed and report.flagged_indices() == (0, 1)
        assert report.odd_harmonic_collision == tuple(sorted(
            HarmonicCollision(freqs[i], freqs[1 - i], 1) for i in (0, 1)
        ))

    def test_same_folded_bin_is_a_harmonic_1_collision(self):
        report = validate_plan([40000.0, 25536.0], delta_f=1.0, fs=65536.0)
        assert HarmonicCollision(25536.0, 40000.0, 1) in report.odd_harmonic_collision

    @pytest.mark.parametrize(
        "freqs, ladder_breaks", [([30000.00002], (30000.00002,)), ([8192.000005, 4096.0], ())]
    )
    def test_bin_exact_carrier_off_the_float_grid_gets_a_report(self, freqs, ladder_breaks):
        # whole_number puts each on a bin, although not to within 1e-6 of it
        report = validate_plan(freqs, delta_f=1.0, fs=65536.0)
        assert report.not_multiple_of_delta_f == () and not report.odd_harmonic_collision
        assert report.not_power_of_two_ladder == ladder_breaks


class TestMainsTone:
    """A mains tone on a carrier's bin adds to that carrier's reading."""

    @pytest.mark.parametrize("mains_hz", [128.0, 1024.0 - 128.0, 1024.0 + 128.0])
    def test_tone_on_a_carrier_bin_fails_that_carrier(self, mains_hz):
        # directly, or folded about fs from above fs/2 or from above fs
        report = validate_plan([64.0, 128.0], delta_f=1.0, fs=1024.0, mains_hz=mains_hz)
        assert not report.passed and report.on_mains_bin == (128.0,)
        assert report.flagged_indices() == (1,)
        assert "128.0 Hz: on the bin of the mains tone (noise.mains_freq)" in report.summary()

    @pytest.mark.parametrize("mains_hz", [None, 50.0, 128.5, 128 / 3, 0.0, 256.0])
    def test_tone_off_every_carrier_bin_passes(self, mains_hz):
        # off the bin grid, on another whole bin, at DC, or no tone at all
        report = validate_plan([64.0, 128.0], delta_f=1.0, fs=1024.0, mains_hz=mains_hz)
        assert report.passed and report.on_mains_bin == ()
        assert "mains tone" not in report.summary()

    def test_tone_on_the_bin_grid_of_a_coarser_window(self):
        # 50 Hz is off the 4 Hz grid, 52 Hz is bin 13 of it
        assert validate_plan([52.0], delta_f=4.0, fs=65536.0, mains_hz=50.0).on_mains_bin == ()
        report = validate_plan([52.0], delta_f=4.0, fs=65536.0, mains_hz=52.0)
        assert report.on_mains_bin == (52.0,)


def _float_fold(frequency, fs, delta_f):
    """The float fold of the earlier audit: fmod, reflect, round within 1e-6 of a bin."""
    r = math.fmod(frequency, fs)
    if r > fs / 2:
        r = fs - r
    b = r / delta_f
    assert abs(b - round(b)) <= 1e-6
    return round(b)


def _float_collisions(freqs, delta_f, fs, max_harmonic):
    """The earlier audit's O(n^2 H) scan over odd harmonics h >= 3."""
    hits = []
    for victim in freqs:
        for source in freqs:
            if source == victim:
                continue
            for h in range(3, max_harmonic + 1, 2):
                if _float_fold(h * source, fs, delta_f) == _float_fold(victim, fs, delta_f):
                    hits.append(HarmonicCollision(victim, source, h))
                    break
    return tuple(sorted(hits))


@st.composite
def _bin_carriers(draw):
    """A window (Q = 2**4..2**12), 1-6 carriers k * delta_f on distinct folded bins and
    a max_harmonic."""
    T, p = draw(st.sampled_from([1.0, 0.25, 0.3])), draw(st.integers(4, 12))
    window = SamplingWindow.design(T, p)
    ks = draw(st.lists(st.integers(1, window.Q), min_size=1, max_size=6,
                       unique_by=lambda k: fold_bin(k, window.Q)))
    return window, [k * window.delta_f for k in ks], draw(st.integers(1, 129))


class TestIntegerScanMatchesFloatFold:
    @settings(max_examples=300, deadline=None)
    @given(_bin_carriers())
    def test_same_collisions_as_the_float_fold(self, case):
        window, freqs, max_harmonic = case
        report = validate_plan(freqs, window.delta_f, window.fs, max_harmonic)
        assert all(c.harmonic >= 3 for c in report.odd_harmonic_collision)
        assert report.odd_harmonic_collision == _float_collisions(
            freqs, window.delta_f, window.fs, max_harmonic
        )


class TestAvailableSlots:
    def test_one_channel_used(self):
        fa = 64.0
        assert available_slots(fa, [fa]) == [2 * fa, 4 * fa, 6 * fa, 8 * fa]

    def test_two_channels_used(self):
        fa = 64.0
        assert available_slots(fa, [fa, 2 * fa]) == [4 * fa, 8 * fa]

    def test_three_channels_used(self):
        fa = 64.0
        assert available_slots(fa, [fa, 2 * fa, 4 * fa]) == [8 * fa]

    def test_cli_example(self):
        assert available_slots(64.0, [64.0, 128.0]) == [256.0, 512.0]

    def test_used_carrier_below_fa_rejected(self):
        # 100/1e12 is within whole_number's tolerance of multiple 0
        with pytest.raises(ValueError, match="used frequency 100.0 is below f_a"):
            available_slots(1e12, [100.0])

    @given(
        st.sets(st.integers(min_value=1, max_value=16), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_used_set(self, used_mults, extra):
        fa = 32.0
        used = sorted(m * fa for m in used_mults)
        wider = sorted(set(used) | {extra * fa})
        before = set(available_slots(fa, used, horizon=16))
        after = set(available_slots(fa, wider, horizon=16))
        assert after <= before


class TestPlanFromFrequencies:
    def test_carrier_above_half_fs_has_no_bin(self):
        with pytest.raises(ValueError, match="outside the spectrum"):
            plan_from_frequencies([40000.0, 4096.0], T=1.0, p=16)
        assert plan_from_frequencies([32768.0], T=1.0, p=16).bins == (32768,)

    def test_carrier_within_half_a_bin_above_half_fs_is_rejected(self):
        # 8.3 Hz has a nearest bin, 8 = Q/2, but lies above fs/2 = 8 Hz
        with pytest.raises(ValueError, match="8.3 Hz lies outside the spectrum 0..8 Hz"):
            plan_from_frequencies([2.0, 8.3], T=1.0, p=4)
        assert plan_from_frequencies([2.0, 8.0], T=1.0, p=4).bins == (2, 8)

    def test_wraps_invalid_set_with_nearest_bins(self):
        plan = plan_from_frequencies(INVALID_SET, T=0.25, p=14)
        assert plan.m is None
        assert plan.bins[0] == round(1170.3 / 4.0)
        assert plan.channels == tuple(INVALID_SET)
