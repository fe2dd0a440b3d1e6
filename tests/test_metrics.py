"""Dynamic range, SNR, processing gain and the acquisition-time model."""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caossim.runner
from caossim.metrics import (
    dynamic_range_db,
    encoding_time,
    measure_snr,
    noise_equivalent_irradiance,
    patch_report,
    processing_gain_db,
    processing_gain_notes,
    speedup,
)
from caossim.scenario import load_preset


class TestDynamicRange:
    def test_140db(self):
        assert dynamic_range_db(1e7, 1.0) == pytest.approx(140.0)

    def test_equal_is_zero(self):
        assert dynamic_range_db(1.0, 1.0) == 0.0

    def test_recovered_decade_ladder(self):
        assert dynamic_range_db(1.0, 1.028e-7) == pytest.approx(139.76, abs=5e-3)

    def test_nonpositive_min_rejected(self):
        with pytest.raises(ValueError):
            dynamic_range_db(1.0, 0.0)

    @given(
        st.floats(1e-6, 1e6), st.floats(1.0, 1e6), st.floats(1e-3, 1e3)
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_invariant(self, i_min, ratio, alpha):
        i_max = i_min * ratio
        a = dynamic_range_db(i_max, i_min)
        b = dynamic_range_db(alpha * i_max, alpha * i_min)
        assert a == pytest.approx(b, abs=1e-9)


class TestMeasureSnr:
    def test_uniform_patch(self):
        img = np.full((4, 4), 2.0)
        img[1:3, 1:3] = 10.0
        patch = np.zeros((4, 4), bool)
        patch[1:3, 1:3] = True
        snr, min_snr = measure_snr(img, patch, ~patch)
        assert snr == 5.0 and min_snr == 5.0

    def test_patch_at_noise_floor(self):
        img = np.full((4, 4), 1.0)
        patch = np.zeros((4, 4), bool)
        patch[0, 0] = True
        snr, min_snr = measure_snr(img, patch, ~patch)
        assert min_snr == pytest.approx(1.0)

    def test_zero_noise_reports_infinite(self):
        img = np.zeros((2, 2))
        img[0, 0] = 1.0
        patch = np.zeros((2, 2), bool)
        patch[0, 0] = True
        snr, min_snr = measure_snr(img, patch, ~patch)
        assert math.isinf(snr) and math.isinf(min_snr)

    def test_overlapping_masks_rejected(self):
        img = np.ones((2, 2))
        mask = np.ones((2, 2), bool)
        with pytest.raises(ValueError):
            measure_snr(img, mask, mask)


class TestProcessingGain:
    def test_q_65536(self):
        assert processing_gain_db(65536) == pytest.approx(45.154, abs=1e-3)

    def test_q_2_is_zero(self):
        assert processing_gain_db(2) == 0.0

    def test_q_16384_formula_value(self):
        assert processing_gain_db(16384) == pytest.approx(39.13, abs=5e-3)

    def test_notes_document_the_16384_discrepancy(self):
        text = "\n".join(processing_gain_notes(16384))
        assert "39.13" in text and "36.12" in text

    def test_notes_document_both_conventions(self):
        text = "\n".join(processing_gain_notes(65536))
        assert "45.15" in text and "48.16" in text


class TestNoiseEquivalentIrradiance:
    def test_hdr66_fm(self):
        # sigma 0.021 on Q = 2^16 samples, one carrier at fs / 8
        scenario = load_preset("hdr66-fm")
        plan = scenario.plan.build()
        (carrier,) = plan.channels
        nei = noise_equivalent_irradiance(scenario.noise.awgn_sigma, plan.Q, plan.fs / carrier)
        assert nei == pytest.approx(1.8e-4, rel=0.02)

    def test_is_sigma_over_a1_root_2q(self):
        # N -> infinity: a1 -> 1 / pi
        assert noise_equivalent_irradiance(1.0, 2, 1e9) == pytest.approx(math.pi / 2)
        assert noise_equivalent_irradiance(0.5, 8, 4.0) == pytest.approx(
            0.5 * 4 * math.sin(math.pi / 4) / 4)


class TestTimingModel:
    def test_seven_channel_acquisition(self):
        assert encoding_time(3600, 7, 0.25) == pytest.approx(128.75)

    def test_single_channel_acquisition(self):
        assert encoding_time(3600, 1, 0.25) == pytest.approx(900.0)

    def test_eight_channel_acquisition(self):
        assert encoding_time(1276, 8, 1.0) == pytest.approx(160.0)

    def test_speedups(self):
        assert speedup(900.0, 128.75) == pytest.approx(6.9903, abs=5e-5)
        assert speedup(1276.0, 160.0) == pytest.approx(7.975)
        assert speedup(3.0, 3.0) == 1.0

    @given(st.integers(1, 5000), st.integers(1, 64), st.floats(1e-3, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_ceiling_bounds(self, npix, P, T):
        t_multi = encoding_time(npix, P, T)
        t_single = encoding_time(npix, 1, T)
        assert t_single == pytest.approx(npix * T)
        assert t_multi <= t_single / P + T + 1e-9


class TestPatchReport:
    def test_noiseless_patches_reproduce_designed_dr(self):
        img = np.zeros((6, 9))
        masks = []
        designed = [1.0, 0.1, 0.01]
        for i, val in enumerate(designed):
            m = np.zeros((6, 9), bool)
            m[2:4, 3 * i + 1 : 3 * i + 2] = True
            img[m] = val
            masks.append(m)
        dark = img == 0.0
        rep = patch_report(img, masks, designed, dark)
        for e in rep.entries:
            assert e.measured_dr_db == pytest.approx(e.designed_dr_db, abs=1e-6)
        assert rep.measured_dr_db == pytest.approx(40.0, abs=1e-6)

    def test_csv_and_table_forms(self, tmp_path):
        img = np.zeros((4, 4))
        m = np.zeros((4, 4), bool)
        m[1, 1] = True
        img[1, 1] = 1.0
        rep = patch_report(img, [m], [1.0], img == 0.0)
        rep.write_csv(tmp_path / "p.csv")
        lines = (tmp_path / "p.csv").read_text(encoding="ascii").splitlines()
        assert lines[0] == ("designed_irradiance,measured_irradiance,designed_dr_db,"
                            "measured_dr_db,min_snr")
        assert lines[1:] == [",".join(map(repr, astuple(e))) for e in rep.entries]
        assert "Min SNR" in rep.format_table()

    def test_no_dark_reference_reports_infinite_snr(self):
        img = np.array([[1.0, 0.1], [1.0, 0.1]])
        left = np.array([[True, False], [True, False]])
        rep = patch_report(img, [left, ~left], [1.0, 0.1], np.zeros((2, 2), bool))
        assert all(math.isinf(e.min_snr) for e in rep.entries)
        assert rep.measured_dr_db == pytest.approx(20.0)

    @pytest.mark.parametrize("dim", [0.0, -0.002])
    def test_patch_that_is_not_detected_reads_nan(self, tmp_path, dim):
        # a patch below the floor decodes to 0 (an ADC LSB) or below it (noise)
        img = np.array([[dim, 1.0, 0.1]])
        masks = [img == v for v in (dim, 1.0, 0.1)]
        rep = patch_report(img, masks, [0.001, 1.0, 0.1], np.zeros((1, 3), bool))
        assert [math.isnan(e.measured_dr_db) for e in rep.entries] == [True, False, False]
        assert rep.measured_dr_db == pytest.approx(20.0)
        rep.write_csv(tmp_path / "p.csv")
        assert ",nan," in (tmp_path / "p.csv").read_text() and "nan" in rep.format_table()

    def test_no_patch_detected_reads_nan(self):
        img = np.array([[0.0, -1.0]])
        rep = patch_report(img, [img == 0.0, img == -1.0], [1.0, 0.1], np.zeros((1, 2), bool))
        assert all(math.isnan(e.measured_dr_db) for e in rep.entries)
        assert math.isnan(rep.measured_dr_db)
