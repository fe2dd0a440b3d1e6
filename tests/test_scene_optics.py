"""Grating geometry, calibration mapping and test-target generators."""

import math

import numpy as np
import pytest

from caossim.scene_optics import (
    CaosGrid,
    OpticsConfig,
    Scene,
    SpectralAnchor,
    angular_dispersion,
    check_lens_constraints,
    column_to_wavelength,
    grating_beta,
    hdr_patch_masks,
    make_hdr_patch_target,
    make_spectral_line_scene,
    planck_weight,
    spectral_width_per_column,
    wavelength_to_column,
)

CONFIG = OpticsConfig()  # 600 lines/mm, 6 deg, CF 3/6/3 cm
ANCHORS = [SpectralAnchor(732.0, 0.0), SpectralAnchor(399.0, 51.0)]


class TestGratingGeometry:
    def test_beta_750(self):
        # arcsin(0.45 - sin 6 deg) evaluated independently
        expected = math.asin(0.6 * 750e-3 - math.sin(math.radians(6.0)))
        assert grating_beta(750.0, CONFIG) == pytest.approx(expected, abs=1e-12)
        assert grating_beta(750.0, CONFIG) == pytest.approx(0.3527, abs=2e-4)

    def test_zero_wavelength_is_specular(self):
        assert grating_beta(0.0, CONFIG) == pytest.approx(-math.radians(6.0))

    def test_evanescent_rejected(self):
        with pytest.raises(ValueError, match="evanescent"):
            grating_beta(1900.0, CONFIG)

    def test_dispersion_near_vendor_value(self):
        d = angular_dispersion(750.0, CONFIG)
        assert abs(d - 1.62) / 1.62 < 0.10  # vendor-spec tolerance band
        assert d == pytest.approx(1.564, abs=1e-3)

    def test_dispersion_monotone_decreasing_in_wavelength(self):
        values = [angular_dispersion(lam, CONFIG) for lam in (400, 500, 600, 700, 750)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_dispersion_vanishes_at_evanescent_edge(self):
        # sin(beta) -> 1 as lambda -> (1 + sin alpha) / f_g
        lam_edge = (1.0 + math.sin(math.radians(6.0))) / 0.6 * 1e3 - 0.05
        assert angular_dispersion(lam_edge, CONFIG) < 0.07

    def test_dispersion_consistent_with_beta_derivative(self):
        for lam in (450.0, 600.0, 732.0):
            h = 1e-4
            dbeta = (grating_beta(lam + h, CONFIG) - grating_beta(lam - h, CONFIG)) / (2 * h)
            # angular_dispersion is d(lambda)/d(beta) in nm/mrad = 1e-3 / (rad/nm)
            assert angular_dispersion(lam, CONFIG) * dbeta == pytest.approx(1e-3, rel=1e-6)


class TestWavelengthColumnMap:
    def test_anchor_passthrough(self):
        assert wavelength_to_column(732.0, CONFIG, ANCHORS) == pytest.approx(0.0, abs=1e-9)
        assert wavelength_to_column(399.0, CONFIG, ANCHORS) == pytest.approx(51.0, abs=1e-9)

    def test_midpoint_in_beta_maps_to_column_midpoint(self):
        b_mid = 0.5 * (grating_beta(732.0, CONFIG) + grating_beta(399.0, CONFIG))
        lam_mid = (math.sin(b_mid) + math.sin(math.radians(6.0))) / 0.6 * 1e3
        assert wavelength_to_column(lam_mid, CONFIG, ANCHORS) == pytest.approx(25.5, abs=1e-9)

    def test_strictly_monotone_over_visible_span(self):
        lams = np.linspace(399.0, 732.0, 200)
        cols = [wavelength_to_column(l, CONFIG, ANCHORS) for l in lams]
        assert all(a > b for a, b in zip(cols, cols[1:]))  # column falls as lambda rises

    def test_round_trip(self):
        for lam in (412.0, 550.0, 700.0):
            col = wavelength_to_column(lam, CONFIG, ANCHORS)
            assert column_to_wavelength(col, CONFIG, ANCHORS) == pytest.approx(lam, rel=1e-9)

    def test_mean_width_per_column(self):
        assert spectral_width_per_column(412.0, 732.0, 52) == pytest.approx(6.1538, abs=1e-3)

    def test_needs_two_distinct_anchors(self):
        with pytest.raises(ValueError):
            wavelength_to_column(500.0, CONFIG, [ANCHORS[0]])
        with pytest.raises(ValueError):
            wavelength_to_column(500.0, CONFIG, [ANCHORS[0], SpectralAnchor(732.0, 5.0)])
        # one column for both wavelengths fits a zero slope, which column_to_wavelength divides by
        with pytest.raises(ValueError, match="two distinct columns"):
            column_to_wavelength(5.0, CONFIG, [ANCHORS[0], SpectralAnchor(399.0, 0.0)])


class TestLensConstraints:
    def test_reference_setup_passes(self):
        assert check_lens_constraints(OpticsConfig(cyl_focal_1=3, cyl_focal_2=6, cyl_focal_3=3)) == []

    def test_cf2_violation(self):
        v = check_lens_constraints(OpticsConfig(cyl_focal_1=3, cyl_focal_2=5, cyl_focal_3=3))
        assert len(v) == 1 and "CF2" in v[0]

    def test_cf3_violation(self):
        v = check_lens_constraints(OpticsConfig(cyl_focal_1=3, cyl_focal_2=6, cyl_focal_3=4))
        assert len(v) == 1 and "CF3" in v[0]


class TestHdrPatchTarget:
    ATTS = [0.0, 26.0, 40.0, 50.0, 60.0, 66.0]

    def test_six_patch_irradiances(self):
        grid = CaosGrid(rows=29, cols=44)
        scene = make_hdr_patch_target(grid, self.ATTS, layout=(2, 3), patch_radius=3.0)
        masks = hdr_patch_masks(grid, (2, 3), 6, 3.0)
        expected = [1.0, 0.0501, 0.01, 0.00316, 0.001, 0.000501]
        for mask, att, exp in zip(masks, self.ATTS, expected):
            vals = np.unique(scene.irradiance[mask])
            assert vals.size == 1
            assert vals[0] == pytest.approx(10.0 ** (-att / 20.0))
            assert vals[0] == pytest.approx(exp, rel=5e-3)

    def test_single_unit_patch(self):
        scene = make_hdr_patch_target(CaosGrid(9, 9), [0.0], (1, 1), 2.0)
        vals = np.unique(scene.irradiance)
        assert set(vals) == {0.0, 1.0}

    def test_dynamic_range_equals_max_attenuation(self):
        grid = CaosGrid(rows=29, cols=44)
        scene = make_hdr_patch_target(grid, self.ATTS, (2, 3), 3.0)
        lit = scene.irradiance[scene.irradiance > 0]
        dr = 20.0 * np.log10(lit.max() / lit.min())
        assert dr == pytest.approx(66.0, abs=1e-9)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap|fit"):
            make_hdr_patch_target(CaosGrid(10, 10), [0.0, 10.0], (1, 2), 4.0)

    def test_out_of_grid_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            make_hdr_patch_target(CaosGrid(5, 5), [0.0], (1, 1), 4.0)


class TestSpectralLineScene:
    def test_band_confined_to_commanded_row(self):
        grid = CaosGrid(rows=38, cols=52)
        scene = make_spectral_line_scene(grid, 10, 700.0, 40.0, CONFIG, ANCHORS)
        hot_rows = np.flatnonzero(scene.irradiance.any(axis=1))
        assert hot_rows.tolist() == [10]
        lo = wavelength_to_column(720.0, CONFIG, ANCHORS)
        hi = wavelength_to_column(680.0, CONFIG, ANCHORS)
        hot_cols = np.flatnonzero(scene.irradiance[10])
        assert hot_cols[0] >= math.floor(lo) and hot_cols[-1] <= math.ceil(hi)

    def test_peak_normalized(self):
        grid = CaosGrid(rows=38, cols=52)
        scene = make_spectral_line_scene(grid, 5, 600.0, 40.0, CONFIG, ANCHORS)
        assert scene.irradiance.max() == pytest.approx(1.0)

    def test_white_band_weaker_toward_short_wavelengths(self):
        grid = CaosGrid(rows=38, cols=52)
        scene = make_spectral_line_scene(grid, 0, 572.0, 320.0, CONFIG, ANCHORS)
        row = scene.irradiance[0]
        hot = np.flatnonzero(row)
        # columns increase toward shorter wavelengths; lamp output falls there
        assert row[hot[0]] > row[hot[-1]]
        assert row[hot[-1]] < 0.5

    def test_row_moves_one_for_one(self):
        grid = CaosGrid(rows=38, cols=52)
        a = make_spectral_line_scene(grid, 7, 650.0, 10.0, CONFIG, ANCHORS)
        b = make_spectral_line_scene(grid, 8, 650.0, 10.0, CONFIG, ANCHORS)
        assert np.array_equal(np.roll(a.irradiance, 1, axis=0), b.irradiance)

    def test_off_grid_band_warns_and_is_empty(self):
        grid = CaosGrid(rows=4, cols=8)
        anchors = [SpectralAnchor(732.0, 0.0), SpectralAnchor(600.0, 7.0)]
        with pytest.warns(UserWarning, match="off the grid"):
            scene = make_spectral_line_scene(grid, 1, 420.0, 10.0, CONFIG, anchors)
        assert not scene.irradiance.any()

    def test_planck_shape(self):
        # 2850 K lamp: far more radiance at 700 nm than at 400 nm
        assert planck_weight(700.0, 2850.0) > 5 * planck_weight(400.0, 2850.0)


class TestSceneValidation:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Scene(np.array([[-1.0, 0.0]]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Scene(np.array([[np.nan, 0.0]]))
