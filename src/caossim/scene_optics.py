"""Pixel-grid scenes, HDR test targets and line-scan spectral geometry.

WHAT THIS MODULE DOES
---------------------
* `CaosGrid` / `Scene`: the addressable pixel grid (each pixel is a square
  block of micromirrors) and a nonnegative irradiance map over it.
* Grating geometry: first-order transmission-grating dispersion
  (sin a + sin b = order * f_g * lambda), angular dispersion in nm/mrad,
  and a wavelength -> grid-column calibration that is linear in the
  diffraction angle (Fourier-lens mapping x = CF2 * beta), anchored by
  known filter wavelengths.
* Cylindrical-lens layout check: the slit-preserving relay requires
  CF2 = 2*CF1 and CF1 = CF3.
* Test-target generators: a multi-patch HDR transmission target (patch
  irradiance 10**(-attenuation_dB/20)) and a one-row spectral stripe
  weighted by a Planck blackbody lamp spectrum.

Scenes are modeled at pixel granularity; variation inside a pixel block
is out of scope.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "CaosGrid",
    "Scene",
    "OpticsConfig",
    "SpectralAnchor",
    "grating_beta",
    "angular_dispersion",
    "wavelength_to_column",
    "column_to_wavelength",
    "check_lens_constraints",
    "spectral_width_per_column",
    "make_hdr_patch_target",
    "hdr_patch_masks",
    "band_columns",
    "make_spectral_line_scene",
    "planck_weight",
]

# CODATA constants, SI
_PLANCK_H = 6.62607015e-34
_SPEED_C = 2.99792458e8
_BOLTZMANN_K = 1.380649e-23

DEFAULT_SOURCE_TEMP_K = 2850.0
# relative tolerance of the slit-relay focal-length equalities
LENS_REL_TOL = 1e-6


@dataclass(frozen=True)
class CaosGrid:
    """Addressable pixel grid: rows x cols pixels, each a block of micromirrors
    switched as one (scenes are modeled per pixel, not per mirror)."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid dimensions must be >= 1")

    @property
    def num_pixels(self) -> int:
        return self.rows * self.cols


@dataclass(eq=False)
class Scene:
    """Nonnegative irradiance map (arbitrary linear units) over a grid."""

    irradiance: np.ndarray

    def __post_init__(self) -> None:
        self.irradiance = np.asarray(self.irradiance, dtype=np.float64)
        if self.irradiance.ndim != 2:
            raise ValueError("irradiance must be a 2-D matrix")
        if not np.all(np.isfinite(self.irradiance)):
            raise ValueError("irradiance must be finite")
        if np.any(self.irradiance < 0):
            raise ValueError("irradiance must be nonnegative")

    @property
    def shape(self) -> tuple[int, int]:
        return self.irradiance.shape


@dataclass(frozen=True)
class OpticsConfig:
    """Dispersive front-end geometry.

    grating_freq in lines/mm, incidence angle in degrees, cylindrical-lens
    focal lengths in cm.
    """

    grating_freq: float = 600.0
    incidence_deg: float = 6.0
    cyl_focal_1: float = 3.0
    cyl_focal_2: float = 6.0
    cyl_focal_3: float = 3.0
    diffraction_order: int = 1

    def __post_init__(self) -> None:
        if self.grating_freq <= 0:
            raise ValueError("grating_freq must be positive")
        if min(self.cyl_focal_1, self.cyl_focal_2, self.cyl_focal_3) <= 0:
            raise ValueError("focal lengths must be positive")


@dataclass(frozen=True)
class SpectralAnchor:
    """A known (wavelength nm -> grid column) calibration point."""

    wavelength: float
    column: float


def grating_beta(lambda_nm: float, config: OpticsConfig) -> float:
    """Diffraction angle beta (rad) from sin a + sin b = order * f_g * lambda."""
    alpha = math.radians(config.incidence_deg)
    # lines/mm * nm -> dimensionless: 1e3 * 1e-9 = 1e-6
    s = config.diffraction_order * config.grating_freq * lambda_nm * 1e-6 - math.sin(alpha)
    if abs(s) > 1.0:
        raise ValueError(
            f"order {config.diffraction_order} at {lambda_nm} nm is evanescent"
        )
    return math.asin(s)


def angular_dispersion(lambda_nm: float, config: OpticsConfig) -> float:
    """d(lambda)/d(beta) in nm per mrad: cos(beta) / (order * f_g)."""
    beta = grating_beta(lambda_nm, config)
    # cos(beta)/(lines/mm) is mm/rad; 1 mm/rad = 1e3 nm/mrad
    return math.cos(beta) / (config.diffraction_order * config.grating_freq) * 1e3


def _beta_to_column_fit(
    config: OpticsConfig, anchors: Sequence[SpectralAnchor]
) -> tuple[float, float]:
    """Least-squares line column = c0 + c1*beta through the anchors."""
    if len(anchors) < 2:
        raise ValueError("need at least two anchors")
    wavelengths = [a.wavelength for a in anchors]
    if len(set(wavelengths)) != len(wavelengths):
        raise ValueError("anchor wavelengths must be distinct")
    if len({a.column for a in anchors}) < 2:
        raise ValueError("anchors must lie on at least two distinct columns")
    betas = np.array([grating_beta(a.wavelength, config) for a in anchors])
    cols = np.array([a.column for a in anchors])
    c1, c0 = np.polyfit(betas, cols, 1)
    return float(c0), float(c1)


def wavelength_to_column(
    lambda_nm: float, config: OpticsConfig, anchors: Sequence[SpectralAnchor]
) -> float:
    """Fractional grid column where a wavelength lands.

    Maps lambda -> beta through the grating equation, then linearly in beta
    through the anchor fit.  Out-of-grid columns are returned as-is; the
    caller clips.
    """
    c0, c1 = _beta_to_column_fit(config, anchors)
    return c0 + c1 * grating_beta(lambda_nm, config)


def column_to_wavelength(
    column: float, config: OpticsConfig, anchors: Sequence[SpectralAnchor]
) -> float:
    """Inverse of wavelength_to_column (nm)."""
    c0, c1 = _beta_to_column_fit(config, anchors)
    beta = (column - c0) / c1
    alpha = math.radians(config.incidence_deg)
    s = math.sin(beta) + math.sin(alpha)
    return s / (config.diffraction_order * config.grating_freq) * 1e6


def check_lens_constraints(config: OpticsConfig) -> list[str]:
    """Violations of the slit-relay conditions CF2 = 2*CF1 and CF1 = CF3."""
    violations = []
    if not math.isclose(config.cyl_focal_2, 2.0 * config.cyl_focal_1, rel_tol=LENS_REL_TOL):
        violations.append(
            f"CF2 = {config.cyl_focal_2} cm is not twice CF1 = {config.cyl_focal_1} cm"
        )
    if not math.isclose(config.cyl_focal_1, config.cyl_focal_3, rel_tol=LENS_REL_TOL):
        violations.append(
            f"CF1 = {config.cyl_focal_1} cm does not equal CF3 = {config.cyl_focal_3} cm"
        )
    return violations


def spectral_width_per_column(
    lambda_lo_nm: float, lambda_hi_nm: float, n_columns: int
) -> float:
    """Mean wavelength span covered by one grid column, in nm."""
    if n_columns < 1:
        raise ValueError("n_columns must be >= 1")
    return (lambda_hi_nm - lambda_lo_nm) / n_columns


def _patch_centers(
    grid: CaosGrid, layout: tuple[int, int], count: int
) -> list[tuple[float, float]]:
    lrows, lcols = layout
    if lrows * lcols < count:
        raise ValueError(f"layout {layout} cannot hold {count} patches")
    cell_h = grid.rows / lrows
    cell_w = grid.cols / lcols
    centers = []
    for i in range(count):
        r, c = divmod(i, lcols)
        centers.append(((r + 0.5) * cell_h - 0.5, (c + 0.5) * cell_w - 0.5))
    return centers


def _patch_mask(grid: CaosGrid, center: tuple[float, float], radius: float) -> np.ndarray:
    rr, cc = np.mgrid[0 : grid.rows, 0 : grid.cols]
    return (rr - center[0]) ** 2 + (cc - center[1]) ** 2 <= radius**2


def make_hdr_patch_target(
    grid: CaosGrid,
    attenuations_db: Sequence[float],
    layout: tuple[int, int],
    patch_radius: float,
    background: float = 0.0,
) -> Scene:
    """Circular-patch HDR target: patch irradiance 10**(-attenuation/20).

    Patches are placed row-major on a layout of equal cells; the 0 dB patch
    carries irradiance 1.0.  Patches must fit inside the grid and must not
    overlap.
    """
    if background < 0:
        raise ValueError("background must be nonnegative")
    masks = hdr_patch_masks(grid, layout, len(attenuations_db), patch_radius)
    img = np.full((grid.rows, grid.cols), background, dtype=np.float64)
    for att, mask in zip(attenuations_db, masks):
        img[mask] = 10.0 ** (-att / 20.0)
    return Scene(img)


def hdr_patch_masks(
    grid: CaosGrid, layout: tuple[int, int], count: int, patch_radius: float
) -> list[np.ndarray]:
    """Boolean masks of the patches make_hdr_patch_target lays down.

    Raises ValueError when the radius is not positive, the layout cannot
    hold `count` patches, a patch does not fit inside the grid or covers no
    pixel, or two patches overlap.
    """
    if not patch_radius > 0:
        raise ValueError("patch_radius must be positive")
    masks = []
    covered = np.zeros((grid.rows, grid.cols), dtype=bool)
    for center in _patch_centers(grid, layout, count):
        if (
            center[0] - patch_radius < -0.5
            or center[0] + patch_radius > grid.rows - 0.5
            or center[1] - patch_radius < -0.5
            or center[1] + patch_radius > grid.cols - 0.5
        ):
            raise ValueError("patch does not fit inside the grid")
        mask = _patch_mask(grid, center, patch_radius)
        if not mask.any():
            raise ValueError("patch covers no pixel")
        if np.any(covered & mask):
            raise ValueError("patches overlap")
        covered |= mask
        masks.append(mask)
    return masks


def planck_weight(lambda_nm: float, temp_k: float) -> float:
    """Blackbody spectral radiance per wavelength, arbitrary absolute scale."""
    lam = lambda_nm * 1e-9
    x = _PLANCK_H * _SPEED_C / (lam * _BOLTZMANN_K * temp_k)
    return (2.0 * _PLANCK_H * _SPEED_C**2 / lam**5) / math.expm1(x)


def band_columns(
    grid: CaosGrid,
    center_nm: float,
    bandwidth_nm: float,
    config: OpticsConfig,
    anchors: Sequence[SpectralAnchor],
) -> tuple[int, int]:
    """First and last grid column a filter band covers; first > last when the
    band maps entirely off the grid."""
    # column index decreases with wavelength for the standard anchor layout
    c_a = wavelength_to_column(center_nm + bandwidth_nm / 2.0, config, anchors)
    c_b = wavelength_to_column(center_nm - bandwidth_nm / 2.0, config, anchors)
    lo, hi = sorted((c_a, c_b))
    return max(0, math.ceil(lo)), min(grid.cols - 1, math.floor(hi))


def make_spectral_line_scene(
    grid: CaosGrid,
    pixel_row: int,
    center_nm: float,
    bandwidth_nm: float,
    config: OpticsConfig,
    anchors: Sequence[SpectralAnchor],
    source_temp_k: float = DEFAULT_SOURCE_TEMP_K,
) -> Scene:
    """One-row stripe covering the columns a filter band maps onto.

    Column weights follow the Planck spectrum of the lamp at each column's
    wavelength, peak-normalized to 1.  A band that maps entirely off the
    grid yields an empty scene with a warning.
    """
    if not 0 <= pixel_row < grid.rows:
        raise ValueError("pixel_row outside the grid")
    img = np.zeros((grid.rows, grid.cols), dtype=np.float64)
    first, last = band_columns(grid, center_nm, bandwidth_nm, config, anchors)
    if first > last:
        warnings.warn(
            f"band {center_nm}+-{bandwidth_nm / 2} nm maps entirely off the grid",
            stacklevel=2,
        )
        return Scene(img)
    cols = np.arange(first, last + 1)
    weights = np.array(
        [
            planck_weight(column_to_wavelength(c, config, anchors), source_temp_k)
            for c in cols
        ]
    )
    img[pixel_row, cols] = weights / weights.max()
    return Scene(img)
