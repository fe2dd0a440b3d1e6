"""Recover pixel irradiances from photodetector sample streams.

FM/FDMA slots are decoded in the frequency domain at the slot's carrier
bins only.  The stream is folded by repeated halving down to the common
period L of its carriers (the first decimation-in-frequency stages of a
Q-point FFT), then one length-L real FFT yields every carrier bin; each
magnitude is divided by Q times the exact fundamental coefficient of a
50%-duty square wave with that carrier's samples-per-period count.  The
full-slot FFT (``fft_radix2``) remains as the reference spectrum API.
CDMA streams are decoded by bipolar Walsh correlation of the per-bit
means; the zero-mean code rows annihilate the DC term introduced by on/off
optical modulation.  One fast Walsh-Hadamard transform of the L means
correlates them with every code row at once (O(L log L) time, O(L)
memory); the dense ``walsh_matrix`` is never built.

Only magnitudes are used at carrier bins.  CDMA estimates may come out
slightly negative under noise and are reported as-is so that SNR
statistics stay unbiased; clamping is left to display code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .encoder import (
    CdmaConfig,
    TdmaSchedule,
    WalshAssignment,
    _code_rows,
    fwht,
    walsh_matrix,  # not called here; perfbench/tracing.py wraps this name
)
from .freq_plan import FrequencyPlan
from .scene_optics import CaosGrid
from .waveform import SampledSignal, fundamental_coefficient, whole_number

__all__ = [
    "Spectrum",
    "DecodedImage",
    "fft_radix2",
    "recover_channel_irradiance",
    "recover_at_frequency",
    "decode_slot",
    "decode_slot_free",
    "decode_cdma",
    "assemble_image",
]


@dataclass(frozen=True, eq=False)
class Spectrum:
    """DFT coefficients X[k] = sum_n x[n] exp(-j 2 pi n k / Q)."""

    coeffs: np.ndarray = field(repr=False)
    fs: float
    delta_f: float


@dataclass(eq=False)
class DecodedImage:
    """Recovered irradiances plus per-pixel provenance.

    slot_map holds the slot index each pixel was captured in; channel_map
    holds the carrier frequency (FM/FDMA) or the Walsh row (CDMA).
    """

    estimates: np.ndarray
    mode: str
    slot_map: np.ndarray
    channel_map: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.estimates.shape


def _check_power_of_two(n: int) -> None:
    if n < 2 or n & (n - 1):
        raise ValueError(f"stream length {n} is not a power of two")


def _check_plan_carrier(fs: float, f_j: float, plan: FrequencyPlan) -> None:
    """f_j must be a plan channel with an even whole N = fs/f_j samples per period."""
    if f_j not in plan.channels:
        raise ValueError(f"{f_j} Hz is not a plan channel")
    n = whole_number(fs / f_j)
    if n is None or n % 2:
        raise ValueError(f"fs/f = {fs / f_j} must be an even integer")


def _nearest_bin(f: float, delta_f: float, q: int) -> int:
    b = int(round(f / delta_f))
    if not 0 <= b <= q // 2:
        raise ValueError("frequency outside the spectrum")
    return b


def _bin_estimate(coeff: complex, q: int, fs: float, f: float) -> float:
    return float(abs(coeff) / (q * fundamental_coefficient(fs / f)))


def fft_radix2(samples: SampledSignal) -> Spectrum:
    """Full-length DFT of one slot (numpy's FFT).

    The stream length must be a power of two; padding is rejected because
    it would break the whole-cycle property the channel design relies on.
    """
    n = len(samples)
    _check_power_of_two(n)
    return Spectrum(
        coeffs=np.fft.fft(samples.samples),
        fs=samples.fs,
        delta_f=samples.fs / n,
    )


def recover_channel_irradiance(
    spectrum: Spectrum, f_j: float, plan: FrequencyPlan
) -> float:
    """recover_at_frequency for a plan carrier with an even whole N = fs/f_j.

    There a1(N) = 1/(N sin(pi/N)) is the exact fundamental coefficient of a
    unit 50%-duty square wave, so a clean unit carrier decodes to exactly 1.
    """
    _check_plan_carrier(spectrum.fs, f_j, plan)
    return recover_at_frequency(spectrum, f_j)


def recover_at_frequency(spectrum: Spectrum, f: float) -> float:
    """Nearest-bin estimate |X[b]| / (Q * a1(fs/f)) for any carrier.

    Uses the generalized fundamental coefficient with a real-valued
    samples-per-period count; carriers off the bin grid decode with the
    leakage errors the channel-selection rule exists to prevent.
    """
    q = spectrum.coeffs.shape[0]
    b = _nearest_bin(f, spectrum.delta_f, q)
    return _bin_estimate(spectrum.coeffs[b], q, spectrum.fs, f)


def decode_slot(
    stream: SampledSignal,
    slot: Sequence[tuple[int, float]],
    plan: FrequencyPlan,
) -> dict[int, float]:
    """Check every carrier of the slot against the plan, then read them all
    with decode_slot_free."""
    for _, f in slot:
        _check_plan_carrier(stream.fs, f, plan)
    return decode_slot_free(stream, slot)


def decode_slot_free(
    stream: SampledSignal, slot: Sequence[tuple[int, float]]
) -> dict[int, float]:
    """recover_at_frequency at every (pixel, carrier) of the slot, without
    the full-slot FFT and without decode_slot's plan checks.

    With b_i the carriers' nearest bins, X[b_i] depends on the stream only
    through its fold x_L[n] = sum_m x[n + m L] to L = Q / gcd(Q, b_1, ...),
    where it is bin b_i L / Q of the length-L DFT.  Folding by halving keeps
    the pairwise summation order of a decimation-in-frequency FFT.  On a
    plan ladder L is the longest carrier period; a carrier on an odd bin,
    as off-grid carriers often are, leaves L = Q.
    """
    q = len(stream)
    _check_power_of_two(q)
    delta_f = stream.fs / q
    bins = [_nearest_bin(f, delta_f, q) for _, f in slot]
    period = q // math.gcd(q, *bins)
    x = stream.samples
    while len(x) > period:
        half = len(x) // 2
        x = x[:half] + x[half:]
    coeffs = np.fft.rfft(x)
    return {
        pix: _bin_estimate(coeffs[b * period // q], q, stream.fs, f)
        for (pix, f), b in zip(slot, bins)
    }


def decode_cdma(
    stream: SampledSignal,
    assignment: WalshAssignment,
    cfg: CdmaConfig,
    grid: CaosGrid,
) -> DecodedImage:
    """Bipolar Walsh correlation of the per-bit sample means.

    Pixel estimate = (2/L) sum_b mean_b * c_k[b]; exact for a noiseless
    round trip.  The correlations with all L code rows are fwht(means), so
    the L x L code matrix is never built.
    """
    L = assignment.code_length
    expected = L * cfg.samples_per_bit
    if len(stream) != expected:
        raise ValueError(f"stream length {len(stream)} != L*samples_per_bit = {expected}")
    means = stream.samples.reshape(L, cfg.samples_per_bit).mean(axis=1)
    rows = _code_rows(assignment, grid.num_pixels)
    estimates = (2.0 / L) * fwht(means)[rows]
    return DecodedImage(
        estimates=estimates.reshape(grid.rows, grid.cols),
        mode="cdma",
        slot_map=np.zeros((grid.rows, grid.cols), dtype=np.intp),
        channel_map=rows.astype(np.float64).reshape(grid.rows, grid.cols),
    )


def assemble_image(
    slot_estimates: Sequence[Mapping[int, float]],
    schedule: TdmaSchedule,
    grid: CaosGrid,
    mode: str = "fdma-tdma",
) -> DecodedImage:
    """Place per-slot estimates at their raster positions with provenance.

    Every grid pixel must be covered exactly once across the slots.
    """
    npix = grid.num_pixels
    est = np.full(npix, np.nan)
    slot_map = np.full(npix, -1, dtype=np.intp)
    chan_map = np.full(npix, np.nan)
    for s, (slot, estimates) in enumerate(zip(schedule.slots, slot_estimates)):
        for pix, freq in slot:
            if pix >= npix:
                raise ValueError(f"pixel id {pix} outside the grid")
            if slot_map[pix] != -1:
                raise ValueError(f"pixel {pix} estimated twice")
            if pix not in estimates:
                raise ValueError(f"slot {s} estimate missing for pixel {pix}")
            est[pix] = estimates[pix]
            slot_map[pix] = s
            chan_map[pix] = freq
    if np.any(slot_map == -1):
        gaps = np.flatnonzero(slot_map == -1)
        raise ValueError(f"coverage gap at pixels {gaps[:5].tolist()}")
    shape = (grid.rows, grid.cols)
    return DecodedImage(
        estimates=est.reshape(shape),
        mode=mode,
        slot_map=slot_map.reshape(shape),
        channel_map=chan_map.reshape(shape),
    )
