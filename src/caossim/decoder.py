"""Recover pixel irradiances from photodetector sample streams.

FM/FDMA slots are decoded in the frequency domain at the slot's carrier
bins only.  The stream is folded by repeated halving down to the common
period L of its carriers (the first decimation-in-frequency stages of a
Q-point FFT), then one length-L real FFT yields every carrier bin; each
magnitude is divided by the stream's length times the exact fundamental
coefficient of a 50%-duty square wave with that carrier's
samples-per-period count, so each estimate equals |X[b]| / (Q a1(fs/f))
read from the full Q-point FFT X to floating-point rounding.  The runner
usually hands over the slot's L-sample average instead of its Q samples
(``SampledSignal.windows`` = Q / L); the same readout then needs no fold
and gives the same estimate.  No run computes the full FFT;
``fft_radix2`` survives only as a name perfbench/tracing.py wraps.

The readout works on blocks: rows of slots that share their carriers,
folded along the last axis and read by one batched ``np.fft.rfft``, which
gives each row the bits of its own transform.  It has two steps:
``block_coefficients`` returns the complex carrier-bin values, which are
linear in the rows, and ``block_estimates`` scales their magnitudes.
``decode_block`` is the two in turn, and ``decode_slot_free`` is its
one-row case.  A permissive run with the ADC off uses the linearity: it
sums each carrier's unit response, weighted by the pixel irradiances,
plus the coefficients of the slots' noise, and forms no slot stream
(``runner``).
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
from dataclasses import dataclass
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
from .waveform import (
    SampledSignal,
    fold_windows,
    fundamental_coefficient,
    nearest_bin,
    whole_number,
)

__all__ = [
    "DecodedImage",
    "fft_radix2",
    "decode_slot",
    "decode_slot_free",
    "block_coefficients",
    "block_estimates",
    "decode_block",
    "decode_cdma",
    "assemble_image",
]


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


def fft_radix2(samples: SampledSignal) -> np.ndarray:
    """Full-length complex DFT of one power-of-two slot (numpy's FFT)."""
    _check_power_of_two(len(samples))
    return np.fft.fft(samples.samples)


def decode_slot(
    stream: SampledSignal,
    slot: Sequence[tuple[int, float]],
    plan: FrequencyPlan,
) -> dict[int, float]:
    """decode_slot_free, once every carrier of the slot is a plan channel with
    an even whole N = fs/f samples per period."""
    for _, f in slot:
        if f not in plan.channels:
            raise ValueError(f"{f} Hz is not a plan channel")
        n = whole_number(stream.fs / f)
        if n is None or n % 2:
            raise ValueError(f"fs/f = {stream.fs / f} must be an even integer")
    return decode_slot_free(stream, slot)


def block_coefficients(rows: np.ndarray, fs: float, freqs: Sequence[float]) -> np.ndarray:
    """X[b] at each carrier f's nearest bin b, in the order of ``freqs``, for every
    row of a block of q-sample streams sampled at fs, with X the row's full FFT,
    computed without X: an (S x k) complex array.

    With b_i the carriers' nearest bins, X[b_i] depends on a row only
    through its fold x_L[n] = sum_m x[n + m L] to L = Q / gcd(Q, b_1, ...),
    where it is bin b_i L / Q of the length-L DFT (``fold_windows``, the
    pairwise order of a decimation-in-frequency FFT).  On a
    plan ladder L is the longest carrier period; a carrier on an odd bin,
    as off-grid carriers often are, leaves L = Q.  The whole block is
    folded along its last axis and read by one batched ``np.fft.rfft``,
    which gives each row the bits of its own transform.

    A row may already be that average, x_avg = (L / Q) x_L of L
    samples.  Its length-L DFT is
    X_avg[k] = (L / Q) sum_{n < Q} x[n] e^{-2 pi i k n / L} = (L / Q) X[k Q / L],
    so with q = L this reads bin b L / Q and folds nothing: the result is
    (L / Q) X[b].  The scale L / Q is a power of two, so the two forms
    differ only in where the noise terms were rounded when they were summed.
    """
    q = rows.shape[-1]
    _check_power_of_two(q)
    delta_f = fs / q
    bins = [nearest_bin(f, delta_f, q) for f in freqs]
    period = q // math.gcd(q, *bins)
    coeffs = np.fft.rfft(fold_windows(rows, period), axis=-1)
    return coeffs[..., [b * period // q for b in bins]]


def block_estimates(
    coeffs: np.ndarray, freqs: Sequence[float], q: int, fs: float
) -> np.ndarray:
    """|c| / (q a1(fs/f)) for each coefficient c of carrier f (column) in each
    row of ``block_coefficients``, read from q-sample streams sampled at fs.

    The magnitude is np.hypot of the parts, which agrees bit for bit with
    Python's abs() of a complex scalar; np.abs of a complex array may not.
    """
    scale = np.array([q * fundamental_coefficient(fs / f) for f in freqs])
    return np.hypot(coeffs.real, coeffs.imag) / scale


def decode_block(rows: np.ndarray, fs: float, freqs: Sequence[float]) -> np.ndarray:
    """|X[b]| / (Q a1(fs/f)) for every row (slot) and carrier f (column) of a
    block, with X the row's full FFT and b the carrier's nearest bin:
    ``block_estimates`` of ``block_coefficients``.  a1 takes a real-valued
    N = fs/f, so a carrier off the bin grid decodes with the leakage the plan
    audit prevents.  Rows that average Q / L windows of L samples give
    (L / Q) X[b], which divided by L a1 is the same estimate.
    """
    return block_estimates(block_coefficients(rows, fs, freqs), freqs, rows.shape[-1], fs)


def decode_slot_free(
    stream: SampledSignal, slot: Sequence[tuple[int, float]]
) -> dict[int, float]:
    """The one-row ``decode_block`` of a slot's stream, without decode_slot's
    plan checks: pixel -> estimate for each (pixel, carrier) of the slot."""
    estimates = decode_block(stream.samples[None], stream.fs, [f for _, f in slot])[0]
    return dict(zip([pix for pix, _ in slot], estimates.tolist()))


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
