"""Figures of merit: dynamic range, SNR, FFT processing gain, encode timing.

SNR values are linear ratios; "minimum SNR" of a patch is the minimum over
its pixels of pixel / dark-region mean, which collapses a patch to a single
robustness number while honoring the word minimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "dynamic_range_db",
    "measure_snr",
    "processing_gain_db",
    "processing_gain_notes",
    "encoding_time",
    "speedup",
    "PatchEntry",
    "PatchReport",
    "patch_report",
]


def dynamic_range_db(i_max: float, i_min: float) -> float:
    """20*log10(i_max / i_min)."""
    if i_min <= 0:
        raise ValueError("i_min must be positive")
    if i_max < i_min:
        raise ValueError("i_max must be >= i_min")
    return 20.0 * math.log10(i_max / i_min)


def measure_snr(
    estimates: np.ndarray, patch_mask: np.ndarray, dark_mask: np.ndarray
) -> tuple[float, float]:
    """(patch SNR, minimum SNR) as linear ratios against the dark-region mean.

    noise = mean over dark_mask; patch SNR = patch mean / noise; minimum
    SNR = min over patch pixels of pixel / noise.  A zero noise mean is
    reported as infinite SNR.
    """
    if not patch_mask.any() or not dark_mask.any():
        raise ValueError("masks must be nonempty")
    if np.any(patch_mask & dark_mask):
        raise ValueError("masks must be disjoint")
    noise = float(estimates[dark_mask].mean())
    if noise == 0.0:
        return math.inf, math.inf
    patch = estimates[patch_mask]
    return float(patch.mean() / noise), float(patch.min() / noise)


def processing_gain_db(Q: int) -> float:
    """Coherent FFT integration gain, 10*log10(Q/2) dB."""
    if Q < 2:
        raise ValueError("Q must be >= 2")
    return 10.0 * math.log10(Q / 2.0)


def processing_gain_notes(Q: int) -> list[str]:
    """Report lines for the gain figure, including known convention pitfalls."""
    lines = [
        f"FFT processing gain: 10*log10({Q}/2) = {processing_gain_db(Q):.2f} dB",
        f"  alternate convention 10*log10(Q) would give {10.0 * math.log10(Q):.2f} dB;"
        " this report standardizes on 10*log10(Q/2)",
    ]
    if Q == 16384:
        lines.append(
            "  note: a figure of 36.12 dB is sometimes quoted for Q=16384; the"
            f" formula gives {processing_gain_db(Q):.2f} dB and neither convention"
            " reproduces 36.12"
        )
    return lines


def encoding_time(npix: int, channels: int, T: float) -> float:
    """Total slot time ceil(npix / channels) * T, in seconds."""
    if npix < 1 or channels < 1 or T <= 0:
        raise ValueError("arguments must be positive")
    return math.ceil(npix / channels) * T


def speedup(t_reference: float, t_candidate: float) -> float:
    if t_candidate <= 0:
        raise ValueError("t_candidate must be positive")
    return t_reference / t_candidate


@dataclass(frozen=True)
class PatchEntry:
    designed_irradiance: float
    measured_irradiance: float
    designed_dr_db: float
    measured_dr_db: float
    min_snr: float


@dataclass(frozen=True)
class PatchReport:
    """Per-patch designed vs measured dynamic range and minimum SNR."""

    entries: tuple[PatchEntry, ...]

    def to_csv(self) -> str:
        lines = [
            "designed_irradiance,measured_irradiance,designed_dr_db,measured_dr_db,min_snr"
        ]
        for e in self.entries:
            lines.append(
                f"{e.designed_irradiance!r},{e.measured_irradiance!r},"
                f"{e.designed_dr_db!r},{e.measured_dr_db!r},{e.min_snr!r}"
            )
        return "\n".join(lines) + "\n"

    def format_table(self) -> str:
        header = (
            f"{'Designed Irr':>14} {'Measured Irr':>14} "
            f"{'Designed DR (dB)':>17} {'Measured DR (dB)':>17} {'Min SNR':>12}"
        )
        rows = [header]
        for e in self.entries:
            rows.append(
                f"{e.designed_irradiance:>14.6g} {e.measured_irradiance:>14.6g} "
                f"{e.designed_dr_db:>17.2f} {e.measured_dr_db:>17.2f} {e.min_snr:>12.4g}"
            )
        return "\n".join(rows)

    @property
    def measured_dr_db(self) -> float:
        """The largest measured DR of a detected patch (nan if none was)."""
        return max((e.measured_dr_db for e in self.entries if not math.isnan(e.measured_dr_db)),
                   default=math.nan)

    @property
    def designed_dr_db(self) -> float:
        return max(e.designed_dr_db for e in self.entries)


def patch_report(
    estimates: np.ndarray,
    patch_masks: Sequence[np.ndarray],
    designed_irradiances: Sequence[float],
    dark_mask: np.ndarray,
) -> PatchReport:
    """Build the designed-vs-measured table for a multi-patch HDR target.

    DR entries are referenced to the brightest patch mean.  A patch whose
    mean is not above 0 was not detected; its measured DR reads nan.  A
    target with no dark pixels has no noise reference; its SNR column reads
    infinite.
    """
    if len(patch_masks) != len(designed_irradiances):
        raise ValueError("one designed irradiance per patch mask")
    measured = [float(estimates[m].mean()) for m in patch_masks]
    designed = [float(v) for v in designed_irradiances]
    bright_meas = max(measured)
    bright_des = max(designed)
    entries = []
    for mask, des, meas in zip(patch_masks, designed, measured):
        if dark_mask.any():
            _, min_snr = measure_snr(estimates, mask, dark_mask)
        else:
            min_snr = math.inf
        entries.append(
            PatchEntry(
                designed_irradiance=des,
                measured_irradiance=meas,
                designed_dr_db=dynamic_range_db(bright_des, des),
                measured_dr_db=dynamic_range_db(bright_meas, meas) if meas > 0 else math.nan,
                min_snr=min_snr,
            )
        )
    return PatchReport(entries=tuple(entries))
