"""Turn a scene into photodetector sample streams.

Three encoding modes, all driven by the binary on/off state of the pixel
mirrors:

* CDMA (``encode_cdma``): every pixel modulated at once by its own Walsh
  (Hadamard-row) code, one code bit per mirror frame.  The +-1 code maps
  to on/off light, so the emitted level per bit is
  sum_i I_i * (c_i + 1) / 2.  The code rows are never formed: the sum
  over pixels of I_i * c_i is one fast Walsh-Hadamard transform
  (``fwht``) of the irradiances placed at their code rows, O(L log L)
  time and O(L) memory.  ``walsh_matrix`` builds the dense L x L matrix
  and is kept only as the reference oracle.
* FM-TDMA (``encode_fm_tdma``): one pixel per slot, square-modulated at a
  single carrier.
* FDMA-TDMA (``encode_block`` on the runs of ``schedule_runs``): P pixels
  per slot on distinct plan carriers, summed on the detector.

Every TDMA slot drives the same carriers on the same frame clock; only the
pixel amplitudes change from slot to slot.  Each carrier is therefore
synthesised once per (frequency, window) as a boolean mask of its high
samples, and ``encode_block`` encodes a block of slots that share their
carriers as one 2-D array, one masked add of the pixels' amplitudes per
carrier, synthesised over one period of the block (``repeat_period``) and
tiled to the row length asked for.  ``encode_slot`` is its one-row case.

Pixels outside the active slot are parked toward the complementary
detector and contribute nothing to the primary stream.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .freq_plan import FrequencyPlan
from .scene_optics import CaosGrid, Scene
from .waveform import (
    SampledSignal,
    SamplingWindow,
    SquareWaveSpec,
    repeat_period,
    sample_square_free,
    samples_per_period,
    synth_square,  # not called here; perfbench/tracing.py wraps this name
    whole_number,
)

__all__ = [
    "WalshAssignment",
    "CdmaConfig",
    "TdmaSchedule",
    "SampledSignal",
    "walsh_matrix",
    "fwht",
    "cdma_levels",
    "encode_cdma",
    "schedule_fdma_tdma",
    "schedule_runs",
    "encode_block",
    "encode_slot",
    "encode_fm_tdma",
]


def _check_code_length(L: int) -> None:
    if L < 1 or L & (L - 1):
        raise ValueError(f"code length must be a power of two, got {L}")


def walsh_matrix(L: int) -> np.ndarray:
    """L x L Sylvester–Hadamard matrix of +-1 (int8), L a power of two.

    H_1 = [1]; H_2n = [[H_n, H_n], [H_n, -H_n]].  Rows are mutually
    orthogonal: H @ H.T = L * I.  O(L^2) memory (4 GiB at L = 2**16): the
    encoder and decoder use ``fwht`` instead, and this dense form is the
    reference it is tested against.
    """
    _check_code_length(L)
    h = np.array([[1]], dtype=np.int8)
    while h.shape[0] < L:
        h = np.block([[h, h], [h, -h]])
    return h


def fwht(x: np.ndarray) -> np.ndarray:
    """walsh_matrix(L) @ x for a length-L vector, as a new float64 array.

    Fast Walsh–Hadamard transform in natural (Sylvester) order: log2(L)
    butterfly levels, each viewing the vector as (L / 2h, 2, h) blocks and
    replacing every pair (a, b) by (a + b, a - b).  O(L log L) time and O(L)
    memory.  H is symmetric and H @ H = L * I, so fwht(fwht(x)) = L * x.
    """
    y = np.array(x, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError("fwht takes a 1-D vector")
    _check_code_length(y.size)
    h = 1
    while h < y.size:
        pairs = y.reshape(-1, 2, h)
        a, b = pairs[:, 0].copy(), pairs[:, 1]
        pairs[:, 0] += b
        np.subtract(a, b, out=b)
        h *= 2
    return y


@dataclass(frozen=True)
class WalshAssignment:
    """Pixel id -> Hadamard row index.  Row 0 (all ones) is pure DC and
    indistinguishable from unmodulated background, so it is never handed
    out."""

    code_length: int
    pixel_to_row: Mapping[int, int]

    def __post_init__(self) -> None:
        L = self.code_length
        if L < 2 or L & (L - 1):
            raise ValueError("code_length must be a power of two >= 2")
        rows = list(self.pixel_to_row.values())
        if len(set(rows)) != len(rows):
            raise ValueError("code rows must be unique")
        # unique rows in 1..L-1 are at most L-1, one per pixel
        if any(not 1 <= r < L for r in rows):
            raise ValueError("code rows must lie in 1..L-1 (row 0 is reserved)")

    @classmethod
    def sequential(cls, n_pixels: int, code_length: int) -> "WalshAssignment":
        """Pixel i -> row i+1, raster order."""
        return cls(code_length, {i: i + 1 for i in range(n_pixels)})


def _code_rows(assignment: WalshAssignment, npix: int) -> np.ndarray:
    """Code row of each pixel 0..npix-1 in raster order; every pixel needs one."""
    # row 0 is never assigned, so it marks a pixel without a code row
    rows = [assignment.pixel_to_row.get(i, 0) for i in range(npix)]
    missing = [i for i, r in enumerate(rows) if r == 0]
    if missing:
        raise ValueError(f"pixels without a code row: {missing[:5]}...")
    return np.array(rows, dtype=np.intp)


@dataclass(frozen=True)
class CdmaConfig:
    bit_rate: float
    samples_per_bit: int

    def __post_init__(self) -> None:
        if not 0 < self.bit_rate < math.inf or self.samples_per_bit < 1:
            raise ValueError("bit_rate must be positive and finite, and samples_per_bit >= 1")

    @property
    def fs(self) -> float:
        return self.bit_rate * self.samples_per_bit


def cdma_levels(scene: Scene, assignment: WalshAssignment) -> np.ndarray:
    """The detector level of each of the L code bits: the sum of code-gated pixel
    irradiances.

    Level of bit b = sum_i I_i (H[r_i, b] + 1) / 2 = (sum I + (H c)[b]) / 2,
    where c holds each pixel's irradiance at its code row r_i; H c is one
    fwht, so the L x L code matrix is never built.
    """
    flat = scene.irradiance.ravel()
    rows = _code_rows(assignment, flat.size)
    coded = np.zeros(assignment.code_length)
    coded[rows] = flat
    levels = fwht(coded)
    levels += flat.sum()
    levels *= 0.5
    return levels


def encode_cdma(
    scene: Scene, assignment: WalshAssignment, cfg: CdmaConfig
) -> SampledSignal:
    """The frame: each bit's level (``cdma_levels``) held samples_per_bit samples."""
    levels = cdma_levels(scene, assignment)
    return SampledSignal(np.repeat(levels, cfg.samples_per_bit), cfg.fs)


@dataclass(frozen=True)
class TdmaSchedule:
    """Slot-by-slot (pixel id, carrier Hz) assignments."""

    slots: tuple[tuple[tuple[int, float], ...], ...]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for slot in self.slots:
            freqs = [f for _, f in slot]
            if len(set(freqs)) != len(freqs):
                raise ValueError("duplicate carrier inside a slot")
            for pix, _ in slot:
                if pix in seen:
                    raise ValueError(f"pixel {pix} appears in more than one slot")
                seen.add(pix)


def schedule_runs(npix: int, plan: FrequencyPlan) -> list[tuple]:
    """The FDMA-TDMA schedule as runs of slots that drive the same carriers,
    (first slot, carriers, S x k pixel ids): pixels in raster order, P per
    slot, lowest carrier first; every full slot, then the short last slot.
    """
    if npix < 1:
        raise ValueError("npix must be >= 1")
    channels = tuple(sorted(plan.channels))
    full, rest = divmod(npix, len(channels))
    runs = [(0, channels, np.arange(npix - rest).reshape(full, -1))] if full else []
    if rest:
        runs.append((full, channels[:rest], np.arange(npix - rest, npix)[None]))
    return runs


def schedule_fdma_tdma(npix: int, plan: FrequencyPlan) -> TdmaSchedule:
    """``schedule_runs`` slot by slot: each slot's (pixel id, carrier Hz) pairs."""
    runs = schedule_runs(npix, plan)
    return TdmaSchedule(tuple(tuple(zip(row, f)) for _, f, px in runs for row in px.tolist()))


def encode_block(
    scene: Scene,
    pixels: np.ndarray,
    freqs: Sequence[float],
    window: SamplingWindow,
    length: int | None = None,
) -> np.ndarray:
    """Rows of slots that drive the same carriers: row s is the superposition
    of pixel pixels[s, j]'s irradiance-weighted square carrier freqs[j] over
    the window's first ``length`` samples (default Q).

    One masked add per carrier, skipping a carrier whose pixels are all dark,
    over one period P = ``repeat_period`` of carriers on whole bins, tiled to
    ``length``, a multiple of P; with a carrier off that grid (crosstalk
    demonstrations) P = Q, over which its partial cycles are sampled.
    """
    # a P-sample period at unit rate, where bin b P / Q has an exact f/fs
    period = repeat_period(freqs, window)
    synth = window if period is None else SamplingWindow(float(period), 1.0, period, 1.0)
    carriers = freqs if period is None else [
        float(whole_number(f / window.delta_f) * period // window.Q) for f in freqs]
    length = window.Q if length is None else length
    if not 0 < length <= window.Q or length % synth.Q:
        raise ValueError(f"a row of {length} samples is not a whole number of the block's"
                         f" {synth.Q}-sample periods up to Q = {window.Q}")
    amps = scene.irradiance.ravel()[np.asarray(pixels, dtype=np.intp)]
    out = np.zeros((len(amps), synth.Q))
    for j, freq in enumerate(carriers):
        column = amps[:, j : j + 1]
        if not column.any():
            continue
        # out starts at +0.0 and every amp >= 0, so a masked-off sample equals adding 0.0
        np.add(out, column, out=out, where=_carrier_mask(freq, synth))
    return np.tile(out, length // synth.Q) if length > synth.Q else out


def encode_slot(
    scene: Scene,
    slot: Sequence[tuple[int, float]],
    window: SamplingWindow,
    strict: bool = True,
) -> SampledSignal:
    """The one-row ``encode_block``, after ``strict`` checks that each carrier
    completes whole cycles (``samples_per_period``)."""
    if strict:
        for _, f in slot:
            samples_per_period(f, window)
    pixels = [[pix for pix, _ in slot]]
    row = encode_block(scene, pixels, [f for _, f in slot], window)[0]
    return SampledSignal(row, window.fs)


@functools.lru_cache(maxsize=64)
def _carrier_mask(freq: float, window: SamplingWindow) -> np.ndarray:
    """Read-only mask of the high samples of a unit carrier over one window, from
    waveform.py's sample_square_free once per (freq, window).  A bin-exact mask
    is one repeat period long; only a carrier off the grid keeps a Q-byte mask.
    64 entries hold every carrier of a passing plan (at most p - 1 on Q = 2**p),
    in at most 64 * Q bytes (4 MiB at Q = 2**16); a list of more than 64
    carriers falls back to one synthesis per carrier per block.
    """
    mask = sample_square_free(SquareWaveSpec(frequency=freq), window).samples != 0.0
    mask.flags.writeable = False
    return mask


def encode_fm_tdma(
    scene: Scene, grid: CaosGrid, carrier: float, window: SamplingWindow
) -> list[SampledSignal]:
    """One slot per pixel in raster order, all on the same carrier."""
    if scene.shape != (grid.rows, grid.cols):
        raise ValueError("scene shape does not match the grid")
    return [
        encode_slot(scene, [(pix, carrier)], window)
        for pix in range(grid.num_pixels)
    ]

