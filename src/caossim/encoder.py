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
* FDMA-TDMA (``encode_slot`` on each slot of ``schedule_fdma_tdma``): P
  pixels per slot on distinct plan carriers, summed on the detector.

Every TDMA slot drives the same carriers on the same frame clock; only the
pixel amplitudes change from slot to slot.  Each carrier is therefore
synthesised once per (frequency, window, strict) as a boolean mask of its
high samples, and ``encode_block`` encodes a block of slots that share
their carriers as one (S x Q) array, one masked add of the pixels'
amplitudes per carrier.  ``encode_slot`` is its one-row case.

Pixels outside the active slot are parked toward the complementary
detector and contribute nothing to the primary stream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .freq_plan import FrequencyPlan
from .scene_optics import CaosGrid, Scene
from .waveform import (
    SampledSignal,
    SamplingWindow,
    SquareWaveSpec,
    sample_square_free,
    synth_square,
)

__all__ = [
    "WalshAssignment",
    "CdmaConfig",
    "TdmaSchedule",
    "SampledSignal",
    "walsh_matrix",
    "fwht",
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
        if any(not 1 <= r < L for r in rows):
            raise ValueError("code rows must lie in 1..L-1 (row 0 is reserved)")
        if len(rows) > L - 1:
            raise ValueError("more pixels than available code rows")

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
        if self.bit_rate <= 0 or self.samples_per_bit < 1:
            raise ValueError("bit_rate must be positive and samples_per_bit >= 1")

    @property
    def fs(self) -> float:
        return self.bit_rate * self.samples_per_bit


def encode_cdma(
    scene: Scene, assignment: WalshAssignment, cfg: CdmaConfig
) -> SampledSignal:
    """Sum of code-gated pixel irradiances, held samples_per_bit per bit.

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
    strict: bool = True,
) -> np.ndarray:
    """Rows of slots that drive the same carriers: row s is the superposition
    of pixel pixels[s, j]'s irradiance-weighted square carrier freqs[j].

    One masked add per carrier over the whole (S x Q) block.  Each carrier
    is synthesised once per (frequency, window, strict) and reused by every
    later block; a carrier whose pixels are all dark is skipped.
    strict=False samples misconfigured carriers with partial cycles instead
    of rejecting them (crosstalk demonstrations).
    """
    amps = scene.irradiance.ravel()[np.asarray(pixels, dtype=np.intp)]
    out = np.zeros((len(amps), window.Q))
    for j, freq in enumerate(freqs):
        column = amps[:, j : j + 1]
        if not column.any():
            continue
        # out starts at +0.0 and every amp >= 0, so a masked-off sample equals adding 0.0
        np.add(out, column, out=out, where=_carrier_mask(freq, window, strict))
    return out


def encode_slot(
    scene: Scene,
    slot: Sequence[tuple[int, float]],
    window: SamplingWindow,
    strict: bool = True,
) -> SampledSignal:
    """One slot's superposition of its irradiance-weighted square carriers:
    the one-row ``encode_block``."""
    pixels = [[pix for pix, _ in slot]]
    row = encode_block(scene, pixels, [f for _, f in slot], window, strict)[0]
    return SampledSignal(row, window.fs)


@functools.lru_cache(maxsize=64)
def _carrier_mask(freq: float, window: SamplingWindow, strict: bool) -> np.ndarray:
    """Read-only mask of the high samples of a unit carrier over one window.

    The square wave itself is defined only in waveform.py: this calls
    synth_square (strict) or sample_square_free once per (freq, window,
    strict) and keeps Q bytes.  A carrier set that strict mode accepts (a
    power-of-two ladder with at least 4 samples per period) on Q = 2**p
    samples has at most p - 1 carriers, so 64 entries hold every carrier of
    such a plan; the cache holds at most 64 * Q bytes of the largest
    window used (4 MiB at Q = 2**16).  A permissive explicit list of more
    than 64 carriers falls back to one synthesis per carrier per slot.
    """
    synth = synth_square if strict else sample_square_free
    mask = synth(SquareWaveSpec(frequency=freq), window).samples != 0.0
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

