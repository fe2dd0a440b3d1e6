"""Detection-chain impairments between encoder and decoder.

The noise model is deliberately minimal: additive white Gaussian noise,
a mains interference tone (default 50 Hz), a 1/f term drawn when
``pink_sigma`` > 0, and a constant dark offset (which lands in bin 0 and
leaves carrier bins alone).  Magnitudes are scenario parameters.

Randomness is counter-based: the Gaussian draws for a slot come from a
Philox generator keyed by (seed, slot_index), so any processing order or
degree of concurrency reproduces the same decoded image bit for bit.

One function, ``_slot_terms``, draws a slot's terms: AWGN, then pink.  The
keying lets a run draw ahead: ``slot_terms`` yields a run's slot terms in
slot order, and a thread pool of W = min(4, usable CPUs) workers draws the
next W slots while the calling thread encodes, impairs and decodes the
current block.  The caller hands a block's terms to ``add_terms``, which
adds them to the block's rows in place.  Only the draw leaves the calling
thread.  ``add_noise`` is the one-row form.

A stream may be a synchronous average (``SampledSignal.windows`` > 1):
the mean of the q = windows * L samples of a slot over its windows of L
samples.  ``_slot_terms`` still draws every term at q samples from the
slot's key and reduces it to its own L-sample mean, on the workers when
drawn ahead, so the draw and its bits do not depend on L.  Every term, the
mains tone too, reaches its mean through ``_window_mean``: it is written
C = ``_chunk_length`` samples at a time into one buffer, at most DRAW_CHUNK
unless one window is longer, and the chunks' window sums add pairwise, so an
averaged row holds O(C + L log(q / C)) samples of AWGN or of the tone, not q.
Pink, whose spectral shaping needs all q samples, and a raw row are one chunk.
"""

from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields
from itertools import islice

import numpy as np

from .waveform import SampledSignal, fold_windows

__all__ = ["NoiseConfig", "AdcConfig", "add_noise", "add_terms", "quantize", "slot_terms"]

MAX_DRAW_WORKERS = 4
# the most samples of an averaged AWGN or mains term held at once, unless one window is longer
DRAW_CHUNK = 1 << 15
# the ADC resolutions AdcConfig accepts, and a scenario's adc.bits
ADC_BITS = range(2, 25)
# the scenario rules (see caossim.scenario) of a noise magnitude and of the 1/f slope, white (0)
# to brown (2); past those ends f**(-e/2) overflows, or the term collapses onto bin 1
NONNEGATIVE = {"rule": ("nonnegative", lambda v: v >= 0)}
SLOPE = {"rule": ("in 0..2", lambda v: 0 <= v <= 2)}
# a seed is the first Philox key word, so two seeds draw the same noise only if they are equal
SEED = {"rule": ("in 0..2**64-1", lambda v: 0 <= v < 2**64)}


@dataclass(frozen=True)
class NoiseConfig:
    awgn_sigma: float = field(default=0.0, metadata=NONNEGATIVE)
    mains_amplitude: float = field(default=0.0, metadata=NONNEGATIVE)
    mains_freq: float = 50.0
    mains_phase: float = 0.0
    pink_exponent: float = field(default=1.0, metadata=SLOPE)
    pink_sigma: float = field(default=0.0, metadata=NONNEGATIVE)
    dark_offset: float = field(default=0.0, metadata=NONNEGATIVE)
    seed: int = field(default=0, metadata=SEED)

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"noise {f.name} must be finite, got {value}")
            phrase, test = f.metadata.get("rule", (None, None))
            if test is not None and not test(value):
                raise ValueError(f"noise {f.name} must be {phrase}, got {value}")

    @property
    def is_time_invariant(self) -> bool:
        """No AWGN, pink or mains term: at most a constant dark offset, so slots repeat."""
        return not (self.awgn_sigma or self.pink_enabled or self.mains_amplitude)

    @property
    def is_silent(self) -> bool:
        return self.is_time_invariant and not self.dark_offset

    @property
    def pink_enabled(self) -> bool:
        """The 1/f term is drawn exactly when its sigma is positive."""
        return self.pink_sigma > 0


@dataclass(frozen=True)
class AdcConfig:
    bits: int = 16
    full_scale: float = 1.0
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.bits not in ADC_BITS:
            raise ValueError(f"bits must lie in {ADC_BITS[0]}..{ADC_BITS[-1]}")
        if not 0 < self.full_scale < math.inf:
            raise ValueError(f"full_scale must be positive and finite, got {self.full_scale}")


def _slot_rng(seed: int, slot_index: int) -> np.random.Generator:
    key = np.array([seed, slot_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _pink_noise(rng: np.random.Generator, q: int, fs: float, exponent: float) -> np.ndarray:
    """Unit-variance 1/f**exponent noise via spectral shaping of white noise."""
    white = rng.standard_normal(q)
    spec = np.fft.rfft(white)
    f = np.fft.rfftfreq(q, d=1.0 / fs)
    shape = np.zeros_like(f)
    shape[1:] = f[1:] ** (-exponent / 2.0)
    out = np.fft.irfft(spec * shape, n=q)
    std = out.std()
    return out / std if std > 0 else out


def _chunk_length(q: int, period: int) -> int:
    """C, the samples of a slot's averaged term filled at a time: all q of a raw row
    (period == q); for an averaged row, the most windows that fit in DRAW_CHUNK, at
    least one, in a power-of-two count that divides q's.  For a power-of-two period
    that is max(period, min(q, DRAW_CHUNK)).  A count of windows that ``fold_windows``
    refuses is filled whole, so that the fold raises as it would on one array."""
    windows, fit = q // period, max(1, DRAW_CHUNK // period)
    if windows * period != q or windows & (windows - 1):
        return q
    return period * min(windows, 1 << (fit.bit_length() - 1))


def _term_lengths(cfg: NoiseConfig, q: int, period: int) -> list[int]:
    """The samples of each buffer ``_slot_terms`` fills, in draw order: C for AWGN, q for pink."""
    return [_chunk_length(q, period)] * bool(cfg.awgn_sigma) + [q] * cfg.pink_enabled


def _window_sum(fill, first: int, n: int, period: int, buf: np.ndarray) -> np.ndarray:
    """The window sum of a term's n samples from sample ``first`` on, n a power-of-two
    count of C = len(buf)-sample chunks, filled in sample order.

    ``fill(buf, i)`` writes the term's samples i..i + C - 1 into buf, where they fold
    (``fold_windows``), so one chunk's sum is a view of buf.  Two halves add pairwise,
    the earlier half's sum plus the later half's, into a copy of the earlier one, so
    at most log2(n / C) partial sums are held.  With C == n this is one fill's fold.
    """
    if n > len(buf):
        earlier = _window_sum(fill, first, n // 2, period, buf)
        if n // 2 == len(buf):  # a view of buf, which the later half fills over
            earlier = earlier.copy()
        return np.add(earlier, _window_sum(fill, first + n // 2, n // 2, period, buf), out=earlier)
    fill(buf, first)
    return fold_windows(buf, period, out=buf)


def _window_mean(fill, n: int, period: int, buf: np.ndarray) -> np.ndarray:
    """The mean of a term's n samples over its windows of ``period`` samples:
    ``_window_sum`` from sample 0, scaled by period / n, a power of two, which is
    exact, over buf[:period].  With period == n, buf itself as ``fill`` wrote it."""
    mean = _window_sum(fill, 0, n, period, buf)
    if period < n:
        mean = np.multiply(mean, period / n, out=buf[:period])
    return mean


def _slot_terms(
    cfg: NoiseConfig, q: int, fs: float, slot_index: int, period: int, out: list | None = None
) -> list[np.ndarray]:
    """A slot's scaled stochastic terms, each reduced to its period-sample mean.

    The terms are drawn at q samples in draw order, AWGN first, then pink, so
    disabling one never shifts the other.  ``out`` holds one float64 buffer per
    term to fill (``_window_mean``), of ``_term_lengths`` samples; without it the
    buffers are allocated here.  A term past one chunk is returned as its own array.
    """
    if out is None:
        out = [np.empty(n) for n in _term_lengths(cfg, q, period)]
    if not out:
        return out
    rng = _slot_rng(cfg.seed, slot_index)

    def awgn(buf: np.ndarray, first: int) -> None:
        np.multiply(rng.standard_normal(out=buf), cfg.awgn_sigma, out=buf)

    def pink(buf: np.ndarray, first: int) -> None:
        np.multiply(_pink_noise(rng, q, fs, cfg.pink_exponent), cfg.pink_sigma, out=buf)

    fills = [awgn] * bool(cfg.awgn_sigma) + [pink] * cfg.pink_enabled
    return [_window_mean(fill, q, period, buf) for fill, buf in zip(fills, out, strict=True)]


def add_terms(
    rows: np.ndarray, terms: Iterable[list[np.ndarray]], cfg: NoiseConfig, fs: float,
    windows: int = 1, start: int = 0,
) -> None:
    """Add noise to a block of slot rows in place, row s from slot s's ``terms``.

    The dark offset and the mains tone's mean over the slot's ``windows``, built in
    chunks (``_window_mean``), are added to the whole block, since neither depends on
    the slot; the tone is taken at the samples from ``start`` on, so a row may be a
    later stretch of its slot (a chunk of a CDMA band, with slices of its terms).
    Then each row takes its stochastic terms (``_slot_terms``) in place, in draw
    order: (((row + dark) + mains) + awgn) + pink.  The terms are only read, and IEEE
    addition commutes (row + term == term + row bit for bit), so adding into the row
    gives the bits of adding into the term.
    """
    period = rows.shape[-1]
    if cfg.dark_offset:
        rows += cfg.dark_offset
    if cfg.mains_amplitude:
        q = period * windows

        def mains(buf: np.ndarray, first: int) -> None:
            buf[:] = np.arange(start + first, start + first + len(buf))  # n, exact in float64
            np.sin(2.0 * np.pi * cfg.mains_freq * buf / fs + cfg.mains_phase, out=buf)
            buf *= cfg.mains_amplitude

        rows += _window_mean(mains, q, period, np.empty(_chunk_length(q, period)))
    for row, slot in zip(rows, terms, strict=True):
        for term in slot:
            row += term


def add_noise(stream: SampledSignal, cfg: NoiseConfig, slot_index: int) -> SampledSignal:
    """Apply dark offset, mains tone and stochastic noise to one slot.

    Pure function of (stream, cfg, slot_index); the input is never changed
    and the result is a fresh array.  An averaged stream (windows > 1) gets
    each term's mean over the slot's windows: ``add_terms`` on a one-row block.
    """
    x = stream.samples.copy()
    q = x.shape[0] * stream.windows
    terms = _slot_terms(cfg, q, stream.fs, slot_index, x.shape[0])
    add_terms(x[None], [terms], cfg, stream.fs, stream.windows)
    return SampledSignal(x, stream.fs, stream.windows)


def _draw_workers() -> int:
    """W: the CPUs this process may run on, at most MAX_DRAW_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return min(MAX_DRAW_WORKERS, cpus)


def slot_terms(
    cfg: NoiseConfig, q: int, fs: float, period: int, slots: range
) -> Iterator[list[np.ndarray]]:
    """``_slot_terms`` of each of ``slots`` in turn, for ``add_terms``.

    With W = ``_draw_workers()`` >= 2, two or more slots and a stochastic
    term, a pool of W threads draws up to W slots ahead of the slot last
    yielded, into buffers allocated on the calling thread: at most W slots
    of 8 * C bytes of AWGN (``_chunk_length``; C = q for a raw row) and
    8 * q of pink in flight.  A worker's exception is raised at
    its slot.  When the generator ends or is closed, the draws in flight
    finish and the pool is joined.  Otherwise each slot is drawn inline
    and no thread starts.  Draws are keyed by (seed, slot), so the terms
    are bit-identical either way.
    """
    width, lengths = _draw_workers(), _term_lengths(cfg, q, period)
    if width < 2 or len(slots) < 2 or not lengths:
        for i in slots:
            yield _slot_terms(cfg, q, fs, i, period)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(width, thread_name_prefix="caossim-noise") as pool:
        todo = iter(slots)

        def submit(i: int):
            # buffers come from this thread's heap, not from a worker's arena
            buffers = [np.empty(n) for n in lengths]
            return pool.submit(_slot_terms, cfg, q, fs, i, period, buffers)

        ahead = deque(submit(i) for i in islice(todo, width))
        while ahead:
            future = ahead.popleft()
            ahead.extend(submit(i) for i in islice(todo, 1))
            yield future.result()


def quantize(stream: SampledSignal, cfg: AdcConfig) -> tuple[SampledSignal, int]:
    """Mid-tread uniform ADC: clamp to [0, full_scale], round to 2**bits codes.

    Returns the reconstructed stream and the number of clipped samples.
    Clipping includes codes that saturate the top level, so every unclipped
    sample reconstructs within half an LSB (full_scale / 2**(bits+1)).
    An enabled ADC acts on raw samples, so it refuses an averaged stream.
    """
    if not cfg.enabled:
        return stream, 0
    if stream.windows > 1:
        raise ValueError(
            f"the ADC quantizes raw samples, but this stream averages {stream.windows} windows"
        )
    step = cfg.full_scale / 2**cfg.bits
    code = stream.samples / step
    np.round(code, out=code)
    top = 2**cfg.bits - 1
    clipped = int(np.count_nonzero(code < 0)) + int(np.count_nonzero(code > top))
    np.clip(code, 0, top, out=code)
    code *= step
    return SampledSignal(code, stream.fs), clipped
