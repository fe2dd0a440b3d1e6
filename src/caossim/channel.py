"""Detection-chain impairments between encoder and decoder.

The noise model is deliberately minimal: additive white Gaussian noise,
a mains interference tone (default 50 Hz), a 1/f term drawn when
``pink_sigma`` > 0, and a constant dark offset (which lands in bin 0 and
leaves carrier bins alone).  Magnitudes are scenario parameters.

Randomness is counter-based: the Gaussian draws for a slot come from a
Philox generator keyed by (seed, slot_index), so any processing order or
degree of concurrency reproduces the same decoded image bit for bit.

That keying lets a run draw ahead: inside ``draws_ahead`` a thread pool of
W = min(4, usable CPUs) workers draws the stochastic terms of the next W
slots while the calling thread encodes, impairs and decodes the current
one, and ``add_noise`` takes a slot's terms from the pool instead of
drawing them.  Only the draw leaves the calling thread; ``add_noise``
itself, and everything around it, runs there in slot order.

A stream may be a synchronous average (``SampledSignal.windows`` > 1):
the mean of the q = windows * L samples of a slot over its windows of L
samples.  Every term is then still drawn at q samples from the slot's key
and reduced to its own L-sample mean (``_window_mean``), on the workers
when drawn ahead, so the draw and its bits do not depend on L.
"""

from __future__ import annotations

import math
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields

import numpy as np

from .waveform import SampledSignal, fold_windows

__all__ = ["NoiseConfig", "AdcConfig", "add_noise", "draws_ahead", "quantize"]

MAX_DRAW_WORKERS = 4
# the ADC resolutions AdcConfig accepts, and a scenario's adc.bits
ADC_BITS = range(2, 25)
# the scenario rules (see caossim.scenario) of a noise magnitude and of the 1/f slope, white (0)
# to brown (2); past those ends f**(-e/2) overflows, or the term collapses onto bin 1
NONNEGATIVE = {"rule": ("nonnegative", lambda v: v >= 0)}
SLOPE = {"rule": ("in 0..2", lambda v: 0 <= v <= 2)}


@dataclass(frozen=True)
class NoiseConfig:
    awgn_sigma: float = field(default=0.0, metadata=NONNEGATIVE)
    mains_amplitude: float = field(default=0.0, metadata=NONNEGATIVE)
    mains_freq: float = 50.0
    mains_phase: float = 0.0
    pink_exponent: float = field(default=1.0, metadata=SLOPE)
    pink_sigma: float = field(default=0.0, metadata=NONNEGATIVE)
    dark_offset: float = field(default=0.0, metadata=NONNEGATIVE)
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"noise {f.name} must be finite, got {value}")
            phrase, test = f.metadata.get("rule", (None, None))
            if test is not None and not test(value):
                raise ValueError(f"noise {f.name} must be {phrase}, got {value}")

    @property
    def is_silent(self) -> bool:
        return not (self.awgn_sigma or self.pink_enabled or self.mains_amplitude
                    or self.dark_offset)

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
        if self.full_scale <= 0:
            raise ValueError("full_scale must be positive")


def _slot_rng(seed: int, slot_index: int) -> np.random.Generator:
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, slot_index & 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
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


def _term_count(cfg: NoiseConfig) -> int:
    """How many stochastic terms a slot draws: AWGN, pink, both or none."""
    return bool(cfg.awgn_sigma) + cfg.pink_enabled


def _noise_terms(
    cfg: NoiseConfig, q: int, fs: float, slot_index: int, out: list | None = None
) -> list[np.ndarray]:
    """A slot's scaled stochastic terms in draw order: AWGN first, then pink.

    The AWGN draw is consumed before the pink draw, so disabling one never
    shifts the other.  ``out`` holds one length-q float64 buffer per term
    (``_term_count``) to fill; without it the buffers are allocated here.
    """
    if out is None:
        out = [np.empty(q) for _ in range(_term_count(cfg))]
    if not out:
        return out
    rng = _slot_rng(cfg.seed, slot_index)
    terms = iter(out)
    if cfg.awgn_sigma:
        z = next(terms)
        rng.standard_normal(q, out=z)
        z *= cfg.awgn_sigma
    if cfg.pink_enabled:
        np.multiply(_pink_noise(rng, q, fs, cfg.pink_exponent), cfg.pink_sigma, out=next(terms))
    return out


def _window_mean(x: np.ndarray, period: int) -> np.ndarray:
    """The mean of x's windows of ``period`` samples, written over x[:period].

    x is folded in place (``fold_windows``, the readout's order) and then
    scaled by period / len(x), a power of two, which is exact.  Returns the
    view x[:period]; with period == len(x), x itself, untouched.
    """
    mean = fold_windows(x, period, out=x)
    if len(mean) < len(x):
        mean *= period / len(x)
    return mean


def _slot_terms(
    cfg: NoiseConfig, q: int, fs: float, slot_index: int, period: int, out: list | None = None
) -> list[np.ndarray]:
    """``_noise_terms`` of a q-sample slot, each reduced to its period-sample mean."""
    return [_window_mean(term, period) for term in _noise_terms(cfg, q, fs, slot_index, out)]


def add_noise(stream: SampledSignal, cfg: NoiseConfig, slot_index: int) -> SampledSignal:
    """Apply dark offset, mains tone and stochastic noise to one slot.

    Pure function of (stream, cfg, slot_index); the input is never changed
    and the result is a fresh array.  An averaged stream (windows > 1) gets
    each term's mean over the slot's windows, added in the same order.
    Inside ``draws_ahead`` the stochastic terms may come from the pool,
    drawn and averaged exactly as ``_slot_terms`` does here.
    """
    x = stream.samples
    period = x.shape[0]
    q = period * stream.windows
    if cfg.dark_offset or cfg.mains_amplitude:
        x = x.copy()
        if cfg.dark_offset:
            x += cfg.dark_offset
        if cfg.mains_amplitude:
            n = np.arange(q)
            tone = cfg.mains_amplitude * np.sin(
                2.0 * np.pi * cfg.mains_freq * n / stream.fs + cfg.mains_phase
            )
            x += _window_mean(tone, period)
    ahead = _DRAWN.get()
    terms = ahead.take(cfg, q, stream.fs, period, slot_index) if ahead is not None else None
    if terms is None:
        terms = _slot_terms(cfg, q, stream.fs, slot_index, period)
    if not terms:
        return SampledSignal(x.copy() if x is stream.samples else x, stream.fs, stream.windows)
    # the first term takes the sum: z + x == x + z bit for bit
    out = terms[0]
    out += x
    for term in terms[1:]:
        out += term
    return SampledSignal(out, stream.fs, stream.windows)


def _draw_workers() -> int:
    """W: the CPUs this process may run on, at most MAX_DRAW_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    return min(MAX_DRAW_WORKERS, cpus)


class _DrawAhead:
    """Slots' noise terms submitted to a pool up to ``width`` slots ahead of
    the last slot taken; served only to the thread that opened the block."""

    def __init__(
        self, pool, width: int, cfg: NoiseConfig, q: int, fs: float, n: int, period: int
    ):
        self.pool = pool
        self.width = width
        self.key = (cfg, q, fs, period)
        self.n = n
        self.owner = threading.get_ident()
        self.pending: dict = {}
        self.next = 0
        self._submit_through(width - 1)

    def _submit_through(self, last: int) -> None:
        cfg, q, fs, period = self.key
        while self.next < self.n and self.next <= last:
            # buffers come from this thread's heap, not from a worker's arena
            buffers = [np.empty(q) for _ in range(_term_count(cfg))]
            self.pending[self.next] = self.pool.submit(
                _slot_terms, cfg, q, fs, self.next, period, buffers
            )
            self.next += 1

    def take(
        self, cfg: NoiseConfig, q: int, fs: float, period: int, slot_index: int
    ) -> list | None:
        if threading.get_ident() != self.owner or (cfg, q, fs, period) != self.key:
            return None
        future = self.pending.pop(slot_index, None)
        if future is None:
            return None
        self._submit_through(slot_index + self.width)
        return future.result()


_DRAWN: ContextVar[_DrawAhead | None] = ContextVar("caossim_drawn_noise", default=None)


@contextmanager
def draws_ahead(cfg: NoiseConfig, q: int, fs: float, n: int, period: int | None = None):
    """Draw the stochastic terms of slots 0..n-1 ahead on a thread pool.

    While the caller works on slot i, W workers draw slots i+1..i+W at q
    samples and reduce each term to its mean over windows of ``period``
    samples (default q: no reduction), at most W * terms * 8 * q bytes in
    flight.  ``add_noise(stream, cfg, i)`` on this thread takes slot i's
    terms when (cfg, q, fs, period) match the stream; any other call draws
    inline.  Draws are keyed by (seed, slot), so the results are
    bit-identical either way.  With W < 2, fewer than two slots or no
    stochastic noise, no thread is started.  On exit, also by an exception,
    the workers finish the draws in flight and are joined.
    """
    width = _draw_workers()
    if width < 2 or n < 2 or not _term_count(cfg):
        yield
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(width, thread_name_prefix="caossim-noise") as pool:
        token = _DRAWN.set(_DrawAhead(pool, width, cfg, q, fs, n, period or q))
        try:
            yield
        finally:
            _DRAWN.reset(token)


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
