"""Detection-chain impairments between encoder and decoder.

The noise model is deliberately minimal: additive white Gaussian noise,
a mains interference tone (default 50 Hz), an optional 1/f term, and a
constant dark offset (which lands in bin 0 and leaves carrier bins
alone).  Magnitudes are scenario parameters.

Randomness is counter-based: the Gaussian draws for a slot come from a
Philox generator keyed by (seed, slot_index), so any processing order or
degree of concurrency reproduces the same decoded image bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .waveform import SampledSignal

__all__ = ["NoiseConfig", "AdcConfig", "add_noise", "quantize"]


@dataclass(frozen=True)
class NoiseConfig:
    awgn_sigma: float = 0.0
    mains_amplitude: float = 0.0
    mains_freq: float = 50.0
    mains_phase: float = 0.0
    pink_enabled: bool = False
    pink_exponent: float = 1.0
    pink_sigma: float = 0.0
    dark_offset: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"noise {f.name} must be finite, got {value}")
        if min(self.awgn_sigma, self.mains_amplitude, self.pink_sigma, self.dark_offset) < 0:
            raise ValueError("noise magnitudes must be nonnegative")

    @property
    def is_silent(self) -> bool:
        return (
            self.awgn_sigma == 0.0
            and self.mains_amplitude == 0.0
            and self.dark_offset == 0.0
            and not self.pink_enabled
        )


@dataclass(frozen=True)
class AdcConfig:
    bits: int = 16
    full_scale: float = 1.0
    enabled: bool = True

    def __post_init__(self) -> None:
        if not 2 <= self.bits <= 24:
            raise ValueError("bits must lie in 2..24")
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


def add_noise(stream: SampledSignal, cfg: NoiseConfig, slot_index: int) -> SampledSignal:
    """Apply dark offset, mains tone and stochastic noise to one slot.

    Pure function of (stream, cfg, slot_index): the AWGN draw is consumed
    before the pink draw, so disabling one never shifts the other.
    """
    out = stream.samples.copy()
    q = out.shape[0]
    if cfg.dark_offset:
        out += cfg.dark_offset
    if cfg.mains_amplitude:
        n = np.arange(q)
        out += cfg.mains_amplitude * np.sin(
            2.0 * np.pi * cfg.mains_freq * n / stream.fs + cfg.mains_phase
        )
    if cfg.awgn_sigma or cfg.pink_enabled:
        rng = _slot_rng(cfg.seed, slot_index)
        if cfg.awgn_sigma:
            z = rng.standard_normal(q)
            z *= cfg.awgn_sigma
            out += z
        if cfg.pink_enabled and cfg.pink_sigma:
            out += cfg.pink_sigma * _pink_noise(rng, q, stream.fs, cfg.pink_exponent)
    return SampledSignal(out, stream.fs)


def quantize(stream: SampledSignal, cfg: AdcConfig) -> tuple[SampledSignal, int]:
    """Mid-tread uniform ADC: clamp to [0, full_scale], round to 2**bits codes.

    Returns the reconstructed stream and the number of clipped samples.
    Clipping includes codes that saturate the top level, so every unclipped
    sample reconstructs within half an LSB (full_scale / 2**(bits+1)).
    """
    if not cfg.enabled:
        return stream, 0
    step = cfg.full_scale / 2**cfg.bits
    code = np.round(stream.samples / step)
    top = 2**cfg.bits - 1
    clipped = int(np.count_nonzero((code < 0) | (code > top)))
    code = np.clip(code, 0, top)
    return SampledSignal(code * step, stream.fs), clipped
