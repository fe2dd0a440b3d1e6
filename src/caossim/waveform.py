"""Sampled square-wave synthesis and its exact Fourier-coefficient analysis.

A binary micromirror toggled at a carrier frequency turns a pixel's
irradiance into an on/off square wave on the photodetector.  Channel
selection for the frequency-division mode rests on two discrete-time facts
about such waves:

* a 50%-duty square wave with an even number of samples per period has
  exactly zero energy at every even harmonic (half-wave symmetry), and
* its odd-harmonic coefficients follow a closed form, so the clean spots
  in the spectrum can be enumerated ahead of time, alias folds included.

Both the brute-force coefficient sum and the closed form live here and
cross-check each other to machine precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SamplingWindow",
    "SquareWaveSpec",
    "SampledSignal",
    "synth_square",
    "sample_square_free",
    "fourier_coeff_direct",
    "fourier_coeff_closed",
    "fundamental_coefficient",
    "fold_bin",
    "fold_windows",
    "folded_harmonic_bins",
    "nearest_bin",
    "whole_number",
]


@dataclass(frozen=True)
class SamplingWindow:
    """One acquisition slot: duration T, sample rate fs, Q = fs*T samples.

    Q must be a power of two, so that every plan carrier fs/2^k fits whole
    cycles into the slot, and the spectral resolution is delta_f = 1/T = fs/Q.
    """

    fs: float
    T: float
    Q: int
    delta_f: float

    def __post_init__(self) -> None:
        if self.Q < 2 or self.Q & (self.Q - 1):
            raise ValueError(f"Q must be a power of two, got {self.Q}")
        if not math.isclose(self.fs * self.T, self.Q, rel_tol=1e-12):
            raise ValueError(f"Q must equal fs*T exactly: {self.fs}*{self.T} != {self.Q}")
        if not math.isclose(self.delta_f, 1.0 / self.T, rel_tol=1e-12):
            raise ValueError("delta_f must equal 1/T")

    @classmethod
    def design(cls, T: float, p: int) -> "SamplingWindow":
        """Window with Q = 2**p samples over T seconds (fs = 2**p / T)."""
        if p < 1:
            raise ValueError("p must be >= 1")
        try:
            fs = math.ldexp(1.0, p) / T
        except OverflowError:
            fs = math.inf
        if not math.isfinite(fs):
            raise ValueError(f"p = {p} and T = {T} s give fs = 2**p / T beyond a float")
        return cls(fs=fs, T=T, Q=1 << p, delta_f=1.0 / T)


@dataclass(frozen=True)
class SquareWaveSpec:
    """Carrier description for one modulated pixel.

    Every carrier is a 50%-duty wave that starts high at sample 0: the
    mirrors switch on a common frame clock.  The decoder's normalization
    (fundamental_coefficient), the even-harmonic null the plan audit rests
    on and the runner's noiseless stream peak all assume both.
    """

    frequency: float
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")


@dataclass(frozen=True, eq=False)
class SampledSignal:
    """Real-valued uniformly sampled photodetector waveform.

    windows > 1 marks a synchronous average: the samples are the mean of
    ``windows`` consecutive windows of ``len(samples)`` samples each, of a
    stream ``windows * len(samples)`` samples long.  The noise and the
    carrier-bin readout are linear and accept one; the ADC does not.
    """

    samples: np.ndarray = field(repr=False)
    fs: float
    windows: int = 1

    def __post_init__(self) -> None:
        if self.windows < 1:
            raise ValueError(f"a stream averages at least 1 window, got {self.windows}")
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")

    def __len__(self) -> int:
        return self.samples.shape[0]


def whole_number(x: float) -> int | None:
    """round(x) when x lies within 1e-9 * max(1, |x|) of it, else None.

    The one tolerance for "a whole number of samples per period, cycles per
    window or bins": synthesis, readout and the plan audit all judge a
    carrier with it, so they cannot disagree.  Non-finite x is never whole.
    """
    if not math.isfinite(x):
        return None
    n = round(x)
    return n if abs(x - n) <= 1e-9 * max(1.0, abs(x)) else None


def samples_per_period(frequency: float, window: SamplingWindow) -> int:
    """Integer number of samples in one carrier period, or raise.

    Rejects the two conditions that break whole-cycle acquisition:
    a non-integer samples-per-period count (partial cycles are the
    crosstalk source the design forbids) and a carrier that is not an
    integer number of cycles inside the window.
    """
    n_float = window.fs / frequency
    n = whole_number(n_float)
    if n is None:
        raise ValueError(
            f"fs/f = {n_float} is not an integer; partial periods are rejected"
        )
    if n < 4:
        raise ValueError(f"need at least 4 samples per period, got {n}")
    if frequency > window.fs / 2:
        raise ValueError("frequency above Nyquist")
    if whole_number(frequency / window.delta_f) is None:
        raise ValueError(
            f"frequency {frequency} Hz is not an integer multiple of "
            f"delta_f = {window.delta_f} Hz"
        )
    return n


def synth_square(spec: SquareWaveSpec, window: SamplingWindow) -> SampledSignal:
    """Synthesize one window of an exactly periodic sampled square wave.

    The wave completes whole cycles inside the window; sample n is high
    (equal to the amplitude) when its position n mod N within the period
    is below N/2, so each period starts with N/2 high samples (N divides
    the power-of-two Q, so it is even).  One period is built and tiled,
    so the work per sample is a copy, not an integer modulo.
    """
    n_per = samples_per_period(spec.frequency, window)
    period = np.arange(n_per) < n_per * 0.5
    high = np.tile(period, window.Q // n_per)
    return SampledSignal(np.where(high, spec.amplitude, 0.0), window.fs)


def sample_square_free(spec: SquareWaveSpec, window: SamplingWindow) -> SampledSignal:
    """Sample a square wave of arbitrary frequency, partial cycles allowed.

    This is the misconfigured-carrier path: a wave whose period does not
    divide the window leaks energy across the whole spectrum, which is
    exactly the artifact the channel-selection rule exists to prevent.
    Valid carriers produce the same samples as synth_square.
    """
    if spec.frequency > window.fs / 2:
        raise ValueError("frequency above Nyquist")
    n = np.arange(window.Q)
    phase = np.mod(n * (spec.frequency / window.fs), 1.0)
    return SampledSignal(np.where(phase < 0.5, spec.amplitude, 0.0), window.fs)


def fourier_coeff_direct(N: int, N1: int, k: int) -> complex:
    """Fourier series coefficient of a symmetric (2*N1+1)-high pulse train.

    Brute-force evaluation of (1/N) * sum_{n=-N1..N1} exp(-jk(2pi/N)n).
    Serves as the oracle for the closed form.
    """
    _check_pulse_args(N, N1)
    n = np.arange(-N1, N1 + 1)
    return complex(np.sum(np.exp(-1j * k * (2.0 * np.pi / N) * n)) / N)


def fourier_coeff_closed(N: int, N1: int, k: int) -> complex:
    """Closed form of fourier_coeff_direct.

    sin(2 pi k (N1 + 1/2) / N) / (N sin(pi k / N)) for k not a multiple
    of N; the removable singularity at k = 0 (mod N) evaluates to the DC
    value (2*N1+1)/N.  At exact 50% duty (2*N1+1 = N/2) this is zero for
    even k and +-1/(N sin(pi k/N)) for odd k.
    """
    _check_pulse_args(N, N1)
    if k % N == 0:
        return complex((2 * N1 + 1) / N)
    num = math.sin(2.0 * math.pi * k * (N1 + 0.5) / N)
    den = N * math.sin(math.pi * k / N)
    return complex(num / den)


def _check_pulse_args(N: int, N1: int) -> None:
    if N < 2 or N % 2:
        raise ValueError("N must be a positive even integer")
    if N1 < 0 or 2 * N1 + 1 > N:
        raise ValueError("need 0 <= 2*N1+1 <= N")


def fundamental_coefficient(n_per_period: float) -> float:
    """|a_1| of a unit 50%-duty square wave with n samples per period.

    1/(N sin(pi/N)); tends to 1/pi as N grows.  This exact discrete value
    (not the continuous 2/pi) is the decoder's normalization: it already
    contains the self-alias folds of harmonics N-1, N+1, ... back onto
    the fundamental, so channels with few samples per period decode
    exactly.  Accepts non-integer N for the misconfigured-carrier path.
    """
    if n_per_period < 2:
        raise ValueError("need at least 2 samples per period")
    return 1.0 / (n_per_period * math.sin(math.pi / n_per_period))


def fold_bin(b: int, q: int) -> int:
    """Bin where integer bin b lands after aliasing about q bins (fs), in 0..q/2."""
    r = b % q
    return min(r, q - r)


def fold_windows(x: np.ndarray, period: int, out: np.ndarray | None = None) -> np.ndarray:
    """x_L[..., n] = sum_m x[..., n + m L] over the windows of L = ``period`` samples
    along x's last axis, each row of a 2-D block alike.

    Sums by repeated halving, x[..., :h] + x[..., h:2h]: the pairwise order of
    the first decimation-in-frequency stages of an FFT of the row.  The
    carrier-bin readout and the averaged noise terms both fold here, so
    they round alike.  The partial sums go to ``out`` (x's shape; x itself
    folds in place) or, by default, to fresh arrays.  With period equal to
    the row length, returns x untouched.
    """
    q = x.shape[-1]
    windows = q // period
    if windows * period != q or windows & (windows - 1):
        raise ValueError(f"{q} samples are not a power-of-two count of {period}-sample windows")
    h = q
    while h > period:
        h //= 2
        x = np.add(x[..., :h], x[..., h : 2 * h], out=None if out is None else out[..., :h])
    return x


def folded_harmonic_bins(
    f: float, window: SamplingWindow, max_harmonic: int
) -> set[int]:
    """Bins hit by the odd harmonics h*f (h odd, h <= max_harmonic), folded.

    The fundamental (h=1) is included.  Harmonics beyond h = N-1 alias
    onto bins already in the set, so max_harmonic = N-1 is exhaustive.
    """
    b = whole_number(f / window.delta_f)
    if b is None:
        raise ValueError("f must be an integer multiple of delta_f")
    return {fold_bin(h * b, window.Q) for h in range(1, max_harmonic + 1, 2)}


def nearest_bin(f: float, delta_f: float, q: int) -> int:
    """Index of the bin nearest f in a q-point spectrum; it must lie in 0..q/2."""
    x = f / delta_f
    if not (math.isfinite(x) and 0 <= round(x) <= q // 2):
        raise ValueError(f"{f} Hz lies outside the spectrum 0..{q // 2 * delta_f:g} Hz")
    return round(x)
