"""Reference formulas the tests hold caossim to; they share no code with it."""

import math

import numpy as np


def full_fft_estimate(stream, f):
    """|X[b]| / (Q a1(N)) for a carrier f in a Q-sample slot stream.

    X is the full Q-point FFT, b the bin nearest f, and
    a1(N) = 1/(N sin(pi/N)) the fundamental coefficient of a unit 50%-duty
    square wave with N = fs/f samples per period, so a clean unit carrier
    reads 1.
    """
    q = len(stream.samples)
    b = round(f / (stream.fs / q))
    n = stream.fs / f
    a1 = 1.0 / (n * math.sin(math.pi / n))
    return float(abs(np.fft.fft(stream.samples)[b]) / (q * a1))
