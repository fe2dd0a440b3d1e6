"""Square-wave synthesis and Fourier-coefficient oracles.

The closed-form coefficients are checked against the brute-force sum, and
synthesized windows are checked against an independent FFT (numpy's).
"""

import math

import numpy as np
import pytest

from caossim.waveform import (
    SamplingWindow,
    SquareWaveSpec,
    fold_bin,
    fold_to_bin,
    folded_harmonic_bins,
    fourier_coeff_closed,
    fourier_coeff_direct,
    fundamental_coefficient,
    nearest_bin,
    sample_square_free,
    synth_square,
    whole_number,
)

WINDOW_64K = SamplingWindow.design(T=1.0, p=16)


class TestSamplingWindow:
    def test_design(self):
        w = WINDOW_64K
        assert (w.fs, w.T, w.Q, w.delta_f) == (65536.0, 1.0, 65536, 1.0)

    def test_design_quarter_second(self):
        w = SamplingWindow.design(T=0.25, p=14)
        assert w.fs == 65536.0 and w.Q == 16384 and w.delta_f == 4.0

    @pytest.mark.parametrize("T, p", [(1.0, 2000), (1.0, 10**15), (1e-320, 20)])
    def test_fs_beyond_a_float_names_p(self, T, p):
        with pytest.raises(ValueError, match=f"p = {p}"):
            SamplingWindow.design(T, p)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            SamplingWindow(fs=100.0, T=1.0, Q=100, delta_f=1.0)

    def test_inconsistent_q_rejected(self):
        with pytest.raises(ValueError):
            SamplingWindow(fs=64.0, T=1.0, Q=128, delta_f=1.0)


class TestWholeNumber:
    @pytest.mark.parametrize(
        "x, expected",
        [
            (4.0, 4),
            (-3.0, -3),
            (0.0, 0),
            (1e6 + 0.999e-3, 1000000),  # relative 1e-9 above 1
            (1e6 + 1.001e-3, None),
            (-1e6 - 0.999e-3, -1000000),
            (1.0 + 0.9e-9, 1),
            (1.0 + 1.1e-9, None),
            (0.9e-9, 0),  # absolute 1e-9 below 1
            (1.1e-9, None),
            (0.5, None),
            (float("nan"), None),
            (float("inf"), None),
            (float("-inf"), None),
        ],
    )
    def test_boundaries(self, x, expected):
        got = whole_number(x)
        assert got == expected
        assert expected is None or type(got) is int


class TestSynthSquare:
    def test_64hz_64_complete_cycles(self):
        sig = synth_square(SquareWaveSpec(frequency=64.0), WINDOW_64K)
        x = sig.samples
        assert len(x) == 65536
        period = x[:1024]
        assert period.sum() == 512  # exactly half the period high
        assert np.array_equal(x, np.tile(period, 64))

    def test_one_cycle_at_delta_f(self):
        w = SamplingWindow.design(T=1.0, p=4)
        x = synth_square(SquareWaveSpec(frequency=w.delta_f), w).samples
        assert x.sum() == 8.0
        # one rising edge, one falling edge in the whole window
        assert np.count_nonzero(np.diff(x)) == 1 and x[0] == 1.0

    def test_zero_amplitude(self):
        x = synth_square(SquareWaveSpec(frequency=64.0, amplitude=0.0), WINDOW_64K)
        assert not x.samples.any()

    def test_starts_high_and_phase_shift(self):
        w = SamplingWindow.design(T=1.0, p=6)
        base = synth_square(SquareWaveSpec(frequency=8.0), w).samples
        assert base[0] == 1.0
        shifted = synth_square(SquareWaveSpec(frequency=8.0, phase_samples=3), w).samples
        assert np.array_equal(shifted, np.roll(base, 3))

    def test_partial_cycles_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            synth_square(SquareWaveSpec(frequency=3.0), SamplingWindow.design(T=1.0, p=3))

    def test_above_nyquist_rejected(self):
        with pytest.raises(ValueError):
            synth_square(SquareWaveSpec(frequency=40000.0), WINDOW_64K)

    def test_integer_period_but_off_bin_rejected(self):
        # fs/f = 6 exactly, yet f is not a multiple of delta_f
        w = SamplingWindow.design(T=1.0, p=6)
        with pytest.raises(ValueError, match="multiple"):
            synth_square(SquareWaveSpec(frequency=64.0 / 6.0), w)

    def test_free_sampler_matches_strict_for_valid_carriers(self):
        for f in (64.0, 1024.0, 8192.0):
            spec = SquareWaveSpec(frequency=f)
            assert np.array_equal(
                synth_square(spec, WINDOW_64K).samples,
                sample_square_free(spec, WINDOW_64K).samples,
            )

    def test_free_sampler_allows_partial_cycles(self):
        w = SamplingWindow.design(T=0.25, p=14)
        x = sample_square_free(SquareWaveSpec(frequency=1170.3), w).samples
        assert x.sum() > 0  # does not raise, produces a waveform


class TestFourierCoefficients:
    def test_dc_is_high_fraction(self):
        assert fourier_coeff_direct(1024, 255, 0) == pytest.approx((2 * 255 + 1) / 1024)
        assert fourier_coeff_closed(1024, 255, 0) == pytest.approx((2 * 255 + 1) / 1024)

    def test_three_term_sum_by_hand(self):
        # N=8, N1=1, k=1: (1/8) * (1 + 2 cos(2 pi / 8))
        expected = (1.0 + 2.0 * math.cos(2.0 * math.pi / 8.0)) / 8.0
        got = fourier_coeff_direct(8, 1, 1)
        assert got.real == pytest.approx(expected, abs=1e-15)
        assert abs(got.imag) < 1e-15
        assert abs(got - 0.30178) < 5e-6

    def test_closed_matches_direct_spot(self):
        assert abs(fourier_coeff_closed(1024, 255, 2) - fourier_coeff_direct(1024, 255, 2)) <= 1e-12

    def test_closed_matches_direct_random(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            N = 2 * int(rng.integers(1, 2048))
            N1 = int(rng.integers(0, (N - 1) // 2 + 1))
            k = int(rng.integers(-3 * N, 3 * N))
            d = fourier_coeff_direct(N, N1, k)
            c = fourier_coeff_closed(N, N1, k)
            assert abs(d - c) <= 1e-10, (N, N1, k)

    def test_multiple_of_n_routes_to_dc(self):
        for k in (-2048, -1024, 0, 1024, 2048):
            assert fourier_coeff_closed(1024, 100, k) == pytest.approx(201 / 1024)

    def test_even_null_and_odd_magnitude_at_exact_half_duty(self):
        # 2*N1+1 = N/2 requires N/2 odd
        for N in (6, 10, 26, 1022):
            N1 = (N // 2 - 1) // 2
            assert 2 * N1 + 1 == N // 2
            for k in (2, 4, N // 2 + (N // 2) % 2):
                if k % N:
                    assert abs(fourier_coeff_closed(N, N1, k)) < 1e-15
            for k in (1, 3, 5):
                expected = 1.0 / (N * math.sin(math.pi * k / N))
                assert abs(fourier_coeff_closed(N, N1, k)) == pytest.approx(abs(expected))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            fourier_coeff_direct(7, 1, 0)
        with pytest.raises(ValueError):
            fourier_coeff_direct(8, 4, 0)


class TestCanonicalSquareSpectrum:
    """The synthesized wave has an exact N/2-high duty; its one-period DFT
    must show the even-harmonic null and the 1/(N sin(pi/N)) fundamental."""

    @pytest.mark.parametrize("N", [8, 16, 32, 64, 128, 256, 512, 1024])
    def test_even_null(self, N):
        w = SamplingWindow(fs=float(N), T=1.0, Q=N, delta_f=1.0)
        x = synth_square(SquareWaveSpec(frequency=1.0), w).samples
        X = np.fft.fft(x)
        even = np.arange(2, N, 2)
        assert np.abs(X[even]).max() < 1e-12 * N

    @pytest.mark.parametrize("N", [8, 16, 256, 1024])
    def test_fundamental_normalization(self, N):
        w = SamplingWindow(fs=float(N), T=1.0, Q=N, delta_f=1.0)
        x = synth_square(SquareWaveSpec(frequency=1.0), w).samples
        a1 = np.abs(np.fft.fft(x))[1] / N
        assert abs(a1 - fundamental_coefficient(N)) <= 1e-12


class TestFoldedHarmonicBins:
    def test_no_fold_below_nyquist(self):
        assert folded_harmonic_bins(64.0, WINDOW_64K, 7) == {64, 192, 320, 448}

    def test_folds_about_fs(self):
        # 5*8192 = 40960 -> 24576; 7*8192 = 57344 -> 8192
        assert folded_harmonic_bins(8192.0, WINDOW_64K, 7) == {8192, 24576}

    def test_fundamental_only(self):
        assert folded_harmonic_bins(2048.0, WINDOW_64K, 1) == {2048}

    def test_fold_to_bin(self):
        assert fold_to_bin(40960.0, 65536.0, 1.0) == 24576
        assert fold_to_bin(57344.0, 65536.0, 1.0) == 8192
        assert fold_to_bin(70000.0, 65536.0, 1.0) == 4464

    def test_fold_bin_reflects_about_half_of_q(self):
        assert [fold_bin(b, 16) for b in (0, 3, 8, 9, 15, 16, 21, 45)] == [0, 3, 8, 7, 1, 0, 5, 3]

    def test_fold_to_bin_takes_the_whole_number_tolerance(self):
        # within whole_number's 1e-9 relative tolerance of bin 30000, so it is bin 30000
        assert fold_to_bin(30000.00002, 65536.0, 1.0) == 30000
        assert fold_to_bin(3 * 8192.000005, 65536.0, 1.0) == 24576
        with pytest.raises(ValueError, match="whole number of bins"):
            fold_to_bin(30000.5, 65536.0, 1.0)
        with pytest.raises(ValueError, match="whole number of bins"):
            fold_to_bin(3.0, 65536.0, 3.0)

    def test_nearest_bin_range(self):
        assert nearest_bin(1170.3, 4.0, 16384) == 293
        assert nearest_bin(32768.0, 1.0, 65536) == 32768
        for f in (32769.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="outside the spectrum"):
                nearest_bin(f, 1.0, 65536)

    def test_synthesis_energy_confined_to_folded_bins(self):
        w = SamplingWindow.design(T=1.0, p=12)
        for f in (4.0, 64.0, 512.0):
            n_per = int(w.fs / f)
            x = synth_square(SquareWaveSpec(frequency=f), w).samples
            X = np.abs(np.fft.fft(x))
            allowed = folded_harmonic_bins(f, w, n_per - 1) | {0}
            allowed |= {w.Q - b for b in allowed if b}  # conjugate bins
            hot = set(np.flatnonzero(X > 1e-9 * w.Q).tolist())
            assert hot <= allowed


class TestFundamentalCoefficient:
    def test_limits(self):
        assert fundamental_coefficient(8) == pytest.approx(1 / (8 * math.sin(math.pi / 8)))
        assert fundamental_coefficient(1 << 20) == pytest.approx(1 / math.pi, rel=1e-6)

    def test_rejects_degenerate_period(self):
        with pytest.raises(ValueError):
            fundamental_coefficient(1.5)
