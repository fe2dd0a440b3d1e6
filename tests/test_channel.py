"""Noise injection determinism and ADC quantization bounds."""

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caossim.channel
from caossim.channel import AdcConfig, NoiseConfig, add_noise, quantize
from caossim.encoder import encode_slot, schedule_fdma_tdma
from caossim.freq_plan import design_plan
from caossim.scene_optics import Scene
from caossim.waveform import SampledSignal, fold_windows, fundamental_coefficient
from oracles import full_fft_estimate


def _tone(q=1024, fs=1024.0):
    return SampledSignal(np.zeros(q), fs)


class TestAddNoise:
    def test_all_zero_config_is_identity(self):
        rng = np.random.default_rng(0)
        stream = SampledSignal(rng.random(256), 256.0)
        out = add_noise(stream, NoiseConfig(), slot_index=3)
        assert np.array_equal(out.samples, stream.samples)

    def test_mains_tone_lands_in_its_bin(self):
        cfg = NoiseConfig(mains_amplitude=0.5, mains_freq=50.0)
        out = add_noise(_tone(), cfg, slot_index=0)
        X = np.abs(np.fft.fft(out.samples))
        hot = set(np.flatnonzero(X > 1e-9 * 1024).tolist())
        assert hot == {50, 1024 - 50}

    def test_same_key_same_noise(self):
        cfg = NoiseConfig(awgn_sigma=0.1, seed=42)
        a = add_noise(_tone(), cfg, slot_index=7)
        b = add_noise(_tone(), cfg, slot_index=7)
        assert np.array_equal(a.samples, b.samples)

    def test_different_slots_different_noise(self):
        cfg = NoiseConfig(awgn_sigma=0.1, seed=42)
        a = add_noise(_tone(), cfg, slot_index=7)
        b = add_noise(_tone(), cfg, slot_index=8)
        assert not np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_one_key_word_rejected(self, seed):
        with pytest.raises(ValueError, match=r"noise seed must be in 0\.\.2\*\*64-1"):
            NoiseConfig(awgn_sigma=0.1, seed=seed)

    def test_distinct_seeds_at_the_key_ends_draw_distinct_noise(self):
        ends = [add_noise(_tone(), NoiseConfig(awgn_sigma=0.1, seed=s), 0).samples
                for s in (0, 1, 2**64 - 1)]
        assert not any(np.array_equal(a, b) for a, b in [ends[:2], ends[1:], ends[::2]])

    def test_awgn_unaffected_by_pink_toggle(self):
        base = NoiseConfig(awgn_sigma=0.1, seed=1)
        with_pink = NoiseConfig(awgn_sigma=0.1, seed=1, pink_sigma=0.05)
        a = add_noise(_tone(), base, 0).samples
        b = add_noise(_tone(), with_pink, 0).samples
        # the pink term is additive on top of an identical AWGN draw
        diff_spectrum = np.abs(np.fft.rfft(b - a))
        assert diff_spectrum[1] > diff_spectrum[200]  # 1/f shape

    def test_dark_offset_is_dc_only(self):
        cfg = NoiseConfig(dark_offset=0.25)
        out = add_noise(_tone(), cfg, 0)
        X = np.abs(np.fft.fft(out.samples))
        assert X[0] == pytest.approx(0.25 * 1024)
        assert np.abs(X[1:]).max() < 1e-9


class TestAveragedNoise:
    """A stream that averages w windows gets each term's mean over its windows."""

    CFG = NoiseConfig(awgn_sigma=0.05, mains_amplitude=0.02, mains_freq=37.0, mains_phase=0.3,
                      dark_offset=0.1, pink_sigma=0.01, seed=3)
    Q, PERIOD, FS, SLOT = 1024, 64, 1024.0, 5

    @staticmethod
    def _mean(x, period):
        # pairwise halving, as the readout folds, then the exact 1/w scale
        w = len(x) // period
        while len(x) > period:
            x = x[: len(x) // 2] + x[len(x) // 2 :]
        return x * (1.0 / w)

    def test_terms_are_window_means_summed_in_the_usual_order(self):
        cfg, q, period, fs = self.CFG, self.Q, self.PERIOD, self.FS
        x = np.random.default_rng(2).random(period)
        mains = cfg.mains_amplitude * np.sin(
            2.0 * np.pi * cfg.mains_freq * np.arange(q) / fs + cfg.mains_phase
        )
        rng = caossim.channel._slot_rng(cfg.seed, self.SLOT)
        awgn = rng.standard_normal(q) * cfg.awgn_sigma
        pink = cfg.pink_sigma * caossim.channel._pink_noise(rng, q, fs, cfg.pink_exponent)
        want = x + cfg.dark_offset
        for term in (mains, awgn, pink):
            want += self._mean(term, period)
        got = add_noise(SampledSignal(x, fs, q // period), cfg, self.SLOT)
        assert got.windows == q // period
        assert got.samples.tobytes() == want.tobytes()

    def test_averaged_noise_is_the_mean_of_the_raw_noisy_slot(self):
        x = np.random.default_rng(3).random(self.PERIOD)
        w = self.Q // self.PERIOD
        raw = add_noise(SampledSignal(np.tile(x, w), self.FS), self.CFG, self.SLOT)
        got = add_noise(SampledSignal(x, self.FS, w), self.CFG, self.SLOT)
        np.testing.assert_allclose(got.samples, self._mean(raw.samples, self.PERIOD),
                                   rtol=0, atol=1e-15)

    def test_a_long_slot_sums_its_chunks_pairwise(self):
        # past DRAW_CHUNK samples the AWGN term is drawn and folded C samples at a time, and
        # the chunks' window sums add pairwise, earlier + later; pink is drawn whole after it
        cfg, period, fs = self.CFG, self.PERIOD, self.FS
        c = caossim.channel.DRAW_CHUNK
        q = 8 * c
        assert caossim.channel._chunk_length(q, period) == c
        awgn, pink = caossim.channel._slot_terms(cfg, q, fs, self.SLOT, period)
        rng = caossim.channel._slot_rng(cfg.seed, self.SLOT)
        draw = rng.standard_normal(q) * cfg.awgn_sigma
        s = [fold_windows(chunk, period) for chunk in draw.reshape(8, c)]
        total = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
        assert awgn.tobytes() == (total * (period / q)).tobytes()
        one_shot = self._mean(draw, period)
        assert awgn.tobytes() != one_shot.tobytes()
        np.testing.assert_allclose(awgn, one_shot, rtol=0, atol=1e-15)
        shaped = cfg.pink_sigma * caossim.channel._pink_noise(rng, q, fs, cfg.pink_exponent)
        assert pink.tobytes() == self._mean(shaped, period).tobytes()

    def test_a_long_averaged_slot_holds_a_chunk_not_its_draw(self):
        # one averaged slot at q = 2**20 holds its C-sample buffer and at most log2(q / C)
        # partial window sums of L samples, not the 8 q bytes of one draw; slots drawn in
        # turn, with the cyclic collector off, free each buffer when its terms are dropped
        cfg, q, period = NoiseConfig(awgn_sigma=0.05, seed=3), 1 << 20, self.PERIOD
        c = caossim.channel._chunk_length(q, period)
        caossim.channel._slot_terms(cfg, q, self.FS, self.SLOT, period)  # warm numpy's caches
        gc.disable()
        tracemalloc.start()
        try:
            for slot in range(4):
                caossim.channel._slot_terms(cfg, q, self.FS, slot, period)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        # two chunks' worth of slack for the generator and Python's own objects
        assert peak <= 8 * (3 * c + period * (q // c).bit_length()) < 8 * q // 8

    def test_a_long_stream_needs_a_power_of_two_count_of_windows(self):
        # past DRAW_CHUNK samples too, the AWGN term is then drawn whole and its fold refuses
        stream = SampledSignal(np.zeros(2**14), self.FS, windows=3)
        with pytest.raises(ValueError, match="power-of-two count"):
            add_noise(stream, NoiseConfig(awgn_sigma=0.1), self.SLOT)

    @pytest.mark.parametrize("q, period", [(96, 32), (100, 32), (64, 128)])
    def test_window_mean_needs_a_power_of_two_count_of_windows(self, q, period):
        buf = np.empty(caossim.channel._chunk_length(q, period))
        with pytest.raises(ValueError, match="power-of-two count"):
            caossim.channel._window_mean(lambda b, first: b.fill(0.0), q, period, buf)

    def test_one_window_is_left_untouched(self):
        x = np.random.default_rng(4).random(64)
        buf = np.empty(64)
        assert caossim.channel._window_mean(lambda b, first: np.copyto(b, x), 64, 64, buf) is buf
        assert buf.tobytes() == x.tobytes()

    def test_a_long_tone_sums_its_chunks_pairwise(self):
        # past DRAW_CHUNK samples the mains tone is built and folded C samples at a time,
        # and the chunks' window sums add pairwise, earlier + later, as AWGN's do
        cfg = NoiseConfig(mains_amplitude=0.02, mains_freq=37.3, mains_phase=0.3)
        period, fs = self.PERIOD, self.FS
        c = caossim.channel.DRAW_CHUNK
        q = 8 * c
        assert caossim.channel._chunk_length(q, period) == c
        row = np.zeros((1, period))
        caossim.channel.add_terms(row, [[]], cfg, fs, q // period)
        tone = cfg.mains_amplitude * np.sin(
            2.0 * np.pi * cfg.mains_freq * np.arange(q) / fs + cfg.mains_phase
        )
        s = [fold_windows(chunk, period) for chunk in tone.reshape(8, c)]
        total = ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))
        assert row[0].tobytes() == (total * (period / q)).tobytes()
        one_shot = self._mean(tone, period)
        assert row[0].tobytes() != one_shot.tobytes()
        np.testing.assert_allclose(row[0], one_shot, rtol=0, atol=1e-15 * cfg.mains_amplitude)

    def test_a_long_averaged_tone_holds_a_chunk_not_its_samples(self):
        # one averaged, mains-only row at q = 2**20 holds a C-sample buffer, the chunk's
        # sample indices and at most log2(q / C) partial window sums of L samples, not
        # Q-sample arrays of the tone
        cfg, q, period = NoiseConfig(mains_amplitude=0.02, mains_freq=37.3), 1 << 20, self.PERIOD
        c = caossim.channel._chunk_length(q, period)
        stream = SampledSignal(np.zeros(period), self.FS, q // period)
        add_noise(stream, cfg, self.SLOT)  # warm numpy's caches
        gc.disable()
        tracemalloc.start()
        try:
            add_noise(stream, cfg, self.SLOT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert peak <= 8 * (3 * c + period * (q // c).bit_length()) < 8 * q // 8


class TestNoiseConfig:
    @pytest.mark.parametrize(
        "key, value, phrase",
        [
            ("pink_exponent", -250.0, "in 0..2"),
            ("pink_exponent", 250.0, "in 0..2"),
            ("pink_exponent", -0.5, "in 0..2"),
            ("awgn_sigma", -1.0, "nonnegative"),
            ("dark_offset", -0.1, "nonnegative"),
        ],
    )
    def test_field_outside_its_rule_rejected(self, key, value, phrase):
        with pytest.raises(ValueError, match=f"noise {key} must be {phrase}, got {value}"):
            NoiseConfig(**{key: value})

    @pytest.mark.parametrize("exponent", [0.0, 1.0, 2.0])
    def test_white_to_brown_accepted(self, exponent):
        assert NoiseConfig(pink_exponent=exponent).pink_exponent == exponent


class TestQuantize:
    def test_disabled_is_identity(self):
        stream = SampledSignal(np.array([0.1, 0.9, 2.0]), 8.0)
        out, clips = quantize(stream, AdcConfig(bits=8, full_scale=1.0, enabled=False))
        assert clips == 0 and np.array_equal(out.samples, stream.samples)

    def test_enabled_adc_refuses_an_averaged_stream(self):
        stream = SampledSignal(np.full(8, 0.5), 8.0, windows=4)
        with pytest.raises(ValueError, match="quantizes raw samples.*averages 4 windows"):
            quantize(stream, AdcConfig(bits=8))

    def test_disabled_adc_passes_an_averaged_stream(self):
        stream = SampledSignal(np.full(8, 0.5), 8.0, windows=4)
        out, clips = quantize(stream, AdcConfig(enabled=False))
        assert out is stream and clips == 0

    def test_half_scale_is_exact_at_16_bits(self):
        stream = SampledSignal(np.full(64, 0.5), 8.0)
        out, clips = quantize(stream, AdcConfig(bits=16, full_scale=1.0))
        assert clips == 0
        assert np.abs(out.samples - 0.5).max() <= 1.0 / 2**17

    def test_saturated_input_counts_all_clipped(self):
        stream = SampledSignal(np.full(32, 2.0), 8.0)
        out, clips = quantize(stream, AdcConfig(bits=12, full_scale=1.0))
        assert clips == 32
        assert out.samples.max() <= 1.0

    @given(st.integers(2, 24), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_unclipped_error_within_half_lsb(self, bits, seed):
        rng = np.random.default_rng(seed)
        stream = SampledSignal(rng.random(128), 8.0)
        cfg = AdcConfig(bits=bits, full_scale=1.0)
        out, clips = quantize(stream, cfg)
        err = np.abs(out.samples - stream.samples)
        top_code_edge = 1.0 - 0.5 / 2**bits
        unclipped = stream.samples <= top_code_edge
        assert err[unclipped].max() <= 0.5 / 2**bits + 1e-15
        assert clips == int(np.count_nonzero(~unclipped))

    @given(st.integers(2, 24), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_codes_and_clips_follow_the_formula_in_a_fresh_array(self, bits, seed):
        x = np.random.default_rng(seed).uniform(-0.2, 1.2, 257)
        cfg = AdcConfig(bits=bits, full_scale=1.0)
        step, top = cfg.full_scale / 2**bits, 2**bits - 1
        code = np.round(x / step)
        want = np.clip(code, 0, top) * step
        want_clips = int(np.count_nonzero((code < 0) | (code > top)))
        stream = SampledSignal(x.copy(), 8.0)
        out, clips = quantize(stream, cfg)
        assert out.samples.tobytes() == want.tobytes() and clips == want_clips
        assert stream.samples.tobytes() == x.tobytes()
        assert not np.shares_memory(out.samples, stream.samples)

    def test_peak_memory_is_one_stream_sized_array(self):
        x = np.random.default_rng(3).uniform(-0.1, 1.1, 2**20)
        stream = SampledSignal(x, 8.0)
        tracemalloc.start()
        try:
            out, clips = quantize(stream, AdcConfig(bits=10, full_scale=1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert clips > 0
        # the result itself, plus at most one boolean mask
        assert peak <= 1.25 * x.nbytes


class TestQuantizedDecodeFloor:
    """Quantize the 8-channel decade-ladder slot and decode it.

    Per-channel errors stay on the half-LSB spectral scale
    halfLSB * pi * sqrt(Q) / (Q * a1(N)) (within a small factor: the
    carriers are synchronized, so the periodic quantization error
    concentrates coherently on the harmonically related channel bins
    rather than spreading incoherently; measured concentration tops out
    near 4x that scale).  For the same reason the textbook white-noise
    floor 6.02*bits + 1.76 + 10*log10(Q/2) - 6 = 137.2 dB is NOT
    attainable; the decade-ladder slot quantized at 16 bits lands at
    126.1 dB, frozen here as >= 125 dB.
    """

    def test_per_channel_scale_and_dr_floor(self):
        plan = design_plan(T=1.0, p=16, m=7, P=8)
        window = plan.window()
        designed = np.array([10.0**-j for j in range(8)])
        scene = Scene(designed.reshape(1, 8))
        schedule = schedule_fdma_tdma(8, plan)
        stream = encode_slot(scene, schedule.slots[0], window)

        full_scale = 1.25 * stream.samples.max()
        out, clips = quantize(stream, AdcConfig(bits=16, full_scale=full_scale))
        assert clips == 0

        half_lsb = full_scale / 2**17
        recovered = []
        for f, des in zip(plan.channels, designed):
            est = full_fft_estimate(out, f)
            recovered.append(est)
            n_per = window.fs / f
            scale = half_lsb * math.pi * math.sqrt(window.Q) / (
                window.Q * fundamental_coefficient(n_per)
            )
            assert abs(est - des) <= 8.0 * scale, (f, est, des, scale)

        dr = 20.0 * math.log10(max(recovered) / min(recovered))
        assert dr >= 125.0
