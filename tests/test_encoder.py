"""Walsh codes, schedules and the three stream encoders."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import caossim.encoder
import caossim.runner
from caossim import load_preset, run
from caossim.encoder import (
    CdmaConfig,
    TdmaSchedule,
    WalshAssignment,
    encode_block,
    encode_cdma,
    encode_fm_tdma,
    encode_slot,
    fwht,
    schedule_fdma_tdma,
    schedule_runs,
    walsh_matrix,
)
from caossim.freq_plan import design_plan
from caossim.scene_optics import CaosGrid, Scene
from caossim.waveform import (
    SamplingWindow,
    SquareWaveSpec,
    repeat_period,
    sample_square_free,
    synth_square,
    whole_number,
)


class TestWalshMatrix:
    def test_base_doubling(self):
        assert np.array_equal(walsh_matrix(2), [[1, 1], [1, -1]])

    def test_orthogonality_small(self):
        for L in (1, 2, 4, 8, 64, 256):
            h = walsh_matrix(L).astype(np.int64)
            assert np.array_equal(h @ h.T, L * np.eye(L, dtype=np.int64))

    def test_enough_rows_for_3600_pixels(self):
        h = walsh_matrix(4096)
        assert h.shape == (4096, 4096)
        WalshAssignment.sequential(3600, 4096)  # does not raise

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            walsh_matrix(48)

    def test_row_zero_reserved(self):
        with pytest.raises(ValueError, match="reserved"):
            WalshAssignment(8, {0: 0})


def _dense_walsh_product(x):
    """walsh_matrix(L) @ x, cast to float64 256 rows at a time (the oracle)."""
    h = walsh_matrix(len(x))
    return np.concatenate([h[i : i + 256].astype(np.float64) @ x for i in range(0, len(x), 256)])


class TestFwht:
    @given(
        st.integers(1, 12).flatmap(
            lambda k: st.lists(
                st.floats(-1e6, 1e6, allow_nan=False), min_size=2**k, max_size=2**k
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_walsh_product(self, values):
        x = np.array(values)
        err = np.abs(fwht(x) - _dense_walsh_product(x)).max()
        assert err <= 1e-12 * np.abs(x).sum()

    @given(
        st.integers(0, 10).flatmap(
            lambda k: st.lists(st.integers(-1000, 1000), min_size=2**k, max_size=2**k)
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_involution_up_to_length_is_exact(self, values):
        x = np.array(values, dtype=np.float64)
        assert np.array_equal(fwht(fwht(x)), len(x) * x)

    def test_input_left_untouched_and_result_float64(self):
        x = np.arange(8, dtype=np.int64)
        y = fwht(x)
        assert y.dtype == np.float64
        assert np.array_equal(x, np.arange(8))
        assert np.array_equal(y, walsh_matrix(8) @ np.arange(8))

    @pytest.mark.parametrize("n", [0, 3, 48])
    def test_non_power_of_two_rejected(self, n):
        with pytest.raises(ValueError, match="power of two"):
            fwht(np.zeros(n))

    def test_matrix_input_rejected(self):
        with pytest.raises(ValueError, match="1-D"):
            fwht(np.zeros((4, 4)))


class TestEncodeCdma:
    def test_single_pixel_follows_its_row(self):
        scene = Scene(np.array([[1.0]]))
        assign = WalshAssignment(8, {0: 3})
        cfg = CdmaConfig(bit_rate=1000.0, samples_per_bit=2)
        stream = encode_cdma(scene, assign, cfg)
        row = walsh_matrix(8)[3]
        expected = np.repeat((row + 1) / 2.0, 2)
        assert np.array_equal(stream.samples, expected)
        assert stream.fs == 2000.0

    def test_zero_scene_is_silent(self):
        scene = Scene(np.zeros((2, 2)))
        stream = encode_cdma(scene, WalshAssignment.sequential(4, 8), CdmaConfig(1000.0, 4))
        assert not stream.samples.any()

    def test_missing_code_row_rejected(self):
        scene = Scene(np.ones((2, 2)))
        with pytest.raises(ValueError, match="without a code row"):
            encode_cdma(scene, WalshAssignment(8, {0: 1, 1: 2}), CdmaConfig(1000.0, 1))

    def test_levels_are_on_off_sums(self):
        rng = np.random.default_rng(7)
        scene = Scene(rng.random((2, 2)))
        assign = WalshAssignment.sequential(4, 8)
        stream = encode_cdma(scene, assign, CdmaConfig(1000.0, 1))
        h = walsh_matrix(8)
        flat = scene.irradiance.ravel()
        expected = sum(flat[i] * (h[i + 1] + 1) / 2.0 for i in range(4))
        assert np.allclose(stream.samples, expected, rtol=0, atol=1e-15)

    @given(st.integers(1, 9), st.data())
    @settings(max_examples=60, deadline=None)
    def test_levels_match_dense_code_matrix(self, k, data):
        L = 2**k
        npix = data.draw(st.integers(1, L - 1))
        rows = data.draw(st.permutations(range(1, L)))[:npix]
        flat = np.array(data.draw(st.lists(st.floats(0, 1e6), min_size=npix, max_size=npix)))
        assign = WalshAssignment(L, dict(enumerate(rows)))
        stream = encode_cdma(Scene(flat.reshape(1, npix)), assign, CdmaConfig(1000.0, 1))
        onoff = (walsh_matrix(L)[rows].astype(np.float64) + 1.0) / 2.0
        assert np.abs(stream.samples - flat @ onoff).max() <= 1e-12 * max(flat.sum(), 1e-300)


class TestSchedule:
    def test_515_slots(self):
        plan = design_plan(T=0.25, p=14, m=6, P=7)
        assert len(schedule_fdma_tdma(3600, plan).slots) == 515

    def test_160_slots(self):
        plan = design_plan(T=1.0, p=16, m=7, P=8)
        assert len(schedule_fdma_tdma(1276, plan).slots) == 160

    def test_partial_slot_fills_lowest_first(self):
        plan = design_plan(T=1.0, p=16, m=7, P=8)
        sched = schedule_fdma_tdma(5, plan)
        assert len(sched.slots) == 1
        assert sched.slots[0] == tuple(
            (i, f) for i, f in enumerate((64.0, 128.0, 256.0, 512.0, 1024.0))
        )

    def test_raster_order_lowest_frequency_first(self):
        plan = design_plan(T=1.0, p=12, m=3, P=2)
        sched = schedule_fdma_tdma(5, plan)
        assert sched.slots[0] == ((0, 4.0), (1, 8.0))
        assert sched.slots[1] == ((2, 4.0), (3, 8.0))
        assert sched.slots[2] == ((4, 4.0),)

    @given(st.integers(1, 4000), st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_partition_and_ceiling(self, npix, P):
        plan = design_plan(T=1.0, p=16, m=2, P=P)
        sched = schedule_fdma_tdma(npix, plan)
        assert len(sched.slots) == math.ceil(npix / P)
        pixels = [p for slot in sched.slots for p, _ in slot]
        assert sorted(pixels) == list(range(npix))

    @pytest.mark.parametrize("P", range(1, 9))
    def test_runs_flatten_to_the_slots(self, P):
        plan = design_plan(T=1.0, p=16, m=2, P=P)
        channels = sorted(plan.channels)
        for npix in range(1, 41):
            runs = schedule_runs(npix, plan)
            slots = tuple(
                tuple(zip(row, freqs)) for _, freqs, pixels in runs for row in pixels.tolist()
            )
            assert slots == schedule_fdma_tdma(npix, plan).slots
            # the raster rule: pixels start..start+P-1 on the lowest carriers first
            assert slots == tuple(
                tuple((pix, channels[pix - start]) for pix in range(start, min(start + P, npix)))
                for start in range(0, npix, P)
            )
            # each run starts where the one before it ends, on other carriers
            firsts = [first for first, _, _ in runs]
            assert firsts == [0, len(runs[0][2])][: len(runs)]
            assert len({freqs for _, freqs, _ in runs}) == len(runs)

    def test_duplicate_pixel_rejected(self):
        with pytest.raises(ValueError, match="more than one slot"):
            TdmaSchedule(slots=(((0, 64.0),), ((0, 128.0),)))


class TestEncodeSlot:
    def test_equal_pixels_make_equal_spectral_peaks(self):
        plan = design_plan(T=1.0, p=16, m=7, P=8)
        window = plan.window()
        scene = Scene(np.ones((1, 8)))
        (slot,) = schedule_fdma_tdma(8, plan).slots
        X = np.abs(np.fft.fft(encode_slot(scene, slot, window).samples))
        peaks = X[list(plan.bins)]
        # raw peaks agree to the few-percent spread of the discrete a1(N)
        assert peaks.max() / peaks.min() < 1.05
        # and tower over every non-harmonic bin
        assert peaks.min() > 1e3 * np.median(X[1:window.Q // 2])

    def test_single_pixel_slot_is_scaled_square(self):
        plan = design_plan(T=1.0, p=10, m=4, P=1)
        window = plan.window()
        scene = Scene(np.array([[2.5]]))
        stream = encode_slot(scene, schedule_fdma_tdma(1, plan).slots[0], window)
        assert set(np.unique(stream.samples)) == {0.0, 2.5}

    def test_slot_stream_periodic_in_slowest_carrier(self):
        plan = design_plan(T=1.0, p=12, m=4, P=3)
        window = plan.window()
        scene = Scene(np.random.default_rng(1).random((1, 3)))
        stream = encode_slot(scene, schedule_fdma_tdma(3, plan).slots[0], window)
        n_slowest = int(plan.fs / min(plan.channels))
        x = stream.samples
        assert np.array_equal(x, np.tile(x[:n_slowest], window.Q // n_slowest))


class TestEncodeBlock:
    def test_rows_are_the_slots_encoded_one_at_a_time(self):
        # 11 carriers, dark pixels and an all-dark carrier column
        plan = design_plan(T=1.0, p=14, m=2, P=11)
        window = plan.window()
        values = np.random.default_rng(3).random((4, 11)) * (np.arange(11) != 5)
        values[1, ::3] = 0.0
        scene = Scene(values)
        slots = schedule_fdma_tdma(44, plan).slots
        pixels = [[pix for pix, _ in slot] for slot in slots]
        block = encode_block(scene, pixels, [f for _, f in slots[0]], window)
        assert block.shape == (4, window.Q)
        for row, slot in zip(block, slots):
            assert row.tobytes() == encode_slot(scene, slot, window).samples.tobytes()

    def test_a_dark_carrier_is_never_synthesised(self, monkeypatch):
        # the dark pixels' 3 Hz carrier never reaches the sampler; 4 Hz is bin 4 of the
        # block's 16-sample period, gcd(16, 4, 3) = 1
        sampled = []

        def counting(spec, window):
            sampled.append(spec.frequency)
            return sample_square_free(spec, window)

        monkeypatch.setattr(caossim.encoder, "sample_square_free", counting)
        caossim.encoder._carrier_mask.cache_clear()
        window = SamplingWindow.design(1.0, 4)
        scene = Scene(np.array([[1.0, 0.0], [0.5, 0.0]]))
        block = encode_block(scene, [[0, 1], [2, 3]], [4.0, 3.0], window)
        caossim.encoder._carrier_mask.cache_clear()
        assert np.array_equal(block, np.array([[1.0], [0.5]]) * np.tile([1.0, 1.0, 0.0, 0.0], 4))
        assert sampled == [4.0]
        # a strict slot rejects the carrier once it is lit: fs/f = 16/3
        with pytest.raises(ValueError, match="not an integer"):
            encode_slot(Scene(np.ones((1, 2))), [(0, 4.0), (1, 3.0)], window)


class TestEncodeBlockLength:
    """A block on whole bins repeats every P = Q / gcd(Q, its bins) samples: its rows of
    k P samples are the first k P samples of the whole-window encode, bit for bit."""

    @staticmethod
    def _check_prefixes(freqs, window, rows=3):
        bins = [round(f / window.delta_f) for f in freqs]
        period = window.Q // math.gcd(window.Q, *bins)
        scene = Scene(np.random.default_rng(len(freqs)).random((rows, len(freqs))))
        pixels = np.arange(scene.irradiance.size).reshape(rows, -1)
        whole = encode_block(scene, pixels, freqs, window)
        for k in {1, min(2, window.Q // period), window.Q // period}:
            block = encode_block(scene, pixels, freqs, window, length=k * period)
            assert block.shape == (rows, k * period)
            assert block.tobytes() == whole[:, : k * period].tobytes()
        return period

    @pytest.mark.parametrize("p, m, P", [(6, 1, 4), (10, 3, 5), (12, 4, 3), (14, 2, 11)])
    def test_ladder_rows_are_prefixes_of_the_whole_window(self, p, m, P):
        plan = design_plan(T=0.25, p=p, m=m, P=P)
        period = self._check_prefixes(plan.channels, plan.window())
        assert period == plan.Q // 2 ** (m - 1)

    def test_a_short_slot_subset_repeats_over_its_own_period(self):
        # carriers on bins 4, 8 and 16 of Q = 64 repeat every 16 samples, and so do the
        # short last slot's, bins 4 and 8 (lowest first); bin 16 alone every 4
        window = SamplingWindow.design(1.0, 6)
        assert self._check_prefixes([4.0, 8.0, 16.0], window) == 16
        assert self._check_prefixes([4.0, 8.0], window, rows=1) == 16
        assert self._check_prefixes([16.0], window, rows=1) == 4
        # a row of the whole schedule's period is a whole number of the subset's periods
        scene = Scene(np.ones((1, 1)))
        row = encode_block(scene, [[0]], [16.0], window, length=16)
        assert row.tobytes() == encode_block(scene, [[0]], [16.0], window)[:, :16].tobytes()
        # a slot without carriers is dark over the whole window
        assert not encode_block(scene, [[]], [], window).any()

    def test_a_row_that_is_not_a_whole_number_of_periods_is_rejected(self):
        window = SamplingWindow.design(1.0, 6)
        scene = Scene(np.ones((1, 2)))
        # 128 is a whole number of periods, but beyond the window
        for length in (0, 8, 24, 40, 128):
            with pytest.raises(ValueError, match="block's 16-sample periods up to Q = 64"):
                encode_block(scene, [[0, 1]], [4.0, 8.0], window, length=length)

    @pytest.mark.parametrize("length", [32, 128])
    def test_a_row_off_the_bin_grid_is_the_whole_window(self, length):
        # 4.5 Hz lies between bins and never repeats inside the window
        window = SamplingWindow.design(1.0, 6)
        with pytest.raises(ValueError, match="64-sample periods up to Q = 64"):
            encode_block(Scene(np.ones((1, 2))), [[0, 1]], [4.0, 4.5], window, length)

    def test_an_off_grid_strict_carrier_keeps_its_rejection(self):
        # 64/6 Hz has whole 6-sample periods but 10.67 cycles in the window: a strict slot
        # rejects it, with the whole window's delta_f
        window = SamplingWindow.design(1.0, 6)
        scene = Scene(np.ones((1, 2)))
        with pytest.raises(ValueError, match=r"not an integer multiple of delta_f = 1\.0 Hz"):
            encode_slot(scene, [(0, 4.0), (1, 64 / 6)], window)
        with pytest.raises(ValueError, match="fs/f = 6.4 is not an integer"):
            encode_slot(scene, [(0, 4.0), (1, 10.0)], window)

    def test_a_carrier_near_a_bin_is_sampled_from_the_bin(self):
        # 853.333333 Hz is within whole_number's tolerance of bin 256 of a 0.3 s window,
        # fs / 4; its rounded f/fs puts sample 2 of each period just below half a cycle.
        # Sampled from its bin it is the exact 4-sample square wave, with or without strict.
        window = SamplingWindow.design(0.3, 10)
        spec = SquareWaveSpec(853.333333)
        want = synth_square(spec, window).samples
        assert not np.array_equal(sample_square_free(spec, window).samples, want)
        for strict in (True, False):
            got = encode_slot(Scene(np.ones((1, 1))), [(0, spec.frequency)], window, strict)
            assert got.samples.tobytes() == want.tobytes()


class TestEncodeFmTdma:
    def test_one_slot_per_pixel(self):
        grid = CaosGrid(3, 4)
        scene = Scene(np.arange(12, dtype=float).reshape(3, 4) / 12.0)
        window = SamplingWindow.design(T=0.25, p=12)
        streams = encode_fm_tdma(scene, grid, 2048.0, window)
        assert len(streams) == 12
        assert not streams[0].samples.any()  # pixel 0 has zero irradiance
        assert streams[3].samples.max() == pytest.approx(3 / 12)

    def test_matches_single_channel_fdma(self):
        grid = CaosGrid(2, 3)
        scene = Scene(np.random.default_rng(3).random((2, 3)))
        plan = design_plan(T=0.25, p=12, m=10, P=1)
        window = plan.window()
        fm = encode_fm_tdma(scene, grid, plan.channels[0], window)
        slots = schedule_fdma_tdma(6, plan).slots
        assert len(fm) == len(slots)
        for a, slot in zip(fm, slots):
            assert np.array_equal(a.samples, encode_slot(scene, slot, window).samples)

    def test_zero_pixel_gives_silent_slot(self):
        grid = CaosGrid(1, 2)
        scene = Scene(np.array([[0.0, 1.0]]))
        window = SamplingWindow.design(T=1.0, p=8)
        streams = encode_fm_tdma(scene, grid, 32.0, window)
        assert not streams[0].samples.any() and streams[1].samples.any()


AMPLITUDES = st.one_of(
    st.just(0.0),
    st.sampled_from([5e-324, 1e-300, 1e-12]),
    st.floats(0.0, 1.0),
    st.floats(1e6, 1e300),
)


def _summed_carriers(amps, freqs, window, synth):
    return sum(synth(SquareWaveSpec(f, a), window).samples for a, f in zip(amps, freqs))


class TestCarrierMaskCache:
    @given(
        p=st.integers(8, 12),
        m=st.integers(1, 3),
        amps=st.lists(AMPLITUDES, min_size=1, max_size=4),
    )
    @settings(max_examples=150, deadline=None)
    def test_strict_slot_equals_summed_synthesis(self, p, m, amps):
        plan = design_plan(T=1.0, p=p, m=m, P=len(amps))
        window = plan.window()
        slot = list(enumerate(plan.channels))
        stream = encode_slot(Scene(np.array([amps])), slot, window)
        expected = _summed_carriers(amps, plan.channels, window, synth_square)
        assert np.array_equal(stream.samples, expected)

    @given(
        freqs=st.lists(st.floats(0.5, 512.0), min_size=1, max_size=4, unique=True),
        amps=st.lists(AMPLITUDES, min_size=4, max_size=4),
    )
    # within whole_number's tolerance of bin 1, so sampled from the bin, not at 4 - 6e-14 Hz
    @example(freqs=[3.999999999999943], amps=[5e-324, 0.0, 0.0, 0.0])
    @settings(max_examples=150, deadline=None)
    def test_permissive_slot_equals_summed_synthesis(self, freqs, amps):
        window = SamplingWindow.design(T=0.25, p=10)  # fs = 4096, Nyquist 2048 Hz
        amps = amps[: len(freqs)]
        slot = list(enumerate(freqs))
        stream = encode_slot(Scene(np.array([amps])), slot, window, strict=False)
        period = repeat_period(freqs, window)
        if period is None:
            expected = _summed_carriers(amps, freqs, window, sample_square_free)
        else:
            # every carrier within whole_number's tolerance of a bin is sampled from its bin,
            # b P / Q of a unit-rate P-sample period (test_a_carrier_near_a_bin_is_sampled_from
            # _the_bin), tiled to Q
            unit = SamplingWindow(float(period), 1.0, period, 1.0)
            bins = [float(whole_number(f / window.delta_f) * period // window.Q) for f in freqs]
            expected = np.tile(_summed_carriers(amps, bins, unit, sample_square_free),
                               window.Q // period)
        assert np.array_equal(stream.samples, expected)

    def test_each_carrier_synthesised_once_per_window(self, monkeypatch):
        calls = []

        def counting(fn):
            def wrapper(spec, window):
                calls.append((spec.frequency, window, fn.__name__))
                return fn(spec, window)
            return wrapper

        # synth_square stays importable from encoder only for the tracer; it is never called
        monkeypatch.setattr(caossim.encoder, "synth_square", counting(synth_square))
        monkeypatch.setattr(caossim.encoder, "sample_square_free", counting(sample_square_free))
        # a warm unit-response cache would spare fig9-invalid its free-sampled carriers
        caches = (caossim.encoder._carrier_mask, caossim.runner._unit_responses)
        for cache in caches:
            cache.cache_clear()
        try:
            for name in ("fig9-valid", "fig9-invalid"):
                run(load_preset(name))
        finally:
            for cache in caches:
                cache.cache_clear()
        assert {fn for _, _, fn in calls} == {"sample_square_free"}
        assert len(calls) == len(set(calls)) <= 7 + 7
        # fig9-valid's 7 ladder carriers are bins 1..64 of its 512-sample period; of
        # fig9-invalid's, only the four off the grid are sampled over the whole window
        whole = [f for f, window, _ in calls if window.Q == 16384]
        assert sorted(whole) == [1170.3, 1368.3, 1638.4, 2730.6]

    def test_cached_mask_is_read_only(self):
        window = SamplingWindow.design(T=1.0, p=8)
        mask = caossim.encoder._carrier_mask(16.0, window)
        assert mask.dtype == bool and mask.shape == (window.Q,) and mask.sum() == window.Q // 2
        assert caossim.encoder._carrier_mask(16.0, window) is mask
        with pytest.raises(ValueError, match="read-only"):
            mask[0] = False
