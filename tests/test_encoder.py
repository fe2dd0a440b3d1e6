"""Walsh codes, schedules and the three stream encoders."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caossim.encoder
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
from caossim.waveform import SamplingWindow, SquareWaveSpec, sample_square_free, synth_square


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

    def test_a_dark_carrier_is_never_synthesised(self):
        # strict synthesis would reject 3 Hz (fs/f = 16/3); a dark pixel never asks for it
        window = SamplingWindow.design(1.0, 4)
        scene = Scene(np.array([[1.0, 0.0], [0.5, 0.0]]))
        block = encode_block(scene, [[0, 1], [2, 3]], [4.0, 3.0], window)
        assert np.array_equal(block, np.array([[1.0], [0.5]]) * np.tile([1.0, 1.0, 0.0, 0.0], 4))
        with pytest.raises(ValueError, match="not an integer"):
            encode_block(Scene(np.ones((1, 2))), [[0, 1]], [4.0, 3.0], window)


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
    @settings(max_examples=150, deadline=None)
    def test_permissive_slot_equals_summed_synthesis(self, freqs, amps):
        window = SamplingWindow.design(T=0.25, p=10)  # fs = 4096, Nyquist 2048 Hz
        amps = amps[: len(freqs)]
        slot = list(enumerate(freqs))
        stream = encode_slot(Scene(np.array([amps])), slot, window, strict=False)
        expected = _summed_carriers(amps, freqs, window, sample_square_free)
        assert np.array_equal(stream.samples, expected)

    def test_each_carrier_synthesised_once_per_window(self, monkeypatch):
        calls = []

        def counting(fn):
            def wrapper(spec, window):
                calls.append((spec.frequency, window, fn.__name__))
                return fn(spec, window)
            return wrapper

        monkeypatch.setattr(caossim.encoder, "synth_square", counting(synth_square))
        monkeypatch.setattr(caossim.encoder, "sample_square_free", counting(sample_square_free))
        caossim.encoder._carrier_mask.cache_clear()
        try:
            for name in ("fig9-valid", "fig9-invalid"):
                run(load_preset(name))
        finally:
            caossim.encoder._carrier_mask.cache_clear()
        assert {fn for _, _, fn in calls} == {"synth_square", "sample_square_free"}
        assert len(calls) == len(set(calls)) <= 7 + 7

    def test_cached_mask_is_read_only(self):
        window = SamplingWindow.design(T=1.0, p=8)
        mask = caossim.encoder._carrier_mask(16.0, window, True)
        assert mask.dtype == bool and mask.shape == (window.Q,) and mask.sum() == window.Q // 2
        assert caossim.encoder._carrier_mask(16.0, window, True) is mask
        with pytest.raises(ValueError, match="read-only"):
            mask[0] = False
