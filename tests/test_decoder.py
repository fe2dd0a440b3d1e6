"""Spectral and correlation decoding: oracles and round trips.

The one check of a run's ``spectra.csv`` against the full FFT of its rows,
``|rfft(np.tile(row, windows))|``, is here; the slot-by-slot chain that
a run must equal bit for bit is in ``test_pipeline_properties.py``.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caossim.decoder
import caossim.encoder
from caossim.channel import NoiseConfig, add_noise
from caossim.decoder import (
    assemble_image,
    block_coefficients,
    decode_block,
    decode_cdma,
    decode_slot,
    decode_slot_free,
    fft_radix2,
)
from caossim.encoder import (
    CdmaConfig,
    WalshAssignment,
    encode_cdma,
    encode_slot,
    schedule_fdma_tdma,
    walsh_matrix,
)
from caossim.freq_plan import design_plan, plan_from_frequencies
from caossim.runner import run
from caossim.scenario import load_preset
from caossim.scene_optics import CaosGrid, Scene
from caossim.waveform import SampledSignal, fundamental_coefficient
from oracles import full_fft_estimate, recording


def _direct_dft(x):
    n = len(x)
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) @ x


class TestFftRadix2:
    def test_unit_impulse_is_flat(self):
        x = np.zeros(64)
        x[0] = 1.0
        spec = fft_radix2(SampledSignal(x, 64.0))
        assert np.allclose(spec, 1.0, rtol=0, atol=1e-12)

    def test_cosine_peaks(self):
        q = 256
        n = np.arange(q)
        x = np.cos(2 * np.pi * 5 * n / q)
        spec = fft_radix2(SampledSignal(x, float(q)))
        mags = np.abs(spec)
        assert mags[5] == pytest.approx(q / 2, rel=1e-12)
        assert mags[q - 5] == pytest.approx(q / 2, rel=1e-12)
        others = np.delete(mags, [5, q - 5])
        assert others.max() < 1e-9 * q

    def test_parseval(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(4096)
        spec = fft_radix2(SampledSignal(x, 4096.0))
        lhs = np.sum(np.abs(x) ** 2)
        rhs = np.sum(np.abs(spec) ** 2) / 4096
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("q", [2, 4, 8, 64, 512, 2048])
    def test_matches_direct_dft(self, q):
        rng = np.random.default_rng(q)
        x = rng.standard_normal(q)
        spec = fft_radix2(SampledSignal(x, float(q)))
        ref = _direct_dft(x)
        scale = np.abs(ref).max()
        assert np.abs(spec - ref).max() <= 1e-9 * scale

    def test_long_input_against_numpy(self):
        rng = np.random.default_rng(99)
        x = rng.standard_normal(65536)
        spec = fft_radix2(SampledSignal(x, 65536.0))
        ref = np.fft.fft(x)
        assert np.abs(spec - ref).max() <= 1e-9 * np.abs(ref).max()

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            fft_radix2(SampledSignal(np.zeros(100), 100.0))


class TestDecodeSlot:
    def test_unit_square_decodes_to_one_on_every_channel(self):
        plan = design_plan(T=1.0, p=16, m=7, P=8)
        window = plan.window()
        for f in plan.channels:
            stream = encode_slot(Scene(np.array([[1.0]])), [(0, f)], window)
            assert abs(full_fft_estimate(stream, f) - 1.0) <= 1e-9
            assert abs(decode_slot(stream, [(0, f)], plan)[0] - 1.0) <= 1e-9

    def test_zero_stream(self):
        plan = design_plan(T=1.0, p=12, m=7, P=1)
        stream = SampledSignal(np.zeros(4096), plan.fs)
        assert decode_slot(stream, [(0, plan.channels[0])], plan) == {0: 0.0}

    def test_eight_equal_pixels(self):
        plan = design_plan(T=1.0, p=16, m=7, P=8)
        window = plan.window()
        scene = Scene(np.ones((1, 8)))
        sched = schedule_fdma_tdma(8, plan)
        stream = encode_slot(scene, sched.slots[0], window)
        est = decode_slot(stream, sched.slots[0], plan)
        assert len(est) == 8
        for v in est.values():
            assert abs(v - 1.0) <= 1e-9

    def test_partial_slot(self):
        plan = design_plan(T=1.0, p=16, m=7, P=8)
        window = plan.window()
        scene = Scene(np.full((1, 5), 0.5))
        sched = schedule_fdma_tdma(5, plan)
        stream = encode_slot(scene, sched.slots[0], window)
        est = decode_slot(stream, sched.slots[0], plan)
        assert sorted(est) == [0, 1, 2, 3, 4]
        assert all(abs(v - 0.5) <= 1e-9 for v in est.values())

    def test_free_readout_equals_plan_readout_on_valid_ladder(self):
        plan = design_plan(T=1.0, p=16, m=7, P=8)
        rng = np.random.default_rng(21)
        scene = Scene(rng.random((1, 8)))
        slot = schedule_fdma_tdma(8, plan).slots[0]
        stream = add_noise(
            encode_slot(scene, slot, plan.window()), NoiseConfig(awgn_sigma=0.01, seed=4), 0
        )
        assert decode_slot_free(stream, slot) == decode_slot(stream, slot, plan)

    def test_invalid_plan_crosstalks_on_40db_scene(self):
        # bright pixel off the bin grid leaks into the valid channel's bin
        plan = plan_from_frequencies([1170.3, 2048.0], T=0.25, p=14)
        window = plan.window()
        scene = Scene(np.array([[1.0, 0.01]]))
        slot = ((0, 1170.3), (1, 2048.0))
        stream = encode_slot(scene, slot, window, strict=False)
        est = decode_slot_free(stream, slot)
        errs = [abs(est[0] - 1.0) / 1.0, abs(est[1] - 0.01) / 0.01]
        assert max(errs) >= 0.01


@st.composite
def _slot_streams(draw):
    """A nonnegative stream and 1-8 carriers: on-grid odd and even bins, Q/2,
    and off-grid frequencies."""
    q = 2 ** draw(st.integers(4, 14))
    delta_f = 4.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.random(q) * draw(st.sampled_from([1e-7, 1.0, 1e3]))
    if draw(st.booleans()):
        x[rng.random(q) < 0.5] = 0.0
    freqs = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["odd", "even", "nyquist", "off-grid"]))
        if kind == "odd":
            b = 2 * draw(st.integers(0, q // 4 - 1)) + 1
        elif kind == "even":
            b = 2 * draw(st.integers(1, q // 4))
        elif kind == "nyquist":
            b = q // 2
        else:
            b = draw(st.floats(0.6, q / 2 - 0.6)) + draw(st.floats(-0.45, 0.45))
        freqs.append(b * delta_f)
    return SampledSignal(x, q * delta_f), tuple(enumerate(freqs))


class TestCarrierReadout:
    """The fold + short-FFT readout against |X[b]| / (Q a1) of the full-slot FFT."""

    @given(_slot_streams())
    @settings(max_examples=200, deadline=None)
    def test_equals_full_fft_readout(self, case):
        stream, slot = case
        q = len(stream)
        got = decode_slot_free(stream, slot)
        assert sorted(got) == [pix for pix, _ in slot]
        for pix, f in slot:
            want = full_fft_estimate(stream, f)
            tol = 1e-12 * np.abs(stream.samples).sum() / (q * fundamental_coefficient(stream.fs / f))
            assert abs(got[pix] - want) <= tol, (q, f)

    @given(_slot_streams())
    @settings(max_examples=200, deadline=None)
    def test_magnitude_is_python_abs_of_each_coefficient_bit_for_bit(self, case):
        # np.abs of a complex array rounds differently from abs() of a complex scalar
        stream, slot = case
        coeffs = block_coefficients(stream.samples[None], stream.fs, [f for _, f in slot])[0]
        got = decode_slot_free(stream, slot)
        for (pix, f), c in zip(slot, coeffs):
            want = abs(c) / (len(stream) * fundamental_coefficient(stream.fs / f))
            assert np.float64(got[pix]).tobytes() == np.float64(want).tobytes(), (pix, f)

    @given(_slot_streams(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_block_readout_is_each_row_read_alone(self, case, seed):
        # one fold and one batched rfft give each row the bits of its own readout
        stream, slot = case
        rng = np.random.default_rng(seed)
        rows = np.stack([stream.samples, rng.random(len(stream)), 3.0 * stream.samples])
        freqs = [f for _, f in slot]
        block = decode_block(rows, stream.fs, freqs)
        for row, got in zip(rows, block):
            want = decode_slot_free(SampledSignal(row, stream.fs), slot)
            assert got.tobytes() == np.array([want[pix] for pix, _ in slot]).tobytes()

    def test_table5_precision_no_worse_than_full_fft(self):
        # the 1e-7 channel sets acceptance 1's 140 dB dynamic range, where
        # a readout that sums in another order loses digits
        scenario = load_preset("table5")
        plan = design_plan(scenario.plan.T, scenario.plan.p, scenario.plan.m, scenario.plan.P)
        values = np.array(scenario.target.values)
        design = values.ravel()
        slot = schedule_fdma_tdma(design.size, plan).slots[0]
        stream = encode_slot(Scene(values), slot, plan.window())
        got = decode_slot(stream, slot, plan)
        for pix, f in slot:
            err = abs(got[pix] - design[pix]) / design[pix]
            fft_err = abs(full_fft_estimate(stream, f) - design[pix]) / design[pix]
            # where the full FFT is exact, allow the last bit
            assert err <= max(2.0 * fft_err, np.finfo(float).eps), (f, err, fft_err)
        assert abs(got[7] - 1e-7) / 1e-7 <= 1e-9

    def test_bad_carriers_and_lengths_rejected(self):
        plan = design_plan(T=1.0, p=12, m=7, P=2)
        stream = SampledSignal(np.zeros(4096), plan.fs)
        with pytest.raises(ValueError, match="not a plan channel"):
            decode_slot(stream, ((0, plan.channels[0]), (1, 32.0)), plan)
        off_grid = plan_from_frequencies([1170.3, 2048.0], T=0.25, p=14)
        with pytest.raises(ValueError, match="must be an even integer"):
            decode_slot(SampledSignal(np.zeros(16384), off_grid.fs), ((0, 1170.3),), off_grid)
        with pytest.raises(ValueError, match="power of two"):
            decode_slot_free(SampledSignal(np.zeros(100), 100.0), ((0, 25.0),))
        with pytest.raises(ValueError, match="outside the spectrum"):
            decode_slot_free(stream, ((0, plan.fs),))

    # table5 and fig6 read one slot; fig9-valid's 83 slots come in 256 KiB blocks, of 64
    # one-period rows (then 18 and the short slot) when noiseless, and of 2 raw 2^14-sample rows
    # when noisy
    @pytest.mark.parametrize("preset, noisy, rows_per_block", [
        ("table5", False, 1), ("fig6", False, 1), ("fig9-valid", True, 2),
        ("fig9-valid", False, 64),
    ], ids=["table5-False", "fig6-False", "fig9-valid-True", "fig9-valid-False"])
    def test_spectra_columns_are_the_full_fft_magnitudes(self, preset, noisy, rows_per_block):
        scenario = dataclasses.replace(load_preset(preset), write_spectra=True)
        if noisy:
            scenario = dataclasses.replace(scenario, noise=dataclasses.replace(
                scenario.noise, awgn_sigma=0.01))
        with recording() as route:
            report = run(scenario)
        blocks = route.quantized  # each block as the readout and the spectra see it
        q = 2 * (report.spectra.shape[0] - 1)
        # a time-invariant slot is read from one period, a noisy one from its Q samples
        assert {block.windows > 1 for block in blocks} == {not noisy}
        rows = [(row, block.windows) for block in blocks
                for row in block.samples.reshape(-1, q // block.windows)]
        assert report.spectra.shape[1] == len(rows) > 0
        assert max(len(block) * block.windows // q for block in blocks) == rows_per_block
        for column, (row, windows) in zip(report.spectra.T, rows):
            full = np.abs(np.fft.fft(np.tile(row, windows))[: q // 2 + 1])
            assert np.abs(column - full).max() <= 1e-12 * full.max()
            off = np.arange(q // 2 + 1) % windows != 0
            assert not column[off].any()


class TestDecodeCdma:
    def test_round_trip_random_scene(self):
        rng = np.random.default_rng(5)
        grid = CaosGrid(8, 8)
        scene = Scene(rng.random((8, 8)))
        assign = WalshAssignment.sequential(64, 128)
        cfg = CdmaConfig(bit_rate=1000.0, samples_per_bit=3)
        img = decode_cdma(encode_cdma(scene, assign, cfg), assign, cfg, grid)
        rel = np.abs(img.estimates - scene.irradiance) / scene.irradiance
        assert rel.max() <= 1e-9

    def test_all_zero_scene(self):
        grid = CaosGrid(2, 2)
        assign = WalshAssignment.sequential(4, 8)
        cfg = CdmaConfig(1000.0, 2)
        img = decode_cdma(encode_cdma(Scene(np.zeros((2, 2))), assign, cfg), assign, cfg, grid)
        assert not img.estimates.any()

    def test_single_pixel_exact(self):
        grid = CaosGrid(1, 1)
        assign = WalshAssignment(8, {0: 5})
        cfg = CdmaConfig(1000.0, 4)
        img = decode_cdma(encode_cdma(Scene(np.array([[3.5]])), assign, cfg), assign, cfg, grid)
        assert img.estimates[0, 0] == pytest.approx(3.5, abs=1e-12)

    def test_length_mismatch_rejected(self):
        grid = CaosGrid(1, 1)
        assign = WalshAssignment(8, {0: 1})
        cfg = CdmaConfig(1000.0, 4)
        with pytest.raises(ValueError, match="length"):
            decode_cdma(SampledSignal(np.zeros(31), 4000.0), assign, cfg, grid)

    def test_noisy_estimates_not_clamped(self):
        grid = CaosGrid(4, 4)
        assign = WalshAssignment.sequential(16, 32)
        cfg = CdmaConfig(1000.0, 2)
        stream = encode_cdma(Scene(np.zeros((4, 4))), assign, cfg)
        noisy = add_noise(stream, NoiseConfig(awgn_sigma=0.5, seed=3), 0)
        img = decode_cdma(noisy, assign, cfg, grid)
        assert (img.estimates < 0).any()  # zero scene plus noise swings negative

    def test_missing_code_row_named(self):
        assign = WalshAssignment(8, {0: 1})
        with pytest.raises(ValueError, match=r"pixels without a code row: \[1\]"):
            decode_cdma(
                SampledSignal(np.zeros(8), 1000.0), assign, CdmaConfig(1000.0, 1), CaosGrid(1, 2)
            )

    @given(st.integers(1, 9), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_correlation(self, k, data):
        L = 2**k
        npix = data.draw(st.integers(1, L - 1))
        rows = data.draw(st.permutations(range(1, L)))[:npix]
        spb = data.draw(st.integers(1, 3))
        samples = np.array(
            data.draw(st.lists(st.floats(-1e6, 1e6), min_size=L * spb, max_size=L * spb))
        )
        assign = WalshAssignment(L, dict(enumerate(rows)))
        cfg = CdmaConfig(1000.0, spb)
        img = decode_cdma(SampledSignal(samples, cfg.fs), assign, cfg, CaosGrid(1, npix))
        means = samples.reshape(L, spb).mean(axis=1)
        dense = (2.0 / L) * (walsh_matrix(L)[rows].astype(np.float64) @ means)
        err = np.abs(img.estimates.ravel() - dense).max()
        assert err <= 1e-12 * max(np.abs(means).sum(), 1e-300)
        assert img.channel_map.ravel().tolist() == [float(r) for r in rows]

    def test_round_trip_at_65536_bits_in_linear_memory(self):
        # the dense code matrix alone would be 4 GiB at this length
        grid = CaosGrid(255, 256)
        scene = Scene(np.random.default_rng(11).random((255, 256)))
        assign = WalshAssignment.sequential(grid.num_pixels, 65536)
        cfg = CdmaConfig(bit_rate=65536.0, samples_per_bit=1)
        tracemalloc.start()
        try:
            img = decode_cdma(encode_cdma(scene, assign, cfg), assign, cfg, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.abs(img.estimates - scene.irradiance).max() <= 1e-10 * scene.irradiance.max()
        assert peak < 16 * 2**20

    def test_spectral_line_run_never_builds_walsh_matrix(self, monkeypatch):
        def forbidden(L):
            raise AssertionError("dense Walsh matrix built")

        monkeypatch.setattr(caossim.encoder, "walsh_matrix", forbidden)
        monkeypatch.setattr(caossim.decoder, "walsh_matrix", forbidden)
        report = run(load_preset("spectral-line"))
        assert len(report.images) == 7
        for scene, image in zip(report.scenes, report.images):
            peak = scene.irradiance.max()
            assert np.abs(image.estimates - scene.irradiance).max() <= 1e-12 * peak

    def test_provenance(self):
        grid = CaosGrid(1, 2)
        assign = WalshAssignment.sequential(2, 8)
        cfg = CdmaConfig(1000.0, 1)
        img = decode_cdma(encode_cdma(Scene(np.ones((1, 2))), assign, cfg), assign, cfg, grid)
        assert img.mode == "cdma"
        assert img.channel_map.tolist() == [[1.0, 2.0]]


class TestAssembleImage:
    def test_identity_raster_placement(self):
        plan = design_plan(T=1.0, p=8, m=5, P=1)
        sched = schedule_fdma_tdma(4, plan)
        grid = CaosGrid(2, 2)
        img = assemble_image([{i: float(i)} for i in range(4)], sched, grid, mode="fm-tdma")
        assert img.estimates.tolist() == [[0.0, 1.0], [2.0, 3.0]]
        assert img.slot_map.tolist() == [[0, 1], [2, 3]]
        assert img.channel_map.tolist() == [[16.0, 16.0], [16.0, 16.0]]

    def test_coverage_gap_rejected(self):
        plan = design_plan(T=1.0, p=8, m=5, P=1)
        sched = schedule_fdma_tdma(3, plan)
        with pytest.raises(ValueError, match="coverage gap|missing"):
            assemble_image([{0: 1.0}, {1: 1.0}, {}], sched, CaosGrid(2, 2), "fm-tdma")

    def test_order_independence(self):
        # an estimate is placed by its pixel id, whatever the order of its slot's dict
        plan = design_plan(T=1.0, p=12, m=5, P=3)
        window = plan.window()
        grid = CaosGrid(2, 3)
        scene = Scene(np.random.default_rng(8).random((2, 3)))
        sched = schedule_fdma_tdma(6, plan)
        ests = [decode_slot(encode_slot(scene, s, window), s, plan) for s in sched.slots]
        assert all(len(e) == 3 for e in ests)
        a = assemble_image(ests, sched, grid)
        b = assemble_image([dict(reversed(e.items())) for e in ests], sched, grid)
        assert a.estimates.tobytes() == b.estimates.tobytes()
        assert np.array_equal(a.slot_map, b.slot_map)
        assert np.array_equal(a.channel_map, b.channel_map)
