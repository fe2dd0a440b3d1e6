"""Noise drawn ahead on a thread pool must not change a single bit.

``channel.draws_ahead`` draws the stochastic terms of the next W slots on
worker threads while the calling thread processes the current slot.  The
draws are keyed by (seed, slot), so every run here must equal the run that
draws every slot inline, at any pool size, and a failing run must leave no
worker thread behind.
"""

import contextlib
import contextvars
import dataclasses
import filecmp
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import caossim.channel
import caossim.runner
from caossim.channel import NoiseConfig, add_noise, draws_ahead
from caossim.cli import main
from caossim.runner import run
from caossim.scenario import load_preset, scenario_from_dict
from caossim.waveform import SampledSignal

ALL_NOISE = {
    "dark_offset": 0.01,
    "mains_amplitude": 0.003,
    "awgn_sigma": 0.021,
    "pink_sigma": 0.004,
}


def _with_noise(doc, adc=None):
    doc = dict(doc, noise=dict(doc.get("noise", {}), **ALL_NOISE))
    if adc is not None:
        doc["adc"] = adc
    return scenario_from_dict(doc)


def _noisy_tdma():
    return _with_noise(
        {
            "mode": "fdma-tdma",
            "grid": {"rows": 4, "cols": 6},
            "plan": {"T": 1.0, "p": 10, "m": 5, "P": 3},
            "target": {"kind": "uniform", "level": 0.5},
            "write_spectra": True,
            "seed": 3,
        },
        adc={"enabled": True, "bits": 6, "full_scale": 1.6},
    )


def _noisy_cdma():
    # spectral-line decodes seven frames, each one noise slot
    return _with_noise(load_preset("spectral-line").to_dict(), adc={"enabled": True, "bits": 10})


def _reduced(preset):
    return dataclasses.replace(load_preset(preset), rows=10, cols=15)


SCENARIOS = {
    "hdr66-fm": lambda: _reduced("hdr66-fm"),
    "hdr66-fdma": lambda: _reduced("hdr66-fdma"),
    "tdma-all-noise": _noisy_tdma,
    "cdma-all-noise": _noisy_cdma,
}


def _inline(monkeypatch):
    monkeypatch.setattr(caossim.runner, "draws_ahead", lambda *a: contextlib.nullcontext())


def _workers(monkeypatch, w):
    monkeypatch.setattr(caossim.channel, "_draw_workers", lambda: w)


def _assert_same_run(got, want):
    assert len(got.images) == len(want.images)
    for a, b in zip(got.images, want.images):
        assert np.array_equal(a.estimates, b.estimates)
    assert got.clip_count == want.clip_count
    assert got.metrics_text == want.metrics_text
    assert got.stripes == want.stripes
    assert (got.spectra is None) == (want.spectra is None)
    if want.spectra is not None:
        assert np.array_equal(got.spectra, want.spectra)


@pytest.fixture(scope="module")
def inline_runs():
    with pytest.MonkeyPatch.context() as mp:
        _inline(mp)
        return {name: run(make()) for name, make in SCENARIOS.items()}


@pytest.mark.parametrize("workers", [1, 2, 5])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_is_bit_identical_at_any_pool_size(name, workers, inline_runs, monkeypatch):
    _workers(monkeypatch, workers)
    _assert_same_run(run(SCENARIOS[name]()), inline_runs[name])


def test_noisy_scenarios_clip_and_write_spectra(inline_runs):
    # the comparisons above cover clip counts and spectra only if they exist
    assert inline_runs["tdma-all-noise"].clip_count > 0
    assert inline_runs["tdma-all-noise"].spectra is not None
    assert inline_runs["cdma-all-noise"].clip_count > 0
    assert len(inline_runs["cdma-all-noise"].images) == 7


@pytest.mark.parametrize("name", ["hdr66-fm", "cdma-all-noise"])
def test_draws_run_on_the_pool_and_the_rest_on_the_caller(name, monkeypatch):
    _workers(monkeypatch, 2)
    draws, noise_calls = [], []
    original_terms, original_noise = caossim.channel._noise_terms, caossim.runner.add_noise

    def recording_terms(cfg, q, fs, slot_index, out=None):
        draws.append((slot_index, threading.current_thread().name))
        return original_terms(cfg, q, fs, slot_index, out)

    def recording_noise(stream, cfg, slot_index):
        noise_calls.append(threading.current_thread() is threading.main_thread())
        return original_noise(stream, cfg, slot_index)

    monkeypatch.setattr(caossim.channel, "_noise_terms", recording_terms)
    monkeypatch.setattr(caossim.runner, "add_noise", recording_noise)
    run(SCENARIOS[name]())
    assert all(noise_calls) and len(noise_calls) > 1
    assert sorted(i for i, _ in draws) == list(range(len(noise_calls)))
    assert all(thread.startswith("caossim-noise") for _, thread in draws)


def test_reproduce_outdir_files_identical_at_any_pool_size(tmp_path, monkeypatch, capsys):
    def reproduce(tag):
        out = tmp_path / tag
        assert main(["reproduce", "hdr66-fdma", "--outdir", str(out)]) == 0
        return out, capsys.readouterr().out

    with monkeypatch.context() as mp:
        _inline(mp)
        want, want_stdout = reproduce("inline")
    names = sorted(p.name for p in want.iterdir())
    assert "decoded.csv" in names and "patch_report.csv" in names
    for workers in (1, 2, 5):
        _workers(monkeypatch, workers)
        got, stdout = reproduce(f"w{workers}")
        assert sorted(p.name for p in got.iterdir()) == names
        match, mismatch, errors = filecmp.cmpfiles(want, got, names, shallow=False)
        assert (mismatch, errors) == ([], [])
        assert stdout.replace(str(got), str(want)) == want_stdout


def test_two_runs_in_two_threads_equal_their_serial_runs(monkeypatch):
    _workers(monkeypatch, 2)
    a, b = _reduced("hdr66-fdma"), dataclasses.replace(_noisy_tdma(), seed=11)
    serial = [run(a), run(b)]
    results = [None, None]
    start = threading.Barrier(2)

    def worker(k, scenario):
        start.wait()
        results[k] = run(scenario)

    threads = [threading.Thread(target=worker, args=(k, s)) for k, s in enumerate((a, b))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    for got, want in zip(results, serial):
        _assert_same_run(got, want)


@pytest.mark.parametrize("name", ["hdr66-fm", "tdma-all-noise"])
def test_more_workers_than_cpus_with_rapid_thread_switches(name, inline_runs, monkeypatch):
    _workers(monkeypatch, 2 * (os.cpu_count() or 1) + 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = run(SCENARIOS[name]())
    finally:
        sys.setswitchinterval(interval)
    _assert_same_run(got, inline_runs[name])


def test_failing_run_propagates_and_joins_its_workers(monkeypatch):
    _workers(monkeypatch, 2)
    scenario = _reduced("hdr66-fm")
    want = run(scenario)
    baseline = threading.active_count()
    original = caossim.runner.decode_slot_free
    calls = []

    def fail_at_slot_3(stream, slot):
        calls.append(None)
        if len(calls) == 4:
            raise RuntimeError("decode failed at slot 3")
        return original(stream, slot)

    with monkeypatch.context() as mp:
        mp.setattr(caossim.runner, "decode_slot_free", fail_at_slot_3)
        with pytest.raises(RuntimeError, match="slot 3"):
            run(scenario)
    assert threading.active_count() == baseline
    assert caossim.channel._DRAWN.get() is None
    _assert_same_run(run(scenario), want)


CONFIGS = {
    "silent": NoiseConfig(),
    "dark-mains": NoiseConfig(dark_offset=0.2, mains_amplitude=0.1, mains_freq=7.0),
    "stochastic": NoiseConfig(seed=5, **ALL_NOISE),
    "pink-only": NoiseConfig(pink_sigma=0.3, seed=2),
}


@pytest.mark.parametrize("ahead", [False, True])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_add_noise_never_aliases_its_input(name, ahead, monkeypatch):
    _workers(monkeypatch, 2)
    cfg, q, fs, n = CONFIGS[name], 256, 256.0, 5
    rng = np.random.default_rng(0)
    streams = [SampledSignal(rng.random(q), fs) for _ in range(n)]
    kept = [s.samples.copy() for s in streams]
    block = draws_ahead(cfg, q, fs, n) if ahead else contextlib.nullcontext()
    with block:
        outs = [add_noise(s, cfg, i) for i, s in enumerate(streams)]
    for stream, before, out, i in zip(streams, kept, outs, range(n)):
        assert np.array_equal(stream.samples, before)
        assert not np.shares_memory(out.samples, stream.samples)
        assert np.array_equal(out.samples, add_noise(stream, cfg, i).samples)
    for j, out in enumerate(outs):
        assert not any(np.shares_memory(out.samples, o.samples) for o in outs[j + 1 :])


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_add_noise_sums_in_the_order_it_always_has(name):
    # ((x + dark) + mains) + awgn) + pink, each term drawn from the slot's
    # Philox stream; the pre-drawn path adds in place but keeps these bits
    cfg, q, fs, slot = CONFIGS[name], 512, 512.0, 9
    x = np.random.default_rng(1).random(q)
    want = x.copy()
    want += cfg.dark_offset
    want += cfg.mains_amplitude * np.sin(
        2.0 * np.pi * cfg.mains_freq * np.arange(q) / fs + cfg.mains_phase
    )
    rng = caossim.channel._slot_rng(cfg.seed, slot)
    if cfg.awgn_sigma:
        want += rng.standard_normal(q) * cfg.awgn_sigma
    if cfg.pink_enabled:
        want += cfg.pink_sigma * caossim.channel._pink_noise(rng, q, fs, cfg.pink_exponent)
    got = add_noise(SampledSignal(x, fs), cfg, slot).samples
    assert got.tobytes() == want.tobytes()


def test_drawn_terms_serve_only_the_thread_that_opened_the_block(monkeypatch):
    _workers(monkeypatch, 2)
    cfg = CONFIGS["stochastic"]
    x = SampledSignal(np.zeros(256), 256.0)
    want = {i: add_noise(x, cfg, i).samples for i in (1, 2)}
    got = {}

    def in_copied_context(ctx, slot):
        # a thread that inherits the block's context draws inline, also
        # after the block has shut its pool down
        run_slot = lambda: got.update({slot: ctx.run(add_noise, x, cfg, slot).samples})
        t = threading.Thread(target=run_slot)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()

    with draws_ahead(cfg, 256, 256.0, 10):
        ctx = contextvars.copy_context()
        in_copied_context(ctx, 1)
        assert np.array_equal(add_noise(x, cfg, 1).samples, want[1])
    in_copied_context(ctx, 2)
    assert sorted(got) == [1, 2]
    assert all(np.array_equal(got[i], want[i]) for i in got)


def test_mismatched_or_out_of_order_calls_draw_inline(monkeypatch):
    _workers(monkeypatch, 3)
    cfg = CONFIGS["stochastic"]
    q, fs = 512, 512.0
    x = SampledSignal(np.linspace(0.0, 1.0, q), fs)
    want = {i: add_noise(x, cfg, i).samples for i in range(6)}
    other = dataclasses.replace(cfg, seed=6)
    with draws_ahead(cfg, q, fs, 6):
        assert np.array_equal(add_noise(x, cfg, 4).samples, want[4])  # not drawn yet
        assert np.array_equal(add_noise(x, other, 0).samples, add_noise(x, other, 0).samples)
        for i in (0, 1, 1, 3, 2, 5, 4):
            assert np.array_equal(add_noise(x, cfg, i).samples, want[i])
        short = SampledSignal(x.samples[: q // 2], fs)
        assert np.array_equal(
            add_noise(short, cfg, 2).samples, add_noise(short, cfg, 2).samples
        )


def test_no_thread_without_stochastic_noise_or_a_second_cpu(monkeypatch):
    baseline = threading.active_count()
    _workers(monkeypatch, 4)
    with draws_ahead(CONFIGS["dark-mains"], 256, 256.0, 10):
        assert caossim.channel._DRAWN.get() is None
        assert threading.active_count() == baseline
    with draws_ahead(CONFIGS["stochastic"], 256, 256.0, 1):
        assert caossim.channel._DRAWN.get() is None
    _workers(monkeypatch, 1)
    with draws_ahead(CONFIGS["stochastic"], 256, 256.0, 10):
        assert caossim.channel._DRAWN.get() is None
        assert threading.active_count() == baseline


def test_pool_size_follows_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert caossim.channel._draw_workers() == 3
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert caossim.channel._draw_workers() == caossim.channel.MAX_DRAW_WORKERS == 4
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert caossim.channel._draw_workers() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert caossim.channel._draw_workers() == 1


def test_importing_the_package_does_not_import_the_pool():
    src = Path(caossim.channel.__file__).resolve().parents[1]
    code = "import sys, caossim.cli; sys.exit('concurrent.futures' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
