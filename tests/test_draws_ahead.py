"""Noise drawn ahead on a thread pool must not change a single bit.

``channel.slot_terms`` yields a run's slot terms in slot order, its pool
drawing up to W slots ahead of the slot last yielded while the calling
thread processes the current block.  The draws are keyed by (seed, slot),
so every run here must equal the run that draws every slot inline, at any
pool size, and a failing or abandoned iterator must leave no worker thread
behind.  The all-noise scenarios' ADC sits below 4 sigma of their dark
offset, so each of their runs asserts the warning that says so.
"""

import dataclasses
import filecmp
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from pathlib import Path

import numpy as np
import pytest

import caossim.channel
import caossim.runner
from caossim.channel import NoiseConfig, add_noise, add_terms, slot_terms
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


def _inline_terms(cfg, q, fs, period, slots):
    return (caossim.channel._slot_terms(cfg, q, fs, i, period) for i in slots)


def _inline(monkeypatch):
    monkeypatch.setattr(caossim.runner, "slot_terms", _inline_terms)


def _workers(monkeypatch, w):
    monkeypatch.setattr(caossim.channel, "_draw_workers", lambda: w)


def _run(scenario):
    """run(scenario).  Every ADC-on scenario here is an all-noise one, whose dark offset lies
    below 4 sigma of its noise, so its run warns that the ADC clips the negative swings."""
    if not scenario.adc_enabled:
        return run(scenario)
    with pytest.warns(UserWarning, match="noise.dark_offset"):
        return run(scenario)


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
        return {name: _run(make()) for name, make in SCENARIOS.items()}


@pytest.mark.parametrize("workers", [1, 2, 5])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_is_bit_identical_at_any_pool_size(name, workers, inline_runs, monkeypatch):
    _workers(monkeypatch, workers)
    _assert_same_run(_run(SCENARIOS[name]()), inline_runs[name])


def test_noisy_scenarios_clip_and_write_spectra(inline_runs):
    # the comparisons above cover clip counts and spectra only if they exist
    assert inline_runs["tdma-all-noise"].clip_count > 0
    assert inline_runs["tdma-all-noise"].spectra is not None
    assert inline_runs["cdma-all-noise"].clip_count > 0
    assert len(inline_runs["cdma-all-noise"].images) == 7


@pytest.mark.parametrize("name", ["hdr66-fm", "cdma-all-noise"])
def test_draws_run_on_the_pool_and_the_rest_on_the_caller(name, monkeypatch):
    _workers(monkeypatch, 2)
    draws, added = [], []
    original_terms, original_add = caossim.channel._slot_terms, caossim.runner.add_terms

    def recording_terms(cfg, q, fs, slot_index, period, out=None):
        draws.append((slot_index, threading.current_thread().name))
        return original_terms(cfg, q, fs, slot_index, period, out)

    def recording_add(rows, terms, *args):
        added.append((len(rows), threading.current_thread() is threading.main_thread()))
        original_add(rows, terms, *args)

    monkeypatch.setattr(caossim.channel, "_slot_terms", recording_terms)
    monkeypatch.setattr(caossim.runner, "add_terms", recording_add)
    report = _run(SCENARIOS[name]())
    # a TDMA row is one slot; a CDMA band is one slot, whose chunks are one-row blocks
    slots = len(report.images) if name.startswith("cdma") else report.image.slot_map.max() + 1
    assert all(on_caller for _, on_caller in added) and slots > 1
    assert sum(rows for rows, _ in added) >= slots
    assert sorted(i for i, _ in draws) == list(range(slots))
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
    serial = [_run(a), _run(b)]
    results = [None, None]
    start = threading.Barrier(2)

    def worker(k, scenario):
        start.wait()
        results[k] = run(scenario)

    threads = [threading.Thread(target=worker, args=(k, s)) for k, s in enumerate((a, b))]
    with pytest.warns(UserWarning, match="noise.dark_offset"):  # b's, from its thread
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
        got = _run(SCENARIOS[name]())
    finally:
        sys.setswitchinterval(interval)
    _assert_same_run(got, inline_runs[name])


def test_failing_run_propagates_and_joins_its_workers(monkeypatch):
    _workers(monkeypatch, 2)
    scenario = _reduced("hdr66-fm")
    want = run(scenario)
    baseline = threading.active_count()
    original = caossim.runner.decode_block
    calls = []

    def fail_at_slot_3(rows, fs, freqs):
        calls.append(len(rows))
        if len(calls) == 4:
            raise RuntimeError("decode failed at slot 3")
        return original(rows, fs, freqs)

    with monkeypatch.context() as mp:
        mp.setattr(caossim.runner, "BLOCK_BYTES", 1)  # one slot per block
        mp.setattr(caossim.runner, "decode_block", fail_at_slot_3)
        with pytest.raises(RuntimeError, match="slot 3"):
            run(scenario)
    assert calls == [1] * 4
    assert threading.active_count() == baseline
    _assert_same_run(run(scenario), want)


CONFIGS = {
    "silent": NoiseConfig(),
    "dark-mains": NoiseConfig(dark_offset=0.2, mains_amplitude=0.1, mains_freq=7.0),
    "stochastic": NoiseConfig(seed=5, **ALL_NOISE),
    "pink-only": NoiseConfig(pink_sigma=0.3, seed=2),
}


def _noise_threads():
    return [t for t in threading.enumerate() if t.name.startswith("caossim-noise")]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_add_noise_never_aliases_its_input(name):
    cfg, q, fs, n = CONFIGS[name], 256, 256.0, 5
    rng = np.random.default_rng(0)
    streams = [SampledSignal(rng.random(q), fs) for _ in range(n)]
    kept = [s.samples.copy() for s in streams]
    outs = [add_noise(s, cfg, i) for i, s in enumerate(streams)]
    for stream, before, out, i in zip(streams, kept, outs, range(n)):
        assert np.array_equal(stream.samples, before)
        assert not np.shares_memory(out.samples, stream.samples)
        assert np.array_equal(out.samples, add_noise(stream, cfg, i).samples)
    for j, out in enumerate(outs):
        assert not any(np.shares_memory(out.samples, o.samples) for o in outs[j + 1 :])


@pytest.mark.parametrize("windows", [1, 4])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_block_gets_each_rows_add_noise(name, workers, windows, monkeypatch):
    # add_terms on a block, fed by slot_terms, is add_noise on each row, bit for bit
    _workers(monkeypatch, workers)
    cfg, q, fs, n = CONFIGS[name], 256, 256.0, 5
    period = q // windows
    block = np.random.default_rng(0).random((n, period))
    want = [add_noise(SampledSignal(row, fs, windows), cfg, i).samples
            for i, row in enumerate(block)]
    with closing(slot_terms(cfg, q, fs, period, range(n))) as terms:
        add_terms(block, terms, cfg, fs, windows)
    assert block.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_add_noise_sums_in_the_order_it_always_has(name):
    # ((x + dark) + mains) + awgn) + pink, each term drawn from the slot's
    # Philox stream; add_terms adds in place but keeps these bits
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


def test_a_workers_exception_surfaces_at_its_slot(monkeypatch):
    _workers(monkeypatch, 2)
    baseline = threading.active_count()
    original = caossim.channel._slot_terms

    def fail_at_slot_3(cfg, q, fs, slot_index, period, out=None):
        if slot_index == 3:
            raise RuntimeError("draw failed at slot 3")
        return original(cfg, q, fs, slot_index, period, out)

    monkeypatch.setattr(caossim.channel, "_slot_terms", fail_at_slot_3)
    cfg = CONFIGS["stochastic"]
    terms = slot_terms(cfg, 256, 256.0, 256, range(8))
    for _ in range(3):
        next(terms)
    with pytest.raises(RuntimeError, match="slot 3"):
        next(terms)
    assert threading.active_count() == baseline


def test_closing_the_iterator_early_joins_its_pool(monkeypatch):
    _workers(monkeypatch, 2)
    baseline = threading.active_count()
    terms = slot_terms(CONFIGS["stochastic"], 256, 256.0, 256, range(10))
    next(terms)
    assert _noise_threads()
    terms.close()
    assert _noise_threads() == [] and threading.active_count() == baseline


@pytest.mark.parametrize("workers", [2, 3])
def test_at_most_w_slots_are_drawn_beyond_the_slot_last_yielded(workers, monkeypatch):
    _workers(monkeypatch, workers)
    submitted = []
    submit = ThreadPoolExecutor.submit

    def recording_submit(pool, fn, cfg, q, fs, slot_index, *args):
        submitted.append(slot_index)
        return submit(pool, fn, cfg, q, fs, slot_index, *args)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", recording_submit)
    n = 7
    with closing(slot_terms(CONFIGS["stochastic"], 256, 256.0, 256, range(n))) as terms:
        for yielded, _ in enumerate(terms):
            assert max(submitted) == min(yielded + workers, n - 1)
    assert submitted == list(range(n))


def test_no_thread_without_stochastic_noise_a_second_cpu_or_two_slots(monkeypatch):
    baseline = threading.active_count()

    def draw_all(cfg, n):
        with closing(slot_terms(cfg, 256, 256.0, 256, range(n))) as terms:
            for _ in terms:
                assert threading.active_count() == baseline

    _workers(monkeypatch, 4)
    draw_all(CONFIGS["dark-mains"], 10)
    draw_all(CONFIGS["stochastic"], 1)
    _workers(monkeypatch, 1)
    draw_all(CONFIGS["stochastic"], 10)
    # the positive case: two CPUs, ten slots and a stochastic term start the pool
    _workers(monkeypatch, 2)
    with closing(slot_terms(CONFIGS["stochastic"], 256, 256.0, 256, range(10))) as terms:
        next(terms)
        assert len(_noise_threads()) > 0


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
