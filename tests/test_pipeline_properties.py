"""Pipeline properties over small random TDMA scenarios, through ``run``.

``run`` encodes, impairs and reads a TDMA run's slots in blocks of slots
that share their carriers; it must give the bits of the slot-by-slot
pipeline of the one-row library calls, wherever the block boundaries fall.
With the ADC off and no spectra, a strict TDMA run reads each slot from its
average over one carrier period; ``write_spectra`` makes the same scenario
read the raw Q-sample slot when its channel varies in time (an AWGN, pink
or mains term).  On a time-invariant channel a slot repeats every period,
so spectra too are read from one period.  These properties hold the
averaged readout to the raw one, and to itself across modes and
draw-ahead pool sizes.  A permissive run with the ADC off forms no slot
stream: it sums unit carrier responses, and its estimates are held to the
slot-by-slot pipeline.  A scenario's resolved config, here and for every
preset, parses back to the same config and the same run.  In every mode
the noiseless decode is linear in the scene and one lit pixel leaks into
no other, and a dark scene's estimates sit on the Rayleigh noise floor of
their AWGN.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import caossim.channel
import caossim.runner
from caossim.channel import add_noise, quantize
from caossim.decoder import assemble_image, block_coefficients, decode_slot_free
from caossim.encoder import encode_slot, schedule_fdma_tdma
from caossim.metrics import noise_equivalent_irradiance
from caossim.runner import FULL_SCALE_HEADROOM, PlanRejectedError, run
from caossim.scenario import load_preset, preset_names, scenario_from_dict
from caossim.scene_optics import Scene
from caossim.waveform import (
    SampledSignal,
    SamplingWindow,
    fold_bin,
    fundamental_coefficient,
    whole_number,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=50)

# Dark pixels (0) and up to 60 dB below the brightest.  A dark pixel under only the
# deterministic dark and mains terms decodes to rounding noise, which metrics.txt
# prints as 0 (see test_rounding_noise_prints_alike).
levels = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
sigmas = st.one_of(st.just(0.0), st.floats(1e-4, 0.05))


@st.composite
def noises(draw):
    pink = draw(st.booleans())
    return {
        "awgn_sigma": draw(sigmas),
        "pink_sigma": draw(sigmas) if pink else 0.0,
        "pink_exponent": draw(st.floats(0.0, 2.0)),
        "dark_offset": draw(st.one_of(st.just(0.0), st.floats(1e-3, 0.2))),
        "mains_amplitude": draw(sigmas),
        "mains_freq": draw(st.floats(1.0, 200.0)),
        "mains_phase": draw(st.floats(0.0, 2 * math.pi)),
    }


@st.composite
def tdma_docs(draw, mode=None, channels=None):
    """A valid strict fm-tdma or fdma-tdma scenario with Q = 2**p <= 2**12."""
    mode = mode or draw(st.sampled_from(["fm-tdma", "fdma-tdma"]))
    p = draw(st.integers(4, 12))
    P = channels or (1 if mode == "fm-tdma" else draw(st.integers(1, min(4, p - 1))))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    values = draw(st.lists(st.lists(levels, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    return {
        "mode": mode,
        "grid": {"rows": rows, "cols": cols},
        "target": {"kind": "explicit", "values": values},
        "plan": {"T": draw(st.sampled_from([0.25, 1.0])), "p": p,
                 "m": draw(st.integers(1, p - P)), "P": P},
        "noise": draw(noises()),
        "adc": {"enabled": False},
        "seed": draw(st.integers(0, 2**63 - 1)),
    }


def _mains_on_a_carrier(scenario) -> bool:
    """The drawn mains tone sits on a whole bin that folds onto a bin-exact carrier's bin."""
    plan = caossim.runner._build_plan(scenario)
    tone = whole_number(scenario.noise.mains_freq / plan.delta_f)
    carriers = {whole_number(f / plan.delta_f) for f in plan.channels}
    return (scenario.noise.mains_amplitude > 0 and tone is not None
            and fold_bin(tone, plan.Q) in carriers)


def _rejected_for_mains(scenario) -> bool:
    """Whether the plan audit stops this strict run for its mains tone on a carrier's bin.
    Such a draw is not filtered out: the run must raise, naming noise.mains_freq."""
    if scenario.permissive or not _mains_on_a_carrier(scenario):
        return False
    with pytest.raises(PlanRejectedError, match="noise.mains_freq"):
        run(scenario)
    return True


def _read_rows(doc) -> tuple:
    """The run's report and the length of every slot row it decoded."""
    seen = []
    original = caossim.runner.decode_block

    def recording(rows, fs, freqs):
        seen.extend([rows.shape[-1]] * len(rows))
        return original(rows, fs, freqs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(caossim.runner, "decode_block", recording)
        report = run(scenario_from_dict(doc))
    return report, seen


@PROPERTY
@given(tdma_docs())
def test_averaged_readout_matches_the_raw_readout(doc):
    if _rejected_for_mains(scenario_from_dict(doc)):
        return
    averaged, lengths = _read_rows(doc)
    raw, raw_lengths = _read_rows(dict(doc, write_spectra=True))
    # carriers on bins 2**(m-1) .. : one period of the slowest is Q / 2**(m-1) samples
    q, slots = 2 ** doc["plan"]["p"], averaged.image.slot_map.max() + 1
    period = q // 2 ** (doc["plan"]["m"] - 1)
    assert lengths == [period] * slots
    # spectra need the raw slot only when the channel varies in time
    varying = not raw.scenario.noise_config().is_time_invariant
    assert raw_lengths == [q if varying else period] * slots
    got, want = averaged.image.estimates, raw.image.estimates
    # an all-dark image has no peak of its own; the terms' rounding sets the scale
    floor = caossim.runner._rounding_floor(raw)
    assert np.max(np.abs(got - want)) <= max(1e-12 * np.max(np.abs(want)), floor)
    assert averaged.metrics_text == raw.metrics_text


def test_rounding_noise_prints_alike():
    # a dark pixel under only dark offset and mains decodes to ~1e-18, whose
    # digits follow the order in which the two readouts sum the terms; the
    # pixel table prints a value below its rounding floor as 0
    doc = {
        "mode": "fm-tdma",
        "grid": {"rows": 1, "cols": 1},
        "target": {"kind": "explicit", "values": [[0.0]]},
        "plan": {"T": 0.25, "p": 4, "m": 2, "P": 1},
        "noise": {"dark_offset": 0.03125, "mains_amplitude": 0.03125, "mains_freq": 4.0},
        "adc": {"enabled": False},
    }
    averaged = run(scenario_from_dict(doc))
    raw = run(scenario_from_dict(dict(doc, write_spectra=True)))
    assert averaged.image.estimates[0, 0] < 1e-16
    assert averaged.image.estimates.tobytes() != raw.image.estimates.tobytes()
    assert averaged.metrics_text == raw.metrics_text


@PROPERTY
@given(tdma_docs(mode="fdma-tdma", channels=1), st.booleans())
def test_fm_tdma_is_one_channel_fdma_tdma_bit_for_bit(doc, raw):
    doc = dict(doc, write_spectra=raw)
    if _rejected_for_mains(scenario_from_dict(doc)):
        assert _rejected_for_mains(scenario_from_dict(dict(doc, mode="fm-tdma")))
        return
    fdma = run(scenario_from_dict(doc))
    fm = run(scenario_from_dict(dict(doc, mode="fm-tdma")))
    assert fm.image.estimates.tobytes() == fdma.image.estimates.tobytes()
    assert fm.image.channel_map.tobytes() == fdma.image.channel_map.tobytes()
    assert (fm.spectra is None) == (not raw)
    if raw:
        assert fm.spectra.tobytes() == fdma.spectra.tobytes()


@PROPERTY
@given(tdma_docs())
def test_pool_width_changes_no_bit_of_the_averaged_readout(doc):
    scenario = scenario_from_dict(doc)
    if _rejected_for_mains(scenario):
        return
    runs = []
    for width in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(caossim.channel, "_draw_workers", lambda: width)
            runs.append(run(scenario))
    one, two = runs
    assert one.image.estimates.tobytes() == two.image.estimates.tobytes()
    assert one.metrics_text == two.metrics_text


@PROPERTY
@given(tdma_docs())
def test_noiseless_averaged_readout_is_the_raw_readout_bit_for_bit(doc):
    # the average of an L-periodic slot is its first period exactly, and the
    # readout's 1/L against 1/Q is a power of two
    scenario = scenario_from_dict(dict(doc, noise={}))
    averaged = run(scenario).image.estimates
    plan = caossim.runner._build_plan(scenario)
    scene = caossim.runner.build_scene(scenario.target, scenario.grid)
    schedule = schedule_fdma_tdma(scenario.grid.num_pixels, plan)
    raw = [decode_slot_free(encode_slot(scene, slot, plan.window()), slot)
           for slot in schedule.slots]
    image = assemble_image(raw, schedule, scenario.grid, scenario.mode)
    assert averaged.tobytes() == image.estimates.tobytes()


def test_strategies_reach_the_averaged_pool_path():
    # the pool draws ahead only with two or more slots and a stochastic term
    @PROPERTY
    @given(tdma_docs())
    def collect(doc):
        sc = scenario_from_dict(doc)
        noise = sc.noise_config()
        slots = math.ceil(sc.rows * sc.cols / sc.plan.P)
        found.append(sc.plan.m > 1 and slots > 1 and caossim.channel._term_count(noise) > 0)

    found = []
    collect()
    assert any(found) and not all(found)


def test_averaged_noise_terms_are_drawn_at_q_samples():
    doc = {
        "mode": "fdma-tdma",
        "grid": {"rows": 2, "cols": 4},
        "target": {"kind": "uniform", "level": 0.5},
        "plan": {"T": 1.0, "p": 10, "m": 5, "P": 2},
        "noise": {"awgn_sigma": 0.01, "pink_sigma": 0.01},
        "seed": 4,
    }
    drawn = []
    original = caossim.channel._noise_terms

    def recording(cfg, q, fs, slot_index, out=None):
        drawn.append(q)
        return original(cfg, q, fs, slot_index, out)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(caossim.channel, "_noise_terms", recording)
        report, lengths = _read_rows(doc)
    # 4 slots, each drawn at Q = 1024 and read as one 64-sample row
    assert drawn == [1024] * 4 and lengths == [64] * 4
    assert report.image.estimates.shape == (2, 4)


@st.composite
def permissive_docs(draw):
    """A permissive, ADC-off fdma-tdma scenario with 1-4 explicit carriers, Q = 2**p <= 2**12:
    each on a power-of-two bin (whole periods), on another whole bin, or between bins."""
    p = draw(st.integers(4, 12))
    q, T = 2**p, draw(st.sampled_from([0.25, 1.0]))
    bins = st.one_of(st.integers(0, p - 2).map(lambda k: float(2**k)),
                     st.integers(1, q // 2).map(float),
                     st.tuples(st.integers(1, q // 2 - 1), st.floats(0.01, 0.99)).map(sum))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    values = draw(st.lists(st.lists(levels, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    return {
        "mode": "fdma-tdma",
        "grid": {"rows": rows, "cols": cols},
        "target": {"kind": "explicit", "values": values},
        "plan": {"T": T, "p": p, "frequencies": [
            b / T for b in draw(st.lists(bins, min_size=1, max_size=4, unique=True))]},
        "noise": draw(noises()),
        "adc": {"enabled": False},
        "permissive": True,
        "seed": draw(st.integers(0, 2**63 - 1)),
    }


def _permissive_slots(scenario):
    plan = caossim.runner._build_plan(scenario)
    return plan, schedule_fdma_tdma(scenario.grid.num_pixels, plan).slots


@PROPERTY
@given(permissive_docs())
def test_superposed_readout_matches_the_slot_by_slot_pipeline(doc):
    scenario = scenario_from_dict(doc)
    report, lengths = _read_rows(doc)
    assert lengths == []  # no slot stream is read
    plan, slots = _permissive_slots(scenario)
    scene = caossim.runner.build_scene(scenario.target, scenario.grid)
    want = {}
    for i, slot in enumerate(slots):
        stream = encode_slot(scene, slot, plan.window(), strict=False)
        want.update(decode_slot_free(add_noise(stream, scenario.noise_config(), i), slot))
    want = np.array([want[i] for i in range(len(want))])
    got = report.image.estimates.ravel()
    floor = caossim.runner._rounding_floor(report)
    assert np.max(np.abs(got - want)) <= max(1e-12 * np.max(np.abs(want)), floor)


def test_permissive_strategy_reaches_every_case():
    @PROPERTY
    @given(permissive_docs())
    def collect(doc):
        sc = scenario_from_dict(doc)
        plan, slots = _permissive_slots(sc)
        whole = [whole_number(f / plan.delta_f) is not None for f in plan.channels]
        first, last = ([plan.bins[plan.channels.index(f)] for _, f in s]
                       for s in (slots[0], slots[-1]))
        noise = sc.noise
        cases = {
            "on the bin grid": all(whole),
            "off the bin grid": not any(whole),
            "short last slot, other gcd": math.gcd(plan.Q, *first) != math.gcd(plan.Q, *last),
            "silent": noise.is_silent,
            "awgn": noise.awgn_sigma > 0,
            "pink": noise.pink_enabled,
            "dark offset": noise.dark_offset > 0,
            "mains": noise.mains_amplitude > 0,
        }
        reached.update(case for case, hit in cases.items() if hit)

    reached = set()
    collect()
    assert reached == {"on the bin grid", "off the bin grid", "short last slot, other gcd",
                       "silent", "awgn", "pink", "dark offset", "mains"}


@st.composite
def block_docs(draw):
    """An fdma-tdma scenario for the block path, with its draw-ahead width and block size:
    strict on a designed ladder or permissive on explicit carriers (as permissive_docs), up to
    11 carriers, Q = 2**p <= 2**12, the ADC and spectra each on or off, and a block budget of
    1-3 rows or the default."""
    P = draw(st.one_of(st.integers(1, 4), st.integers(9, 11)))
    p = draw(st.integers(max(4, P + 1), 12))
    q, T = 2**p, draw(st.sampled_from([0.25, 1.0]))
    permissive = draw(st.booleans())
    if permissive:
        bins = st.one_of(st.integers(0, p - 2).map(lambda k: float(2**k)),
                         st.integers(1, q // 2).map(float),
                         st.tuples(st.integers(1, q // 2 - 1), st.floats(0.01, 0.99)).map(sum))
        plan = {"T": T, "p": p, "frequencies": [
            b / T for b in draw(st.lists(bins, min_size=P, max_size=P, unique=True))]}
    else:
        plan = {"T": T, "p": p, "m": draw(st.integers(1, p - P)), "P": P}
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 12))
    values = draw(st.lists(st.lists(levels, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    adc = draw(st.one_of(st.just({"enabled": False}),
                         st.integers(4, 12).map(lambda bits: {"enabled": True, "bits": bits})))
    doc = {
        "mode": "fdma-tdma",
        "grid": {"rows": rows, "cols": cols},
        "target": {"kind": "explicit", "values": values},
        "plan": plan,
        "noise": draw(noises()),
        "adc": adc,
        "write_spectra": draw(st.booleans()),
        "permissive": permissive,
        "seed": draw(st.integers(0, 2**63 - 1)),
    }
    return doc, draw(st.sampled_from([1, 2])), draw(st.one_of(st.none(), st.integers(1, 3)))


def _slot_by_slot(scenario):
    """The image, clip count and spectra of ``run``, one slot at a time through the one-row
    calls: encode_slot -> add_noise -> quantize -> decode_slot_free -> assemble_image, or,
    on a permissive run with neither the ADC nor spectra, the sum of the unit carriers'
    coefficients weighted by the pixels, plus those of the slot's noise."""
    plan = caossim.runner._build_plan(scenario)
    window, grid = plan.window(), scenario.grid
    scene = caossim.runner.build_scene(scenario.target, grid)
    schedule = schedule_fdma_tdma(grid.num_pixels, plan)
    flat = scene.irradiance.ravel()
    peak = max(sum(flat[pix] for pix, _ in slot) for slot in schedule.slots)
    adc = scenario.adc_config(auto_full_scale=FULL_SCALE_HEADROOM * max(peak, 1e-12))
    noise = scenario.noise_config()
    period = caossim.runner._row_length(scenario, plan)
    windows = window.Q // period
    read_window = SamplingWindow(window.fs, window.T / windows, period, window.delta_f * windows)
    superposed = scenario.permissive and not (scenario.adc_enabled or scenario.write_spectra)
    estimates, spectra, clipped = [], [], 0
    for i, slot in enumerate(schedule.slots):
        freqs = [f for _, f in slot]

        def coefficients(stream):
            return block_coefficients(stream.samples[None], stream.fs, freqs)[0]

        if superposed:
            unit = Scene([[1.0]])
            coeffs = 0
            for pix, f in slot:
                carrier = encode_slot(unit, [(0, f)], window, strict=False)
                coeffs = coeffs + flat[pix] * coefficients(carrier)
            if not noise.is_silent:
                silence = SampledSignal(np.zeros(window.Q), window.fs)
                coeffs = coeffs + coefficients(add_noise(silence, noise, i))
            estimates.append({
                pix: abs(c) / (window.Q * fundamental_coefficient(window.fs / f))
                for (pix, f), c in zip(slot, coeffs)
            })
            continue
        stream = encode_slot(scene, slot, read_window, strict=not scenario.permissive)
        stream = SampledSignal(stream.samples, stream.fs, windows)
        if not noise.is_silent:
            stream = add_noise(stream, noise, i)
        stream, c = quantize(stream, adc)
        clipped += c
        if scenario.write_spectra:
            # a repeating slot's spectrum: its period's, times `windows`, at every windows-th bin
            spectrum = np.zeros(window.Q // 2 + 1)
            spectrum[::windows] = np.abs(np.fft.rfft(stream.samples)) * windows
            spectra.append(spectrum)
        estimates.append(decode_slot_free(stream, slot))
    image = assemble_image(estimates, schedule, grid, scenario.mode)
    return image, clipped, np.column_stack(spectra) if spectra else None


def _block_run(scenario, width, block_rows):
    """run(scenario) with ``width`` draw-ahead workers and, unless None, ``block_rows`` slot
    rows per block."""
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an ADC below 4 sigma of dark offset
        mp.setattr(caossim.channel, "_draw_workers", lambda: width)
        if block_rows is not None:
            plan = caossim.runner._build_plan(scenario)
            row_bytes = 8 * caossim.runner._row_length(scenario, plan)
            mp.setattr(caossim.runner, "BLOCK_BYTES", block_rows * row_bytes)
        return run(scenario)


# off the bin grid on even nearest bins (gcd 2): a free-sampled slot does not repeat every Q/2
OFF_GRID_EVEN_BINS = {
    "mode": "fdma-tdma", "grid": {"rows": 1, "cols": 3},
    "target": {"kind": "explicit", "values": [[1.0, 0.5, 0.25]]},
    "plan": {"T": 1.0, "p": 6, "frequencies": [2.3, 6.2]},
    "write_spectra": True, "permissive": True,
}


# strict spectra of a channel without a time-varying term, read from one period: 10 pixels
# on 3 carriers are 3 full slots and a short one, 2 rows a block
NOISELESS_SPECTRA = {
    "mode": "fdma-tdma", "grid": {"rows": 2, "cols": 5},
    "target": {"kind": "explicit", "values": [[1.0, 0.5, 0.25, 0.0, 0.125],
                                              [0.0625, 0.75, 0.0, 0.3, 1e-3]]},
    "plan": {"T": 1.0, "p": 8, "m": 3, "P": 3},
    "write_spectra": True,
}


# a 0.1 mains tone on the one carrier's bin: the audit stops a strict run
MAINS_ON_A_CARRIER = {
    "mode": "fdma-tdma", "grid": {"rows": 1, "cols": 2},
    "target": {"kind": "explicit", "values": [[0.5, 0.25]]},
    "plan": {"T": 1.0, "p": 10, "m": 8, "P": 1},
    "noise": {"mains_amplitude": 0.1, "mains_freq": 128.0},
}


@settings(PROPERTY, max_examples=200)
@given(block_docs())
@example((OFF_GRID_EVEN_BINS, 1, None))
@example((NOISELESS_SPECTRA, 1, 2))
@example((dict(NOISELESS_SPECTRA, noise={"dark_offset": 0.05}), 2, 2))
@example((MAINS_ON_A_CARRIER, 1, None))
@example((dict(MAINS_ON_A_CARRIER, plan={"T": 1.0, "p": 10, "frequencies": [128.0]},
               permissive=True), 2, None))
def test_block_run_is_the_slot_by_slot_pipeline_bit_for_bit(case):
    doc, width, block_rows = case
    scenario = scenario_from_dict(doc)
    if _rejected_for_mains(scenario):
        return
    report = _block_run(scenario, width, block_rows)
    # a permissive run records the audit's finding instead
    assert ("noise.mains_freq" in report.metrics_text) == _mains_on_a_carrier(scenario)
    image, clipped, spectra = _slot_by_slot(scenario)
    assert report.image.estimates.tobytes() == image.estimates.tobytes()
    assert report.image.slot_map.tobytes() == image.slot_map.tobytes()
    assert report.image.channel_map.tobytes() == image.channel_map.tobytes()
    assert report.clip_count == clipped
    assert (report.spectra is None) == (spectra is None)
    if spectra is not None:
        assert report.spectra.tobytes() == spectra.tobytes()


def test_block_strategy_reaches_every_case():
    @PROPERTY
    @given(block_docs())
    def collect(case):
        doc, width, block_rows = case
        sc = scenario_from_dict(doc)
        plan = caossim.runner._build_plan(sc)
        slots = math.ceil(sc.grid.num_pixels / plan.num_channels)
        stream = not sc.permissive or sc.adc_enabled or sc.write_spectra
        cases = {
            "strict": not sc.permissive,
            "permissive, superposed": not stream,
            "permissive, stream": sc.permissive and stream,
            "averaged": caossim.runner._row_length(sc, plan) < plan.Q,
            "spectra": sc.write_spectra,
            "adc": sc.adc_enabled,
            "noise": caossim.channel._term_count(sc.noise_config()) > 0,
            "short last slot": sc.grid.num_pixels % plan.num_channels != 0 and slots > 1,
            # numpy sums 8 or more terms pairwise: the slot peak (ADC) and the superposition
            # add their carriers in turn
            "more than 8 carriers, adc": plan.num_channels > 8 and sc.adc_enabled,
            "more than 8 carriers, superposed": plan.num_channels > 8 and not stream,
            "one worker": width == 1,
            "two workers": width == 2,
            "block boundary mid-schedule": block_rows is not None and slots > block_rows,
        }
        reached.update(case for case, hit in cases.items() if hit)

    reached = set()
    collect()
    assert reached == {"strict", "permissive, superposed", "permissive, stream", "averaged",
                       "spectra", "adc", "noise", "short last slot", "more than 8 carriers, adc",
                       "more than 8 carriers, superposed", "one worker", "two workers",
                       "block boundary mid-schedule"}


@pytest.mark.parametrize("length", [2**k for k in range(1, 17)])
def test_batched_rfft_gives_each_row_the_bits_of_its_own_rfft(length):
    # the block readout and spectra transform every row of a block at once
    rng = np.random.default_rng(length)
    rows = 160 if length <= 1024 else 3
    block = rng.standard_normal((rows, length)) * 10.0 ** rng.integers(-8, 8, (rows, 1))
    batched = np.fft.rfft(block, axis=-1)
    magnitudes = np.abs(batched)
    for row, want in zip(block, batched):
        assert np.fft.rfft(row).tobytes() == want.tobytes()
    for spectrum, want in zip(batched, magnitudes):
        assert np.abs(spectrum).tobytes() == want.tobytes()


def _rerun_of_resolved_config(scenario) -> None:
    """to_json -> parse -> to_json gives the same bytes, and the same run."""
    text = scenario.to_json()
    again = scenario_from_dict(json.loads(text))
    assert again.to_json() == text
    first, second = run(scenario), run(again)
    assert [i.estimates.tobytes() for i in second.images] == [
        i.estimates.tobytes() for i in first.images
    ]
    assert second.metrics_text == first.metrics_text


@PROPERTY
@given(tdma_docs())
def test_resolved_config_reruns_the_same(doc):
    scenario = scenario_from_dict(doc)
    if not _rejected_for_mains(scenario):
        _rerun_of_resolved_config(scenario)


@pytest.mark.parametrize("name", preset_names())
def test_preset_resolved_config_reruns_the_same(name):
    _rerun_of_resolved_config(load_preset(name))


@st.composite
def noiseless_docs(draw):
    """A noiseless, ADC-off scenario without its target: an fm-tdma or strict fdma-tdma
    ladder of ``tdma_docs``, or cdma with 1 to 4 samples per bit of a Walsh code that
    has a row for every pixel."""
    mode = draw(st.sampled_from(["fm-tdma", "fdma-tdma", "cdma"]))
    if mode != "cdma":
        doc = draw(tdma_docs(mode=mode))
        del doc["target"]
        return dict(doc, noise={})
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    return {
        "mode": "cdma",
        "grid": {"rows": rows, "cols": cols},
        "cdma": {"code_length": draw(st.sampled_from([16, 32, 64])),
                 "samples_per_bit": draw(st.integers(1, 4))},
        "noise": {},
        "adc": {"enabled": False},
        "seed": 0,
    }


def _decode(doc, values) -> np.ndarray:
    target = {"kind": "explicit", "values": np.asarray(values).tolist()}
    return run(scenario_from_dict(dict(doc, target=target))).image.estimates


def _scene_values(doc):
    grid = doc["grid"]
    return st.lists(levels, min_size=grid["rows"] * grid["cols"],
                    max_size=grid["rows"] * grid["cols"]).map(
        lambda flat: np.reshape(flat, (grid["rows"], grid["cols"])))


@PROPERTY
@given(st.data())
def test_noiseless_decode_is_linear_in_the_scene(data):
    doc = data.draw(noiseless_docs())
    s1, s2 = data.draw(_scene_values(doc)), data.draw(_scene_values(doc))
    a, b = data.draw(st.floats(0.0, 4.0)), data.draw(st.floats(0.0, 4.0))
    combined = _decode(doc, a * s1 + b * s2)
    separate = a * _decode(doc, s1) + b * _decode(doc, s2)
    peak = max(np.max(np.abs(combined)), np.max(np.abs(separate)))
    assert np.max(np.abs(combined - separate)) <= 1e-12 * peak


@PROPERTY
@given(st.data())
def test_one_lit_pixel_leaks_into_no_other(data):
    doc = data.draw(noiseless_docs())
    npix = doc["grid"]["rows"] * doc["grid"]["cols"]
    lit, level = data.draw(st.integers(0, npix - 1)), data.draw(st.floats(1e-3, 1.0))
    values = np.zeros(npix)
    values[lit] = level
    decoded = _decode(doc, values.reshape(doc["grid"]["rows"], -1)).ravel()
    assert decoded[lit] == pytest.approx(level, rel=1e-12)
    assert np.max(np.abs(np.delete(decoded, lit)), initial=0.0) <= 1e-9 * level


def test_noiseless_strategy_reaches_every_mode():
    @PROPERTY
    @given(noiseless_docs())
    def collect(doc):
        reached.add(doc["mode"])

    reached = set()
    collect()
    assert reached == {"fm-tdma", "fdma-tdma", "cdma"}


@pytest.mark.parametrize("mode, P, m", [("fm-tdma", 1, 5), ("fdma-tdma", 4, 3)])
def test_dark_scene_noise_floor_is_the_rayleigh_scale(mode, P, m):
    # a dark slot's carrier bin holds white noise, so an estimate's mean square is
    # sigma^2 / (a1^2 Q) = 2 NEI^2, the noise-equivalent irradiance per quadrature
    sigma, p = 0.01, 8
    doc = {
        "mode": mode,
        "grid": {"rows": 8, "cols": 16},
        "target": {"kind": "uniform", "level": 0.0},
        # carriers from 64 Hz up, above the mains guard
        "plan": {"T": 1 / 16, "p": p, "m": m, "P": P},
        "noise": {"awgn_sigma": sigma},
        "adc": {"enabled": False},
    }
    power = []
    for seed in range(40):
        report = run(scenario_from_dict(dict(doc, seed=seed)))
        fs = caossim.runner._build_plan(report.scenario).fs
        nei = np.vectorize(lambda f: noise_equivalent_irradiance(sigma, 2**p, fs / f))(
            report.image.channel_map)
        power.extend(((report.image.estimates / nei) ** 2).ravel())
    assert len(power) >= 2000
    assert np.mean(power) == pytest.approx(2.0, rel=0.1)
