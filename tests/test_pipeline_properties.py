"""Pipeline properties over small random TDMA scenarios, through ``run``.

With the ADC off and no spectra, a strict TDMA run reads each slot from its
average over one carrier period; ``write_spectra`` makes the same scenario
read the raw Q-sample slot.  These properties hold the averaged readout to
the raw one, and to itself across modes and draw-ahead pool sizes.  A
permissive run with the ADC off forms no slot stream: it sums unit carrier
responses, and its estimates are held to the slot-by-slot pipeline.  A
scenario's resolved config, here and for every preset, parses back to the
same config and the same run.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caossim.channel
import caossim.runner
from caossim.channel import add_noise
from caossim.decoder import decode_slot_free
from caossim.encoder import encode_slot, schedule_fdma_tdma
from caossim.runner import run
from caossim.scenario import load_preset, preset_names, scenario_from_dict
from caossim.waveform import whole_number

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


def _read_windows(doc) -> tuple:
    """The run's report and the window count of every stream it decoded."""
    seen = []
    original = caossim.runner.decode_slot_free

    def recording(stream, slot):
        seen.append(stream.windows)
        return original(stream, slot)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(caossim.runner, "decode_slot_free", recording)
        report = run(scenario_from_dict(doc))
    return report, seen


@PROPERTY
@given(tdma_docs())
def test_averaged_readout_matches_the_raw_readout(doc):
    averaged, windows = _read_windows(doc)
    raw, raw_windows = _read_windows(dict(doc, write_spectra=True))
    # carriers on bins 2**(m-1) .. : one period of the slowest is Q / 2**(m-1) samples
    assert set(windows) == {2 ** (doc["plan"]["m"] - 1)}
    assert set(raw_windows) == {1}
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
    doc = dict(doc, noise={})
    averaged = run(scenario_from_dict(doc)).image.estimates
    raw = run(scenario_from_dict(dict(doc, write_spectra=True))).image.estimates
    assert averaged.tobytes() == raw.tobytes()


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
        report, windows = _read_windows(doc)
    assert drawn == [1024] * 4 and set(windows) == {16}
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
    report, windows = _read_windows(doc)
    assert windows == []  # no slot stream is read
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
    _rerun_of_resolved_config(scenario_from_dict(doc))


@pytest.mark.parametrize("name", preset_names())
def test_preset_resolved_config_reruns_the_same(name):
    _rerun_of_resolved_config(load_preset(name))
