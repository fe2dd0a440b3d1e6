"""Pipeline properties over small random scenarios, through ``run``.

``run`` encodes, impairs and reads a TDMA run's slots in blocks of slots
that share their carriers, and a CDMA run's bands one frame at a time; it
must give the bits of the slot-by-slot pipeline of the one-row library calls
(``oracles.slot_by_slot``), wherever the block boundaries fall.  Every such
bit-for-bit check is a case of ``BLOCK_CASES``, which
``test_block_run_is_the_slot_by_slot_pipeline_bit_for_bit`` runs: 200 built at import
from one seeded ``random.Random``, then the listed ``BLOCK_EXAMPLES``.  Each case runs at
a draw-ahead pool width of 1, 2 or 5, and the chain draws inline, so the same check shows
that the pool changes no bit.  What each kind of run encodes, draws, quantizes and reads
is one row of ``ROUTES``, a silent channel's too (it takes no terms), whose rules every
preset obeys at its own size.
With the ADC off and no spectra, a strict TDMA run reads each slot from its
average over one carrier period; ``write_spectra`` makes the same scenario
read the raw Q-sample slot when its channel varies in time (an AWGN, pink
or mains term).  On a time-invariant channel a slot repeats every period,
so spectra too are read from one period.  A permissive run on a passing plan
is routed as the strict run; one with a carrier off the bin grid reads its
raw Q-sample slots, unless it has nothing to read but its pixels (no ADC,
spectra or noise): then it forms no slot stream and sums unit carrier
responses.  These properties
also hold the averaged readout to the raw one, and to itself across modes.
A scenario's resolved config, here and for
every preset, parses back to the same scenario, so to the same run.  In every
mode the noiseless decode is linear in the scene and one lit pixel leaks
into no other, and a dark scene's estimates sit on the Rayleigh noise floor
of their AWGN.
"""

import json
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caossim.channel
import caossim.runner
from caossim.decoder import assemble_image, decode_slot_free
from caossim.encoder import encode_slot, schedule_fdma_tdma
from caossim.metrics import noise_equivalent_irradiance
from caossim.runner import PlanRejectedError, run
from caossim.scenario import load_preset, preset_names, scenario_from_dict
from caossim.waveform import fold_bin, whole_number
from oracles import ALL_NOISE_TDMA, Route, assert_slot_by_slot, recording, reduced

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
    if scenario.mode == "cdma":
        return False
    plan = scenario.plan.build()
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


@PROPERTY
@given(tdma_docs())
def test_averaged_readout_matches_the_raw_readout(doc):
    if _rejected_for_mains(scenario_from_dict(doc)):
        return
    averaged = run(scenario_from_dict(doc))
    raw = run(scenario_from_dict(dict(doc, write_spectra=True)))
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
def test_noiseless_averaged_readout_is_the_raw_readout_bit_for_bit(doc):
    # the average of an L-periodic slot is its first period exactly, and the
    # readout's 1/L against 1/Q is a power of two
    scenario = scenario_from_dict(dict(doc, noise={}))
    averaged = run(scenario).image.estimates
    plan = scenario.plan.build()
    scene = caossim.runner.build_scene(scenario.target, scenario.grid)
    schedule = schedule_fdma_tdma(scenario.grid.num_pixels, plan)
    raw = [decode_slot_free(encode_slot(scene, slot, plan.window()), slot)
           for slot in schedule.slots]
    image = assemble_image(raw, schedule, scenario.grid, scenario.mode)
    assert averaged.tobytes() == image.estimates.tobytes()


def _explicit(rng, cols) -> dict:
    """The grid and target of 1-3 rows of ``cols`` pixels, each dark or lit, as ``levels``."""
    rows = rng.randint(1, 3)
    values = [[rng.choice([0.0, rng.uniform(1e-3, 1.0)]) for _ in range(cols)]
              for _ in range(rows)]
    return {"grid": {"rows": rows, "cols": cols}, "target": {"kind": "explicit", "values": values}}


def _block_noise(rng) -> dict:
    """Any of the terms of ``noises``, the mains tone on or off a whole Hz; or a channel whose
    slots repeat every carrier period, with at most a dark offset."""
    def sigma():
        return rng.choice([0.0, rng.uniform(1e-4, 0.05)])

    dark = rng.choice([0.0, rng.uniform(1e-3, 0.2)])
    if rng.random() < 0.5:
        return {"dark_offset": dark}
    return {"awgn_sigma": sigma(), "pink_sigma": sigma(), "pink_exponent": rng.uniform(0.0, 2.0),
            "dark_offset": dark, "mains_amplitude": sigma(),
            "mains_freq": rng.choice([float(rng.randint(1, 200)), rng.uniform(1.0, 200.0)]),
            "mains_phase": rng.uniform(0.0, 2 * math.pi)}


def _block_adc(rng) -> dict:
    return rng.choice([{"enabled": False}, {"enabled": True, "bits": rng.randint(4, 12)}])


def _cdma_frames(rng) -> dict:
    """The grid, target and code of a cdma scenario: one explicit frame, or 1-3 spectral-line
    bands on one row of 52 pixels, each band a frame of its own."""
    cdma = {"code_length": 64, "samples_per_bit": rng.randint(1, 4)}
    if rng.random() < 0.5:
        return dict(_explicit(rng, rng.randint(1, 5)), cdma=dict(cdma, code_length=16))
    bands = [[rng.uniform(420.0, 700.0), rng.uniform(15.0, 40.0)]
             for _ in range(rng.randint(1, 3))]
    return {"grid": {"rows": 1, "cols": 52}, "cdma": cdma,
            "target": {"kind": "spectral-line", "bands": bands, "row_step": 0}}


def _bins(rng, kind, P, p) -> list:
    """P distinct carrier bins of a permissive plan, drawn from one grid: on a power-of-two
    bin (whole periods), on another whole bin or between bins.  A superposed plan's first
    carrier is between bins, so its slots never repeat in the window."""
    def on():
        return float(rng.choice([2 ** rng.randint(0, p - 2), rng.randint(1, 2**p // 2)]))

    def off():
        return rng.randint(1, 2**p // 2 - 1) + rng.uniform(0.01, 0.99)

    grid = rng.choice([[off], [on, off]] if kind == "superposed" else [[on, off], [off], [on]])
    bins = [off()] if kind == "superposed" else []
    while len(bins) < P:
        if (b := rng.choice(grid)()) not in bins:
            bins.append(b)
    return bins


def _block_case(rng, cdma: bool) -> tuple:
    """A scenario for the block path, its draw-ahead width and block size: 1-3 rows (bits of
    a cdma band) or the default.  The tdma cases are fdma-tdma on up to 11 carriers, Q = 2**p
    <= 2**12, on up to 3 x 11 pixels: strict on a designed ladder, permissive on explicit
    carriers (``_bins``), or superposed: permissive with a carrier between bins, a silent
    channel and neither the ADC nor spectra, which reads no slot stream.  The others draw the
    ADC (tdma: and spectra) and a channel with any of its terms or only a dark offset."""
    seed, width, block_rows = rng.randrange(2**63), rng.choice([1, 2]), rng.choice([None, 1, 2, 3])
    if cdma:
        return dict(_cdma_frames(rng), mode="cdma", noise=_block_noise(rng),
                    adc=_block_adc(rng), seed=seed), width, block_rows
    kind = rng.choice(["strict", "superposed", "permissive"])
    P = rng.choice([1, 2, 3, 4, 9, 10, 11])
    p, T = rng.randint(max(4, P + 1), 12), rng.choice([0.25, 1.0])
    plan = ({"T": T, "p": p, "m": rng.randint(1, p - P), "P": P} if kind == "strict" else
            {"T": T, "p": p, "frequencies": [b / T for b in _bins(rng, kind, P, p)]})
    superposed = kind == "superposed"
    doc = dict(_explicit(rng, rng.randint(1, 11)), mode="fdma-tdma", plan=plan,
               noise={} if superposed else _block_noise(rng),
               adc={"enabled": False} if superposed else _block_adc(rng),
               write_spectra=not superposed and rng.random() < 0.5,
               permissive=kind != "strict", seed=seed)
    return doc, width, block_rows


def _block_cases() -> list:
    """The block property's 200 generated cases, one in four cdma.  Stdlib ``random`` makes
    the same list on every Python and numpy."""
    rng = random.Random(0)
    return [_block_case(rng, cdma=i % 4 == 3) for i in range(200)]


def _row_bytes(scenario) -> int:
    """The bytes of one row of a block: a slot's row or carrier coefficients, or a CDMA bit."""
    if scenario.mode == "cdma":
        return 8 * scenario.cdma.samples_per_bit
    plan = scenario.plan.build()
    period = caossim.runner._row_length(scenario, plan)
    return 8 * period if period else 16 * plan.num_channels


def _block_run(scenario, width, block_rows):
    """run(scenario) with ``width`` draw-ahead workers and, unless None, ``block_rows`` slots
    per block (bits per chunk of a CDMA band)."""
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        # an ADC below 4 sigma of its dark offset; any other warning fails the case
        warnings.filterwarnings("ignore", message="noise.dark_offset", category=UserWarning)
        mp.setattr(caossim.channel, "_draw_workers", lambda: width)
        if block_rows is not None:
            mp.setattr(caossim.runner, "BLOCK_BYTES", block_rows * _row_bytes(scenario))
        return run(scenario)


# 10 pixels on carriers at 64..512 Hz, Q = 4096: a block of two full slots and a block of a
# short slot, each slot repeating every L = 4096 / 64 samples
LADDER = {
    "mode": "fdma-tdma", "grid": {"rows": 2, "cols": 5},
    "target": {"kind": "uniform", "level": 0.5},
    "plan": {"T": 1.0, "p": 12, "m": 7, "P": 4},
    "noise": {"awgn_sigma": 0.01, "dark_offset": 0.05, "mains_amplitude": 0.01},
}

# a 10-bit ADC whose full scale lies below a full slot's peak, 2.0 plus a 0.2 dark offset, so
# the first sample of each full slot clips
CLIPPING = dict(LADDER, noise=dict(LADDER["noise"], dark_offset=0.2),
                adc={"enabled": True, "bits": 10, "full_scale": 2.1})

# spectral-line's 7 bands under every noise term, with a 10-bit ADC that clips
NOISY_BANDS = dict(load_preset("spectral-line").to_dict(), adc={"enabled": True, "bits": 10},
                   noise={"awgn_sigma": 0.01, "pink_sigma": 0.004, "mains_amplitude": 0.003,
                          "dark_offset": 0.01})

# a CDMA frame's auto full scale under AWGN far above its dark offset, 0
CDMA_AUTO_SCALE = {
    "mode": "cdma", "grid": {"rows": 2, "cols": 3},
    "target": {"kind": "explicit", "values": [[1.0, 0.5, 0.25], [0.8, 0.0, 0.1]]},
    "cdma": {"code_length": 8, "samples_per_bit": 4},
    "noise": {"awgn_sigma": 0.05},
    "adc": {"enabled": True, "bits": 8},
    "seed": 1,
}

# a CDMA frame of 256 bits of 300 samples under every noise term, with a 10-bit ADC and a dark
# offset above 4 sigma: at the default size it is read in chunks of 109, 109 and 38 bits, each
# with its slices of the band's terms and the mains tone at its own samples
CHUNKED_FRAME = dict(CDMA_AUTO_SCALE, cdma={"code_length": 256, "samples_per_bit": 300},
                     noise={"awgn_sigma": 0.01, "pink_sigma": 0.004, "mains_amplitude": 0.003,
                            "dark_offset": 0.1}, adc={"enabled": True, "bits": 10}, seed=2)

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

# a permissive, superposed run whose short last slot has another gcd of Q and its bins: a full
# slot on 64 and 96.25 Hz (nearest bins 64 and 96, gcd 32) and a short one on 64 Hz, bin 64
# (gcd 64), whose unit carrier is synthesised over its 16-sample period
SHORT_SLOT_OTHER_GCD = {
    "mode": "fdma-tdma", "grid": {"rows": 1, "cols": 3},
    "target": {"kind": "explicit", "values": [[1.0, 0.5, 0.25]]},
    "plan": {"T": 1.0, "p": 10, "frequencies": [64.0, 96.25]},
    "permissive": True,
}

# LADDER's plan with its top carrier off the bin grid, between bins 512 and 513: the slots no
# longer repeat inside the window, which only a permissive run lets through
OFF_GRID_LADDER = dict(LADDER, plan={"T": 1.0, "p": 12, "frequencies": [64.0, 128.0, 256.0,
                                                                          512.5]},
                       permissive=True)


# hdr66-fdma's 150 pixels, 8 a slot, under AWGN and CI's 50.3 Hz mains tone, off the 1 Hz bin
# grid: 19 slots each read as the mean of its 2^16 samples over a 1024-sample period, which in
# blocks of 4 slots are 5 blocks that add the one tone the run builds
HDR66_MAINS = reduced("hdr66-fdma", mains_amplitude=0.003, mains_freq=50.3)

# the block property's listed cases, which follow its generated ones: the rare paths, the
# hdr66 presets and the all-noise runs at one, two and five draw-ahead workers (five is more
# than MAX_DRAW_WORKERS), and a silent preset cut into blocks of 10 slots
BLOCK_EXAMPLES = {
    "ladder, spectra": (dict(LADDER, write_spectra=True), 1, None),
    "ladder, spectra, permissive": (dict(LADDER, write_spectra=True, permissive=True), 2, None),
    "ladder, permissive": (dict(LADDER, permissive=True), 1, None),
    "off-grid ladder, silent": (dict(OFF_GRID_LADDER, noise={}), 1, 1),
    "off-grid ladder": (OFF_GRID_LADDER, 2, 1),
    "clipping": (CLIPPING, 2, None),
    "clipping, off the grid": (dict(CLIPPING, plan=OFF_GRID_LADDER["plan"], permissive=True),
                               1, None),
    "noisy bands, one worker": (NOISY_BANDS, 1, None),
    "noisy bands": (NOISY_BANDS, 2, None),
    "noisy bands, five workers": (NOISY_BANDS, 5, None),
    "all noise, adc, spectra, one worker": (ALL_NOISE_TDMA, 1, None),
    "all noise, adc, spectra, two workers": (ALL_NOISE_TDMA, 2, None),
    "all noise, adc, spectra, five workers": (ALL_NOISE_TDMA, 5, None),
    "silent, adc, spectra": (dict(LADDER, noise={}, adc={"enabled": True, "bits": 12},
                                  write_spectra=True), 2, None),
    "fig9-valid, silent, blocks of 10 slots": (load_preset("fig9-valid").to_dict(), 1, 10),
    **{f"{name} 10x15, {workers} worker{'s' if width > 1 else ''}": (reduced(name), width, None)
       for name in ("hdr66-fm", "hdr66-fdma")
       for width, workers in ((1, "one"), (2, "two"), (5, "five"))},
    "hdr66-fdma 10x15 under mains, two workers, blocks of 4 slots": (HDR66_MAINS, 2, 4),
    "cdma auto scale": (CDMA_AUTO_SCALE, 1, None),
    "chunked frame": (CHUNKED_FRAME, 2, None),
    "off-grid even bins": (OFF_GRID_EVEN_BINS, 1, None),
    "noiseless spectra": (NOISELESS_SPECTRA, 1, 2),
    "dark spectra": (dict(NOISELESS_SPECTRA, noise={"dark_offset": 0.05}), 2, 2),
    "mains on a carrier": (MAINS_ON_A_CARRIER, 1, None),
    "mains on a carrier, permissive": (
        dict(MAINS_ON_A_CARRIER, plan={"T": 1.0, "p": 10, "frequencies": [128.0]},
             permissive=True), 2, None),
    "short slot, other gcd": (SHORT_SLOT_OTHER_GCD, 2, None),
}

# the listed cases whose ADC clips, so that the property compares a clip count above 0
CLIPS = {"clipping", *(name for name in BLOCK_EXAMPLES
                       if name.startswith(("noisy bands", "all noise")))}

# every case of the block property by its id: the generated ones, then the listed ones
BLOCK_CASES = {**{f"{i:03d} {doc['mode']}{', permissive' if doc.get('permissive') else ''}, "
                  f"width {width}, block {rows}": (doc, width, rows)
                  for i, (doc, width, rows) in enumerate(_block_cases())},
               **BLOCK_EXAMPLES}


@pytest.mark.parametrize("name", BLOCK_CASES)
def test_block_run_is_the_slot_by_slot_pipeline_bit_for_bit(name):
    doc, width, block_rows = BLOCK_CASES[name]
    scenario = scenario_from_dict(doc)
    if _rejected_for_mains(scenario):
        return
    report = _block_run(scenario, width, block_rows)
    # a permissive run records the audit's finding instead
    assert ("noise.mains_freq" in report.metrics_text) == _mains_on_a_carrier(scenario)
    assert_slot_by_slot(report, scenario)
    assert report.clip_count > 0 or name not in CLIPS


def _reached(doc, width, block_rows) -> set:
    """The cases of test_block_cases_reach_every_case that one block case reaches."""
    sc = scenario_from_dict(doc)
    noise = sc.noise_config()
    if sc.mode == "cdma":
        slots = len(sc.target.bands) if sc.target.kind == "spectral-line" else 1
        bits = block_rows or caossim.runner.BLOCK_BYTES // _row_bytes(sc)
        cases = {"cdma": True, "cdma, adc": sc.adc_enabled, "cdma, two or more bands": slots > 1,
                 "cdma, two or more chunks": sc.cdma.code_length > bits,
                 "cdma, noise in chunks": sc.cdma.code_length > bits and not noise.is_silent}
    else:
        plan = sc.plan.build()
        schedule = schedule_fdma_tdma(sc.grid.num_pixels, plan).slots
        slots = len(schedule)
        period = caossim.runner._row_length(sc, plan)
        stream = period is not None
        averaged = stream and period < plan.Q
        whole = [whole_number(f / plan.delta_f) is not None for f in plan.channels]
        first, last = ([plan.bins[plan.channels.index(f)] for _, f in slot]
                       for slot in (schedule[0], schedule[-1]))
        superposed = {
            "off the bin grid": not any(whole),
            "short last slot, other gcd": math.gcd(plan.Q, *first) != math.gcd(plan.Q, *last),
        }
        cases = {
            "strict": not sc.permissive,
            "permissive, stream": sc.permissive and stream,
            # a passing or failing plan on whole bins, read from one period as a strict run
            "permissive, on the bin grid": sc.permissive and all(whole) and averaged,
            # the raw slots of a noisy channel off the bin grid, neither ADC nor spectra
            "permissive, noisy, off the bin grid": (
                not all(whole) and not noise.is_silent
                and not (sc.adc_enabled or sc.write_spectra)),
            "averaged": averaged,
            "spectra": sc.write_spectra,
            # strict, ADC off, and a channel without a time-varying term
            "time-invariant spectra": sc.write_spectra and averaged,
            "adc": sc.adc_enabled,
            "short last slot": len(schedule[-1]) < plan.num_channels and slots > 1,
            # numpy sums 8 or more terms pairwise: the slot peak (ADC) and the superposition
            # add their carriers in turn
            "more than 8 carriers, adc": plan.num_channels > 8 and sc.adc_enabled,
            "more than 8 carriers, superposed": plan.num_channels > 8 and not stream,
            **{f"permissive, superposed, {case}": hit and not stream
               for case, hit in superposed.items()},
            "block boundary mid-schedule": block_rows is not None and slots > block_rows,
            # slot_terms draws ahead only with two or more slots and a stochastic term
            "averaged noisy run on the pool": (
                averaged and width > 1 and slots > 1
                and (noise.awgn_sigma > 0 or noise.pink_enabled)),
        }
    cases.update({
        "noise": noise.awgn_sigma > 0 or noise.pink_enabled,
        "silent": noise.is_silent,
        "one worker": width == 1,
        "two workers": width == 2,
        "five workers": width == 5,
    })
    return {case for case, hit in cases.items() if hit}


def test_block_cases_are_one_seeded_table_of_valid_scenarios():
    generated = _block_cases()
    assert generated == _block_cases() == list(BLOCK_CASES.values())[:200]
    for doc, _, _ in generated:
        scenario_from_dict(doc)
    assert sum(doc["mode"] == "cdma" for doc, _, _ in generated) == 50


def test_block_cases_reach_every_case():
    reached = set().union(*(_reached(*case) for case in BLOCK_CASES.values()))
    superposed = {f"permissive, superposed, {case}" for case in (
        "off the bin grid", "short last slot, other gcd")}
    assert reached == {
        "strict", "permissive, stream", "permissive, on the bin grid",
        "permissive, noisy, off the bin grid", "averaged", "spectra",
        "time-invariant spectra", "adc", "short last slot", "more than 8 carriers, adc",
        "more than 8 carriers, superposed", *superposed, "cdma", "cdma, adc",
        "cdma, two or more bands", "cdma, two or more chunks", "cdma, noise in chunks", "noise",
        "silent", "one worker", "two workers", "five workers", "block boundary mid-schedule",
        "averaged noisy run on the pool"}


ADC12 = {"enabled": True, "bits": 12}
# two spectral-line bands on one row of 52 pixels: two 128-sample frames, two noise slots
BANDS = {
    "mode": "cdma", "grid": {"rows": 1, "cols": 52},
    "target": {"kind": "spectral-line", "bands": [[600.0, 40.0], [450.0, 20.0]], "row_step": 0},
    "cdma": {"code_length": 64, "samples_per_bit": 2},
    "noise": LADDER["noise"],
}
AVERAGED, RAW = [(2, 64, 64), (1, 64, 64)], [(2, 4096, 64), (1, 4096, 64)]
READ_AVERAGED, READ_RAW = [(2, 64), (1, 64)], [(2, 4096), (1, 4096)]
DRAWN_AVERAGED, DRAWN_RAW = (4096, 64, range(3)), (4096, 4096, range(3))

# How each kind of run is routed through the library (``oracles.recording``).  Per case: the
# scenario; what it encodes, (rows, row length, synthesised period) per call, or a CDMA band's
# L bit levels; what it reads, (rows, row length) per call, or a band's L bit means; the
# slot_terms iterator it draws from, (q, period, slots), or None; the samples of each quantize
# call, one per block or per chunk of a band; and its longest FFT, which on these carriers is Q
# only where spectra need the raw slot.  The block property checks the bits of each case.
ROUTES = {
    "strict averaged": (LADDER, AVERAGED, READ_AVERAGED, DRAWN_AVERAGED, [128, 64], 64),
    # a strict slot is synthesised over one carrier period and tiled to its Q raw samples
    "adc on": (dict(LADDER, adc=ADC12), RAW, READ_RAW, DRAWN_RAW, [8192, 4096], 64),
    "noisy spectra": (dict(LADDER, write_spectra=True), RAW, READ_RAW, DRAWN_RAW,
                      [8192, 4096], 4096),
    "time-invariant spectra": (dict(LADDER, write_spectra=True, noise={"dark_offset": 0.05}),
                               AVERAGED, READ_AVERAGED, DRAWN_AVERAGED, [128, 64], 64),
    # no slot is encoded, drawn or read: one unit carrier per carrier of each of the two
    # carrier sets, each bin-exact one synthesised over its own period
    "permissive, superposed": (dict(OFF_GRID_LADDER, noise={}),
                               [(1, 4096, 64), (1, 4096, 32), (1, 4096, 16), (1, 4096, 4096),
                                (1, 4096, 64), (1, 4096, 32)], [], None, [], 64),
    # the full slots sample 512.5 Hz over the whole window; the short slot's 64 and 128 Hz
    # repeat every 64 samples
    "permissive, adc": (dict(OFF_GRID_LADDER, adc=ADC12), [(2, 4096, 4096), (1, 4096, 64)],
                        READ_RAW, DRAWN_RAW, [8192, 4096], 64),
    "silent": (dict(LADDER, noise={}), AVERAGED, READ_AVERAGED, None, [128, 64], 64),
    # raw rows for the ADC and spectra, and still no terms taken
    # one carrier at 64 Hz: LADDER's 10 pixels are 10 one-pixel slots in one block
    "fm-tdma": (dict(LADDER, mode="fm-tdma", plan={"T": 1.0, "p": 12, "m": 7, "P": 1}),
                [(10, 64, 64)], [(10, 64)], (4096, 64, range(10)), [640], 64),
    "silent, adc, spectra": (BLOCK_EXAMPLES["silent, adc, spectra"][0], RAW, READ_RAW, None,
                             [8192, 4096], 4096),
    # fig9-valid's 576 pixels, 7 a slot: 82 full slots of one 512-sample period, 64 to a
    # 256 KiB block, then a block of the short slot
    "silent, full blocks": (load_preset("fig9-valid").to_dict(),
                            [(64, 512, 512), (18, 512, 512), (1, 512, 512)],
                            [(64, 512), (18, 512), (1, 512)], None, [32768, 9216, 512], 512),
    # an explicit frame is one band of 8 bits of 4 samples
    "cdma frame, silent": (dict(CDMA_AUTO_SCALE, noise={}), [(1, 8, 8)], [(1, 8)], None, [32],
                           None),
    "cdma band": (BANDS, [(1, 64, 64)] * 2, [(1, 64)] * 2, (128, 128, range(2)),
                  [128, 128], None),
    "cdma band, silent": (dict(BANDS, noise={}), [(1, 64, 64)] * 2, [(1, 64)] * 2, None,
                          [128, 128], None),
    # 1024 bits of 40 samples: each band is quantized in a chunk of the 819 whole bits that fit
    # in 256 KiB, then one of the other 205, but drawn whole and read once
    "cdma band in chunks": (dict(BANDS, cdma={"code_length": 1024, "samples_per_bit": 40}),
                            [(1, 1024, 1024)] * 2, [(1, 1024)] * 2, (40960, 40960, range(2)),
                            [32760, 8200] * 2, None),
}
# the flag only lets a failing plan run: on LADDER's passing plan it changes no call
ROUTES["permissive, passing plan"] = (dict(LADDER, permissive=True),
                                      *ROUTES["strict averaged"][1:])
# a noisy channel off the bin grid: its slots' raw rows are encoded, drawn and read as with
# the ADC on
ROUTES["permissive, noisy, off the grid"] = (OFF_GRID_LADDER, *ROUTES["permissive, adc"][1:])


@pytest.mark.parametrize("name", ROUTES)
def test_each_kind_of_run_is_routed_as_its_table_row(name):
    doc, encoded, decoded, drawn, quantized, longest = ROUTES[name]
    with recording() as route:
        run(scenario_from_dict(doc))
    assert route.encoded == encoded
    assert route.decoded == decoded
    # each slot's terms are taken once from one iterator; a silent channel takes none
    assert route.drawn == ([] if drawn is None else [drawn] * len(drawn[2]))
    assert [len(stream) for stream in route.quantized] == quantized
    assert max(route.transforms, default=None) == longest


@pytest.mark.parametrize("name", preset_names())
def test_every_preset_is_routed_by_the_rules_of_the_table(name):
    # the table's rules at a preset's size: each slot (each CDMA band) is read once from rows
    # of one length (a band's bit means), its noise terms taken once from one iterator, no
    # transform is longer than a row the run reads, and no quantize call holds more than
    # BLOCK_BYTES of samples unless one row (one bit) does
    scenario = load_preset(name)
    with recording() as route:
        report = run(scenario)
    if scenario.mode == "optics-check":
        assert route == Route()
        return
    slots = len(report.images) if scenario.mode == "cdma" else int(report.image.slot_map.max()) + 1
    if scenario.mode != "cdma" and caossim.runner._row_length(
            scenario, scenario.plan.build()) is None:
        # superposed: unit carriers, one row each, and no slot stream to read
        assert {rows for rows, _, _ in route.encoded} == {1}
        assert route.decoded == []
        assert max(route.transforms) <= max(length for _, length, _ in route.encoded)
        return
    (length,) = {length for _, length in route.decoded}
    # a band holds each bit's level for samples_per_bit samples
    held = scenario.cdma.samples_per_bit if scenario.mode == "cdma" else 1
    assert sum(rows for rows, _ in route.decoded) == slots
    assert sum(len(stream) for stream in route.quantized) == slots * length * held
    assert max(len(stream) for stream in route.quantized) <= max(
        caossim.runner.BLOCK_BYTES // 8, held if scenario.mode == "cdma" else length)
    assert max(route.transforms, default=0) <= length
    if scenario.noise_config().is_silent:
        assert route.drawn == []
    else:
        q = route.drawn[0][0]
        assert route.drawn == [(q, length * held, range(slots))] * slots


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


def _parses_back_to_the_same_scenario(scenario) -> None:
    """The resolved config, as a dict and as JSON text, parses back to the same scenario and
    text; ``run`` is a pure function of the scenario (CI reruns each resolved config)."""
    text = scenario.to_json()
    for resolved in (scenario.to_dict(), json.loads(text)):
        again = scenario_from_dict(resolved)
        assert again == scenario
        assert again.to_json() == text


@PROPERTY
@given(tdma_docs())
def test_resolved_config_parses_back_to_the_same_scenario(doc):
    _parses_back_to_the_same_scenario(scenario_from_dict(doc))


@pytest.mark.parametrize("name", preset_names())
def test_preset_resolved_config_parses_back_to_the_same_scenario(name):
    _parses_back_to_the_same_scenario(load_preset(name))


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
        fs = report.scenario.plan.build().fs
        nei = np.vectorize(lambda f: noise_equivalent_irradiance(sigma, 2**p, fs / f))(
            report.image.channel_map)
        power.extend(((report.image.estimates / nei) ** 2).ravel())
    assert len(power) >= 2000
    assert np.mean(power) == pytest.approx(2.0, rel=0.1)
