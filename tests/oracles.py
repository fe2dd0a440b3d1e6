"""Reference forms the tests hold caossim to.

``full_fft_estimate`` is a formula that shares no code with caossim.
``slot_by_slot`` is the one-row library chain that a run must give bit for
bit: it calls the library's one-row functions, and none of the runner's
block path.  ``recording`` notes which library calls a run makes, so that
one table can say how each kind of run is routed.
"""

import inspect
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import caossim.runner
from caossim.channel import add_noise, quantize, slot_terms
from caossim.decoder import (
    assemble_image,
    block_coefficients,
    decode_bit_means,
    decode_block,
    decode_cdma,
    decode_slot_free,
)
from caossim.encoder import (
    CdmaConfig,
    WalshAssignment,
    cdma_levels,
    encode_block,
    encode_cdma,
    encode_slot,
    schedule_fdma_tdma,
)
from caossim.runner import FULL_SCALE_HEADROOM, build_scene
from caossim.scene_optics import Scene
from caossim.waveform import SampledSignal, SamplingWindow, fundamental_coefficient


def full_fft_estimate(stream, f):
    """|X[b]| / (Q a1(N)) for a carrier f in a Q-sample slot stream.

    X is the full Q-point FFT, b the bin nearest f, and
    a1(N) = 1/(N sin(pi/N)) the fundamental coefficient of a unit 50%-duty
    square wave with N = fs/f samples per period, so a clean unit carrier
    reads 1.
    """
    q = len(stream.samples)
    b = round(f / (stream.fs / q))
    n = stream.fs / f
    a1 = 1.0 / (n * math.sin(math.pi / n))
    return float(abs(np.fft.fft(stream.samples)[b]) / (q * a1))


def slot_by_slot(scenario):
    """The images, clip count and spectra of ``run(scenario)``, one slot at a time through
    the one-row library calls.

    TDMA: encode_slot -> add_noise -> quantize -> decode_slot_free -> assemble_image, the
    ADC's full scale FULL_SCALE_HEADROOM x the largest summed irradiance of a slot; or, on
    carriers off the bin grid with neither the ADC, spectra nor noise, the sum of the unit
    carriers' coefficients weighted by the pixels.  CDMA, band by
    band, a band being one noise slot: encode_cdma -> add_noise -> quantize at
    FULL_SCALE_HEADROOM x the band's peak -> decode_cdma.
    """
    if scenario.mode == "cdma":
        return _band_by_band(scenario)
    plan = scenario.plan.build()
    window, grid = plan.window(), scenario.grid
    scene = build_scene(scenario.target, grid)
    schedule = schedule_fdma_tdma(grid.num_pixels, plan)
    flat = scene.irradiance.ravel()
    peak = max(sum(flat[pix] for pix, _ in slot) for slot in schedule.slots)
    adc = scenario.adc_config(auto_full_scale=FULL_SCALE_HEADROOM * max(peak, 1e-12))
    noise = scenario.noise_config()
    period = caossim.runner._row_length(scenario, plan)
    superposed = period is None
    windows = window.Q // (period or window.Q)
    read_window = SamplingWindow(window.fs, window.T / windows, window.Q // windows,
                                 window.delta_f * windows)
    estimates, spectra, clipped = [], [], 0
    for i, slot in enumerate(schedule.slots):
        if superposed:
            unit, freqs, coeffs = Scene([[1.0]]), [f for _, f in slot], 0
            for pix, f in slot:
                carrier = encode_slot(unit, [(0, f)], window, strict=False).samples
                coeffs = coeffs + flat[pix] * block_coefficients(carrier[None], window.fs, freqs)[0]
            estimates.append({
                pix: abs(c) / (window.Q * fundamental_coefficient(window.fs / f))
                for (pix, f), c in zip(slot, coeffs)
            })
            continue
        stream = encode_slot(scene, slot, read_window, strict=not scenario.permissive)
        stream = SampledSignal(stream.samples, stream.fs, windows)
        stream, c = quantize(add_noise(stream, noise, i), adc)
        clipped += c
        if scenario.write_spectra:
            # a repeating slot's spectrum: its period's, times `windows`, at every windows-th bin
            spectrum = np.zeros(window.Q // 2 + 1)
            spectrum[::windows] = np.abs(np.fft.rfft(stream.samples)) * windows
            spectra.append(spectrum)
        estimates.append(decode_slot_free(stream, slot))
    image = assemble_image(estimates, schedule, grid, scenario.mode)
    return [image], clipped, np.column_stack(spectra) if spectra else None


def _band_by_band(scenario):
    spec, grid, target = scenario.cdma, scenario.grid, scenario.target
    cfg = CdmaConfig(bit_rate=spec.bit_rate, samples_per_bit=spec.samples_per_bit)
    assignment = WalshAssignment.sequential(grid.num_pixels, spec.code_length)
    if target.kind == "spectral-line":
        scenes = [scene for _, scene in caossim.runner._spectral_line_scenes(scenario, grid)]
    else:
        scenes = [build_scene(target, grid)]
    images, clipped = [], 0
    for band, scene in enumerate(scenes):
        stream = encode_cdma(scene, assignment, cfg)
        peak = max(float(stream.samples.max()), 1e-12)
        adc = scenario.adc_config(auto_full_scale=FULL_SCALE_HEADROOM * peak)
        stream, c = quantize(add_noise(stream, scenario.noise_config(), band), adc)
        clipped += c
        images.append(decode_cdma(stream, assignment, cfg, grid))
    return images, clipped, None


@dataclass
class Route:
    """What the runs inside ``recording`` handed the library, call by call."""

    # (rows, row length, synthesised period); a CDMA band's levels are (1, L, L)
    encoded: list = field(default_factory=list)
    drawn: list = field(default_factory=list)  # per slot taken: its iterator's (q, period, slots)
    quantized: list = field(default_factory=list)  # the stream each quantize call returned
    decoded: list = field(default_factory=list)  # (rows, row length); a band's L bit means
    transforms: list = field(default_factory=list)  # the length of each FFT but the noise draw's


# what one returning call of each library function adds to the Route, from its locals and
# result; encode_block's local `synth` is the window it synthesised before tiling
_SEAMS = {
    encode_block.__code__:
        lambda route, v, out: route.encoded.append((len(out), out.shape[-1], v["synth"].Q)),
    cdma_levels.__code__: lambda route, v, out: route.encoded.append((1, len(out), len(out))),
    slot_terms.__code__:
        lambda route, v, out: route.drawn.append((v["q"], v["period"], v["slots"])),
    quantize.__code__: lambda route, v, out: route.quantized.append(out[0]),
    decode_block.__code__: lambda route, v, out: route.decoded.append(v["rows"].shape),
    decode_bit_means.__code__: lambda route, v, out: route.decoded.append((1, len(v["means"]))),
}
_FFTS = {inspect.unwrap(np.fft.rfft).__code__, inspect.unwrap(np.fft.fft).__code__}


def _caller(frame) -> str:
    """The module of the first frame outside numpy that led to ``frame``."""
    frame = frame.f_back
    while frame.f_globals.get("__name__", "").startswith("numpy"):
        frame = frame.f_back
    return frame.f_globals.get("__name__", "")


@contextmanager
def recording():
    """The Route of the runs made inside the block.

    A profile hook on this thread sees each call of the functions in ``_SEAMS`` and of
    numpy's FFTs return, whatever name the runner calls them by, and replaces none of them.
    A generator's yield is such a return, so ``slot_terms`` adds one entry per slot taken.
    The pink-noise draw's own FFT (``caossim.channel``) is left out.  The unit-response
    cache is cleared first, so a permissive run encodes its unit carriers whatever ran
    before it.
    """
    route = Route()

    def hook(frame, event, arg):
        if event != "return" or arg is None:
            return
        if frame.f_code in _FFTS:
            if _caller(frame) != "caossim.channel":
                route.transforms.append(frame.f_locals["n"])
        elif frame.f_code in _SEAMS:
            _SEAMS[frame.f_code](route, frame.f_locals, arg)

    caossim.runner._unit_responses.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        yield route
    finally:
        sys.setprofile(previous)
