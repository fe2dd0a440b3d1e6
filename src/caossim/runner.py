"""Scenario execution: synth -> encode -> channel -> decode -> metrics.

A TDMA run is processed in blocks, in slot order, on the calling thread.
A block is a slice of one of ``encoder.schedule_runs``' runs of slots that
drive the same carriers and holds at most BLOCK_BYTES of slot rows (or of
carrier coefficients, where a run forms no rows), so long acquisitions never
hold every stream in memory.  It is encoded as one array
(``encoder.encode_block``) and read by one fold and one batched real
FFT along its rows (``decoder.decode_block``), whose estimates go straight
into the image.  Between them every frame, a TDMA block or a chunk of a
CDMA band as a one-row block, passes one step (``_impair``): ``add_terms``
adds the block's noise in place, each row its own slot's terms, then one
``quantize`` reads the block.  A CDMA band is one slot, read in chunks of
whole bits of at most BLOCK_BYTES: each chunk holds its bits' levels
(``encoder.cdma_levels``), takes its slices of the band's terms and the
mains tone at its own samples, and leaves its per-bit means
(``decoder.bit_means``) for the band's one Walsh transform
(``decoder.decode_bit_means``).  The ADC acts sample by sample and a batched
FFT gives each row the bits of its own transform, so a run is the
slot-by-slot pipeline encode_slot -> add_noise -> quantize ->
decode_slot_free (encode_cdma -> add_noise -> quantize -> decode_cdma) bit
for bit, wherever the block and chunk boundaries fall.  A slot is read from its carrier
bins, which depend on the Q-sample stream only through its average over
windows of L = ``repeat_period`` samples, one period of every carrier on
whole bins.  So unless the ADC needs the raw samples, a row holds one
period and the average of each noise term (``SampledSignal.windows`` =
Q / L), else the raw Q-sample stream (``_row_length``); the encoder tiles
a block to that length.  ``spectra.csv`` needs the raw stream only on a
channel with an AWGN, pink or mains term: without them a slot repeats
every L samples, so its Q-point spectrum is its period's, times Q / L, at
every (Q / L)-th bin and zero between.  A carrier off the bin grid has no
period, so its rows hold Q samples, unless the run has nothing to read but
its pixels (no ADC, spectra or noise): then it forms no slot stream.  The
readout is linear, so a block's carrier coefficients are its carriers'
unit responses, read once per process, weighted by its pixel irradiances
(``_superposed``).  Each run loop consumes one ``channel.slot_terms``
iterator, a block's rows at a time, in slot order (a CDMA band is one
slot).  Only the noise draw runs ahead: the iterator's small thread pool
draws the next few slots' terms while the current block is processed.
The counter-based noise keying makes the result independent of
processing order and of that pool, and all output files are written with
stable formatting, so a rerun of the same scenario is byte-identical.
"""

from __future__ import annotations

import functools
import math
import os
import warnings
from contextlib import closing
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from . import fileio, metrics
# names marked "traced" are not called here; perfbench/tracing.py wraps them
from .channel import DRAW_CHUNK, add_terms, mains_mean, quantize, slot_terms
from .channel import add_noise  # traced
from .decoder import (
    DecodedImage,
    assemble_image,  # traced
    bit_means,
    block_coefficients,
    block_estimates,
    decode_bit_means,
    decode_block,
    decode_cdma,  # traced
    decode_slot,  # traced
    decode_slot_free,  # traced
    fft_radix2,  # traced
)
from .encoder import (
    CdmaConfig,
    WalshAssignment,
    cdma_levels,
    encode_block,
    encode_cdma,  # traced
    encode_slot,  # traced
    schedule_runs,
)
from .freq_plan import (
    FrequencyPlan,
    MainsGuardWarning,
    ValidationReport,
    design_plan,  # traced
    plan_from_frequencies,  # traced
    validate_plan,
)
from .scenario import Scenario, ScenarioError, TargetSpec
from .scene_optics import (
    CaosGrid,
    OpticsConfig,
    Scene,
    SpectralAnchor,
    angular_dispersion,
    check_lens_constraints,
    grating_beta,
    hdr_patch_masks,
    make_hdr_patch_target,
    make_spectral_line_scene,
    spectral_width_per_column,
)
from .waveform import SampledSignal, SamplingWindow, repeat_period

__all__ = ["PlanRejectedError", "StripeReport", "RunReport", "run"]

OUTDIR_ENV = "CAOSSIM_OUTDIR"
FULL_SCALE_HEADROOM = 1.25
# the most bytes of a TDMA block's slot rows or a CDMA chunk's samples: one noise chunk's 256 KiB
BLOCK_BYTES = 8 * DRAW_CHUNK


class PlanRejectedError(ScenarioError):
    """Strict-mode abort: the carrier set failed validation."""

    def __init__(self, report: ValidationReport):
        super().__init__("frequency plan failed validation:\n" + report.summary())
        self.report = report


@dataclass(frozen=True)
class StripeReport:
    center_nm: float
    bandwidth_nm: float
    row: int
    col_first: int
    col_last: int


@dataclass(eq=False)
class RunReport:
    scenario: Scenario
    outdir: Path | None = None
    scenes: list[Scene] = field(default_factory=list)
    images: list[DecodedImage] = field(default_factory=list)
    patch: metrics.PatchReport | None = None
    stripes: list[StripeReport] = field(default_factory=list)
    validation: ValidationReport | None = None
    encoding_time_s: float | None = None
    speedup_vs_single_channel: float | None = None
    clip_count: int = 0
    spectra: np.ndarray | None = None
    metrics_text: str = ""

    @property
    def scene(self) -> Scene:
        return self.scenes[0]

    @property
    def image(self) -> DecodedImage:
        return self.images[0]


def resolve_outdir(scenario: Scenario, outdir: str | Path | None) -> Path | None:
    if outdir is not None:
        return Path(outdir)
    env = os.environ.get(OUTDIR_ENV)
    if env:
        return Path(env)
    if scenario.output_dir is not None:
        return Path(scenario.output_dir)
    return None


def build_scene(target: TargetSpec, grid: CaosGrid) -> Scene:
    if target.kind == "uniform":
        return Scene(np.full((grid.rows, grid.cols), target.level))
    if target.kind == "explicit":
        return Scene(target.values)
    if target.kind == "hdr-patches":
        return make_hdr_patch_target(
            grid,
            target.attenuations_db,
            target.layout,
            target.patch_radius,
            target.background,
        )
    if target.kind == "image-file":
        path = Path(target.path)
        read = fileio.read_pgm16 if path.suffix == ".pgm" else fileio.read_matrix_csv
        try:
            scene = Scene(read(path))
        except ValueError as exc:  # a file that cannot be opened stays an OSError
            raise ScenarioError(
                f"'target.path' {target.path} is not a usable image: {exc}"
            ) from exc
        if scene.shape != (grid.rows, grid.cols):
            raise ScenarioError(
                f"'target.path' {target.path} holds a {scene.shape[0]}x{scene.shape[1]}"
                f" image, but the grid is {grid.rows}x{grid.cols}"
            )
        return scene
    raise ScenarioError(f"target kind {target.kind!r} has no direct scene form")


def _stream_peak(flat: np.ndarray, blocks) -> float:
    """Noiseless peak over slots: carriers share phase, so the first sample
    of a slot is the sum of its pixel irradiances, added in carrier order."""
    peak = 0.0
    for _, _, pixels in blocks:
        amps = flat[pixels]
        first = amps[:, 0].copy()
        for j in range(1, amps.shape[1]):
            first += amps[:, j]
        peak = max(peak, first.max())
    return peak


def _attach_patch_report(run: RunReport, grid: CaosGrid) -> None:
    target = run.scenario.target
    masks = hdr_patch_masks(
        grid, target.layout, len(target.attenuations_db), target.patch_radius
    )
    irradiance = run.scene.irradiance
    designed = [irradiance[mask][0] for mask in masks]  # each patch's one designed level
    run.patch = metrics.patch_report(run.image.estimates, masks, designed, irradiance == 0.0)


def _row_length(scenario: Scenario, plan: FrequencyPlan) -> int | None:
    """The samples a slot row holds: Q when the ADC needs the raw window, or
    ``spectra.csv`` does on a channel that varies in time; else ``repeat_period``, one
    period of every carrier, over which the readout reads the same bins and whose
    spectrum is every (Q / period)-th bin of the slot's.  Off the bin grid a row holds
    Q samples, or None when the run has nothing to read but its pixels (no ADC, spectra
    or noise): such a slot is superposed (``_superposed``) and forms no row."""
    noise = scenario.noise_config()
    if scenario.adc_enabled or (scenario.write_spectra and not noise.is_time_invariant):
        return plan.Q
    period = repeat_period(plan.channels, plan.window())
    if period is None and noise.is_silent and not scenario.write_spectra:
        return None
    return period or plan.Q


@functools.lru_cache(maxsize=64)
def _unit_responses(freqs: tuple[float, ...], window: SamplingWindow) -> np.ndarray:
    """Read-only; row p: the coefficients at the bins of ``freqs`` of carrier p's
    unit carrier over the window, encoded one row at a time.  Built
    once per (carriers, window) and process, as ``encoder._carrier_mask``."""
    unit = Scene([[1.0]])
    responses = np.array([
        block_coefficients(encode_block(unit, [[0]], [f], window), window.fs, freqs)[0]
        for f in freqs
    ])
    responses.flags.writeable = False
    return responses


def _superposed(amps: np.ndarray, freqs: tuple[float, ...], window: SamplingWindow) -> np.ndarray:
    """The carrier coefficients of a block of superposed slots (``_row_length`` None),
    formed without their streams: a silent channel adds nothing to them.

    The carrier-bin readout is linear, so row s's coefficients are
    sum_p a_sp R_p over its pixels' irradiances a_sp (``amps``, S x k) and
    their carriers' unit responses R_p (``_unit_responses``, cached per
    process), summed over carriers in turn.  They equal the slot-by-slot
    readout of encode_slot to rounding.
    """
    unit = _unit_responses(freqs, window)
    coeffs = amps[:, :1] * unit[0]
    for p in range(1, len(freqs)):
        coeffs += amps[:, p : p + 1] * unit[p]
    return coeffs


def _impair(
    rows: np.ndarray, terms, noise_cfg, adc_cfg, fs: float, windows: int = 1, tone=None
) -> tuple[np.ndarray, int]:
    """Noise, then the ADC, for a block of frames: ``add_terms`` adds row s's
    stochastic ``terms`` in place, with the mains ``tone`` (``channel.mains_mean``) of
    the rows' samples (a silent channel takes no terms from the iterable and adds
    nothing), then one ``quantize`` reads the block.  Returns it and its clips."""
    if not noise_cfg.is_silent:
        add_terms(rows, terms, noise_cfg, tone)
    stream, clipped = quantize(SampledSignal(rows.ravel(), fs, windows), adc_cfg)
    return stream.samples.reshape(rows.shape), clipped


def _run_tdma(scenario: Scenario, grid: CaosGrid, scene: Scene) -> RunReport:
    plan = scenario.plan.build()
    noise_cfg = scenario.noise_config()
    # a mains tone on a carrier's bin adds to its reading
    mains_hz = noise_cfg.mains_freq if noise_cfg.mains_amplitude else None
    report = validate_plan(plan.channels, plan.delta_f, plan.fs, mains_hz=mains_hz)
    if report.below_mains_guard:
        warnings.warn(report.mains_guard_note(), MainsGuardWarning, stacklevel=3)
    # a passing audit implies every carrier check of synth_square and decode_slot
    if not report.passed and not scenario.permissive:
        raise PlanRejectedError(report)
    _warn_if_rectified(scenario)

    window = plan.window()
    # a row holds `period` samples, the average of `windows` windows of them; a superposed
    # slot (None) holds its carrier coefficients instead
    period = _row_length(scenario, plan)
    windows = window.Q // (period or window.Q)
    rows = max(1, BLOCK_BYTES // (8 * period if period else 16 * plan.num_channels))
    blocks = [(first + s, freqs, pixels[s : s + rows])
              for first, freqs, pixels in schedule_runs(grid.num_pixels, plan)
              for s in range(0, len(pixels), rows)]
    flat = scene.irradiance.ravel()
    adc_cfg = scenario.adc_config(
        auto_full_scale=FULL_SCALE_HEADROOM * max(_stream_peak(flat, blocks), 1e-12)
    )

    nslots = math.ceil(grid.num_pixels / plan.num_channels)
    est, chan = np.empty(grid.num_pixels), np.empty(grid.num_pixels)
    slot_of = np.empty(grid.num_pixels, dtype=np.intp)
    spectra = np.zeros((window.Q // 2 + 1, nslots)) if scenario.write_spectra else None
    clip_total = 0
    # every block's rows hold the same samples of their slots, so one tone serves them all
    tone = mains_mean(noise_cfg, window.fs, period, windows)
    with closing(slot_terms(noise_cfg, window.Q, window.fs, period, range(nslots))) as noise:
        for first, freqs, pixels in blocks:
            slots = range(first, first + len(pixels))
            if period is None:
                est[pixels] = block_estimates(_superposed(flat[pixels], freqs, window), freqs,
                                              window.Q, window.fs)
            else:
                block = encode_block(scene, pixels, freqs, window, period)
                block, clipped = _impair(block, islice(noise, len(block)), noise_cfg, adc_cfg,
                                         window.fs, windows, tone)
                clip_total += clipped
                if spectra is not None:
                    # a repeating slot: its period's spectrum x windows, every windows-th bin
                    spectra[::windows, slots.start : slots.stop] = (
                        np.abs(np.fft.rfft(block, axis=-1)).T * windows)
                est[pixels] = decode_block(block, window.fs, freqs)
            chan[pixels] = freqs
            slot_of[pixels] = np.array(slots)[:, None]

    shape = (grid.rows, grid.cols)
    image = DecodedImage(est.reshape(shape), scenario.mode, slot_of.reshape(shape),
                         chan.reshape(shape))

    t_this = metrics.encoding_time(grid.num_pixels, plan.num_channels, plan.T)
    t_single = metrics.encoding_time(grid.num_pixels, 1, plan.T)
    run_report = RunReport(
        scenario=scenario,
        scenes=[scene],
        images=[image],
        validation=report,
        encoding_time_s=t_this,
        speedup_vs_single_channel=metrics.speedup(t_single, t_this),
        clip_count=clip_total,
        spectra=spectra,
    )
    if scenario.target.kind == "hdr-patches":
        _attach_patch_report(run_report, grid)
    run_report.metrics_text = _tdma_metrics_text(run_report, plan, adc_cfg)
    return run_report


def _spectral_line_scenes(
    scenario: Scenario, grid: CaosGrid
) -> list[tuple[tuple[float, float] | None, Scene]]:
    target = scenario.target
    config = OpticsConfig()
    anchors = [SpectralAnchor(w, c) for w, c in scenario.anchors]
    out = []
    for (center, bw), row in zip(target.bands, target.band_rows):
        scene = make_spectral_line_scene(
            grid, row, center, bw, config, anchors, target.source_temp_k
        )
        out.append(((center, bw), scene))
    return out


def _run_cdma(scenario: Scenario, grid: CaosGrid) -> RunReport:
    spec = scenario.cdma
    cfg = CdmaConfig(bit_rate=spec.bit_rate, samples_per_bit=spec.samples_per_bit)
    assignment = WalshAssignment.sequential(grid.num_pixels, spec.code_length)
    noise_cfg = scenario.noise_config()

    if scenario.target.kind == "spectral-line":
        band_scenes = _spectral_line_scenes(scenario, grid)
    else:
        band_scenes = [(None, build_scene(scenario.target, grid))]

    run_report = RunReport(scenario=scenario)
    _warn_if_rectified(scenario)
    spb = spec.samples_per_bit
    q = spec.code_length * spb
    # a band's frame is read in chunks of whole bits, each at most BLOCK_BYTES of samples
    bits = max(1, BLOCK_BYTES // (8 * spb))
    with closing(slot_terms(noise_cfg, q, cfg.fs, q, range(len(band_scenes)))) as noise:
        for band, scene in band_scenes:
            levels = cdma_levels(scene, assignment)
            peak = max(float(levels.max()), 1e-12)
            adc_cfg = scenario.adc_config(auto_full_scale=FULL_SCALE_HEADROOM * peak)
            # band i's frame is noise slot i; each chunk is a one-row block, with the
            # samples of those terms it covers
            terms = [] if noise_cfg.is_silent else next(noise)
            means = np.empty(spec.code_length)
            for first in range(0, spec.code_length, bits):
                chunk = slice(first, first + bits)
                frame = np.repeat(levels[chunk], spb)
                start = first * spb
                (frame,), clipped = _impair(
                    frame[None], [[t[start : start + len(frame)] for t in terms]],
                    noise_cfg, adc_cfg, cfg.fs,
                    tone=mains_mean(noise_cfg, cfg.fs, len(frame), start=start))
                run_report.clip_count += clipped
                means[chunk] = bit_means(frame, spb)
            image = decode_bit_means(means, assignment, grid)
            run_report.scenes.append(scene)
            run_report.images.append(image)
            if band is not None:
                run_report.stripes.append(_extract_stripe(image, band))

    run_report.encoding_time_s = spec.code_length / spec.bit_rate
    if scenario.target.kind == "hdr-patches":
        _attach_patch_report(run_report, grid)
    run_report.metrics_text = _cdma_metrics_text(run_report)
    return run_report


def _extract_stripe(image: DecodedImage, band: tuple[float, float]) -> StripeReport:
    est = image.estimates
    peak = float(est.max())
    mask = est > max(peak * 1e-6, 1e-12)
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size:
        row = int(rows[np.argmax([est[r][mask[r]].sum() for r in rows])])
        cols = np.flatnonzero(mask[row])
        return StripeReport(band[0], band[1], row, int(cols[0]), int(cols[-1]))
    return StripeReport(band[0], band[1], -1, -1, -1)


def _recovered_dr_line(run_report: RunReport) -> list[str]:
    designed = run_report.scene.irradiance.ravel()
    rec = run_report.image.estimates.ravel()[designed > 0]
    if rec.size < 2 or rec.min() <= 0:
        return []
    dr = metrics.dynamic_range_db(float(rec.max()), float(rec.min()))
    return [f"recovered dynamic range: {dr:.4f} dB"]


def _rounding_floor(run_report: RunReport) -> float:
    """1e-12 of the largest deterministic term a slot can hold: the scene peak, the dark
    offset or the mains amplitude.  A recovered value below it is only the rounding of those
    terms, whose digits follow the order in which the readout summed them."""
    noise = run_report.scenario.noise
    peak = float(run_report.scene.irradiance.max())
    return 1e-12 * max(peak, noise.dark_offset, noise.mains_amplitude)


def _pixel_table(run_report: RunReport) -> list[str]:
    designed = run_report.scene.irradiance.ravel()
    img = run_report.image
    rec = img.estimates.ravel()
    if rec.size > 64:
        return []
    rec = np.where(np.abs(rec) < _rounding_floor(run_report), 0.0, rec)
    lines = [f"{'pixel':>6} {'slot':>5} {'channel':>10} {'designed':>13} {'recovered':>13}"]
    for i in range(rec.size):
        lines.append(
            f"{i:>6} {img.slot_map.ravel()[i]:>5} {img.channel_map.ravel()[i]:>10.6g} "
            f"{designed[i]:>13.6g} {rec[i]:>13.6g}"
        )
    return lines


def _tdma_metrics_text(run_report: RunReport, plan: FrequencyPlan, adc_cfg) -> str:
    s = run_report.scenario
    lines = [
        f"mode: {s.mode}",
        f"grid: {s.rows} x {s.cols} ({s.rows * s.cols} pixels)",
        f"window: T={plan.T:g} s, fs={plan.fs:g} Sps, Q={plan.Q}, delta_f={plan.delta_f:g} Hz",
        "channels (Hz): " + ", ".join(f"{f:g}" for f in plan.channels),
        f"slots: {math.ceil(s.rows * s.cols / plan.num_channels)}",
        f"plan validation: {'pass' if run_report.validation.passed else 'FAIL (permissive run)'}",
    ]
    if not run_report.validation.passed:
        lines.append(run_report.validation.summary())
    lines += metrics.processing_gain_notes(plan.Q)
    lines.append(f"encoding time: {run_report.encoding_time_s:g} s")
    lines.append(
        f"single-channel reference: {metrics.encoding_time(s.rows * s.cols, 1, plan.T):g} s,"
        f" speedup {run_report.speedup_vs_single_channel:.4g}x"
    )
    if adc_cfg.enabled:
        lines.append(
            f"adc: {adc_cfg.bits}-bit, full_scale={float(adc_cfg.full_scale)!r},"
            f" clipped {run_report.clip_count} samples"
        )
    else:
        lines.append("adc: disabled")
    lines += _recovered_dr_line(run_report)
    lines += _pixel_table(run_report)
    if run_report.patch is not None:
        lines.append("patch report:")
        lines.append(run_report.patch.format_table())
    return "\n".join(lines) + "\n"


def _cdma_metrics_text(run_report: RunReport) -> str:
    s = run_report.scenario
    spec = s.cdma
    lines = [
        "mode: cdma",
        f"grid: {s.rows} x {s.cols} ({s.rows * s.cols} pixels)",
        f"walsh code length: {spec.code_length} bits at {spec.bit_rate:g} bit/s"
        f" ({spec.samples_per_bit} samples/bit, fs={spec.bit_rate * spec.samples_per_bit:g} Sps)",
        f"encoding time: {run_report.encoding_time_s:g} s per frame",
    ]
    for st in run_report.stripes:
        lines.append(
            f"band {st.center_nm:g} nm (bw {st.bandwidth_nm:g} nm): row {st.row},"
            f" columns {st.col_first}..{st.col_last}"
        )
    if run_report.patch is not None:
        lines.append("patch report:")
        lines.append(run_report.patch.format_table())
    return "\n".join(lines) + "\n"


def run_optics_check(scenario: Scenario) -> RunReport:
    config = OpticsConfig()
    anchors = [SpectralAnchor(w, c) for w, c in scenario.anchors]
    lo, hi = scenario.span_nm
    disp = angular_dispersion(750.0, config)
    width = spectral_width_per_column(lo, hi, scenario.n_columns)
    violations = check_lens_constraints(config)
    lines = [
        "optics check",
        f"grating: {config.grating_freq:g} lines/mm at {config.incidence_deg:g} deg"
        f" incidence, order {config.diffraction_order}",
        f"beta(750 nm): {grating_beta(750.0, config):.6f} rad",
        f"angular dispersion at 750 nm: {disp:.4f} nm/mrad",
        "anchors: " + ", ".join(f"{a.wavelength:g} nm -> column {a.column:g}" for a in anchors),
        f"mean spectral width per column over {lo:g}-{hi:g} nm across "
        f"{scenario.n_columns} columns: {width:.4f} nm",
        f"lens constraints (CF1={config.cyl_focal_1:g}, CF2={config.cyl_focal_2:g},"
        f" CF3={config.cyl_focal_3:g} cm): "
        + ("pass" if not violations else "; ".join(violations)),
    ]
    report = RunReport(scenario=scenario)
    report.metrics_text = "\n".join(lines) + "\n"
    return report


def _warn_if_rectified(scenario: Scenario) -> None:
    """Warn when the ADC, which clamps at 0, would cut the negative swings of the
    stochastic noise in dark stretches: a dark offset below 4 sigma."""
    noise = scenario.noise
    sigma = math.hypot(noise.awgn_sigma, noise.pink_sigma)
    if scenario.adc_enabled and sigma > 0 and noise.dark_offset < 4 * sigma:
        warnings.warn(
            f"noise.dark_offset {noise.dark_offset!r} is below 4 sigma = {4 * sigma!r} of the"
            " stochastic noise: the ADC clips its negative swings to 0 and biases dim pixels low",
            stacklevel=4,
        )


def run(scenario: Scenario, outdir: str | Path | None = None) -> RunReport:
    """Execute a scenario and write its artifact files if an output
    directory is configured (argument, CAOSSIM_OUTDIR, or scenario)."""
    if scenario.mode == "optics-check":
        report = run_optics_check(scenario)
    else:
        grid = scenario.grid
        if scenario.mode == "cdma":
            report = _run_cdma(scenario, grid)
        else:
            scene = build_scene(scenario.target, grid)
            report = _run_tdma(scenario, grid, scene)

    report.outdir = resolve_outdir(scenario, outdir)
    if report.outdir is not None:
        _write_outputs(report)
    return report


def _write_outputs(run_report: RunReport) -> None:
    out = run_report.outdir
    out.mkdir(parents=True, exist_ok=True)
    (out / "resolved_config.json").write_text(
        run_report.scenario.to_json(), encoding="utf-8"
    )
    (out / "metrics.txt").write_text(run_report.metrics_text, encoding="utf-8")
    multi = len(run_report.images) > 1
    for i, (scene, image) in enumerate(zip(run_report.scenes, run_report.images)):
        tag = f"_{i}" if multi else ""
        fileio.write_matrix_csv(out / f"scene{tag}.csv", scene.irradiance)
        fileio.write_matrix_csv(out / f"decoded{tag}.csv", image.estimates)
        display = np.clip(image.estimates, 0.0, None)
        fileio.write_pgm16(out / f"decoded{tag}.pgm", display)
        if run_report.scenario.log_display:
            fileio.write_pgm16(
                out / f"decoded{tag}_log.pgm", fileio.log_display(display)
            )
    if run_report.spectra is not None:
        fileio.write_columns_csv(out / "spectra.csv", run_report.spectra)
    if run_report.patch is not None:
        run_report.patch.write_csv(out / "patch_report.csv")
