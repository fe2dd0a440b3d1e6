"""Correctness gates and exact-repeat signatures for one preset run.

Every timed iteration is checked here; an iteration that fails any check
counts as failed.  The gates hold for every seed:

* noisy TDMA (hdr66-*): every pixel within NOISE_SCALES noise scales of its
  designed irradiance, a scale being sigma / (a1(N) sqrt(2 Q)), the standard
  deviation of a carrier-bin magnitude estimate under AWGN;
* noiseless presets: within NOISELESS_TOL of the designed peak;
* fig9-invalid: the plan audit flags exactly EXPECTED_FLAGS;
* spectral-line: each band lands on its commanded row and mapped columns;
* artifacts: the expected files exist and decoded.csv reads back exactly.

The acceptance-7 bounds (DR 66 +- 1.5 dB, min SNR > 1) are deliberately not
gates: they hold at the preset seed 6 but not at every seed (see README.md).

Where a stored reference applies (the preset's own seed, or any seed for a
noiseless preset, whose output the seed cannot change), the decoded images
must also agree with it to REFERENCE_TOL of the image peak.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from caossim.scene_optics import OpticsConfig, SpectralAnchor, wavelength_to_column

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
NOISE_SCALES = 7.0
NOISELESS_TOL = 1e-9
REFERENCE_TOL = 1e-12
EXPECTED_FLAGS = {"fig9-invalid": (0, 1, 2, 4)}


def load_reference() -> dict:
    meta = json.loads((REFERENCE_DIR / "meta.json").read_text(encoding="utf-8"))
    with np.load(REFERENCE_DIR / "decoded.npz") as arrays:
        meta["images"] = {k: arrays[k] for k in arrays.files}
    return meta


def _a1(n: np.ndarray) -> np.ndarray:
    """Fundamental coefficient of a unit 50%-duty square wave, N samples/period."""
    return 1.0 / (n * np.sin(np.pi / n))


def _window(scenario) -> tuple[int, float]:
    q = 2**scenario.plan.p
    return q, q / scenario.plan.T


def samples_per_run(scenario) -> int:
    """Detector samples one run of the scenario simulates."""
    if scenario.mode == "optics-check":
        return 0
    npix = scenario.rows * scenario.cols
    if scenario.mode == "cdma":
        frames = len(scenario.target.bands) if scenario.target.kind == "spectral-line" else 1
        return frames * scenario.cdma.code_length * scenario.cdma.samples_per_bit
    plan = scenario.plan
    channels = len(plan.frequencies) if plan.frequencies else plan.P
    return math.ceil(npix / channels) * _window(scenario)[0]


def _peak_error(got: np.ndarray, want: np.ndarray) -> float:
    peak = float(np.max(np.abs(want)))
    return float(np.max(np.abs(got - want))) / (peak if peak > 0 else 1.0)


def _check_awgn(scenario, report, errors: list[str]) -> None:
    noise = scenario.noise
    if noise.mains_amplitude or noise.dark_offset or noise.pink_enabled:
        errors.append("no accuracy gate for non-AWGN noise")
        return
    if scenario.mode == "cdma":
        errors.append("no accuracy gate for noisy CDMA")
        return
    q, fs = _window(scenario)
    image = report.image
    scale = noise.awgn_sigma / (_a1(fs / image.channel_map) * math.sqrt(2.0 * q))
    worst = float(np.max(np.abs(image.estimates - report.scene.irradiance) / scale))
    if not worst <= NOISE_SCALES:
        errors.append(f"worst pixel {worst:.3f} noise scales from design (> {NOISE_SCALES})")
    if report.patch is None:
        errors.append("patch report missing")


def _check_stripes(scenario, report, errors: list[str]) -> None:
    target = scenario.target
    config = OpticsConfig()
    anchors = [SpectralAnchor(w, c) for w, c in scenario.anchors]
    if len(report.stripes) != len(target.bands):
        errors.append(f"{len(report.stripes)} stripes for {len(target.bands)} bands")
        return
    for i, (stripe, (center, bw)) in enumerate(zip(report.stripes, target.bands)):
        lo = wavelength_to_column(center + bw / 2.0, config, anchors)
        hi = wavelength_to_column(center - bw / 2.0, config, anchors)
        want = (
            target.start_row + i * target.row_step,
            max(0, math.ceil(min(lo, hi))),
            min(scenario.cols - 1, math.floor(max(lo, hi))),
        )
        got = (stripe.row, stripe.col_first, stripe.col_last)
        if got != want:
            errors.append(f"band {center:g} nm: stripe {got}, expected {want}")


def _check_spectra(scenario, report, errors: list[str]) -> None:
    """Carrier bins of the written spectrum must decode to the estimates."""
    q, fs = _window(scenario)
    image = report.image
    spectra = report.spectra
    if spectra is None or spectra.shape[0] != q // 2 + 1:
        errors.append("spectrum missing or wrong length")
        return
    freqs = image.channel_map.ravel()
    bins = np.rint(freqs * scenario.plan.T).astype(np.intp)
    from_spectrum = spectra[bins, image.slot_map.ravel()] / (q * _a1(fs / freqs))
    err = _peak_error(from_spectrum, image.estimates.ravel())
    if not err <= NOISELESS_TOL:
        errors.append(f"spectrum carrier bins disagree with estimates by {err:.3g} of peak")


def _expected_files(scenario, report) -> set[str]:
    names = {"resolved_config.json", "metrics.txt"}
    multi = len(report.images) > 1
    for i in range(len(report.images)):
        tag = f"_{i}" if multi else ""
        names |= {f"scene{tag}.csv", f"decoded{tag}.csv", f"decoded{tag}.pgm"}
        if scenario.log_display:
            names.add(f"decoded{tag}_log.pgm")
    if report.spectra is not None:
        names.add("spectra.csv")
    if report.patch is not None:
        names.add("patch_report.csv")
    return names


def _check_files(scenario, report, outdir: Path, errors: list[str]) -> None:
    present = {p.name for p in outdir.iterdir()} if outdir.is_dir() else set()
    want = _expected_files(scenario, report)
    if present != want:
        errors.append(f"artifacts {sorted(present ^ want)} missing or unexpected")
        return
    multi = len(report.images) > 1
    for i, image in enumerate(report.images):
        path = outdir / f"decoded{'_' + str(i) if multi else ''}.csv"
        rows = [
            [float(v) for v in line.split(",")]
            for line in path.read_text(encoding="ascii").splitlines()
            if line
        ]
        if not np.array_equal(np.array(rows), image.estimates):
            errors.append(f"{path.name} does not read back to the estimates")


def check(name: str, scenario, report, reference: dict, outdir: Path | None) -> list[str]:
    """All gates for one preset run; returns the failures (empty = correct)."""
    errors: list[str] = []
    ref_applies = scenario.seed == reference["seeds"][name] or scenario.noise_config().is_silent
    if scenario.mode == "optics-check":
        if report.metrics_text != reference["optics_text"][name]:
            errors.append("optics report differs from the reference")
    else:
        if not report.images or not all(np.all(np.isfinite(im.estimates)) for im in report.images):
            errors.append("missing or non-finite estimates")
            return errors
        if scenario.permissive:
            flags = report.validation.flagged_indices()
            if name not in EXPECTED_FLAGS or flags != EXPECTED_FLAGS[name]:
                errors.append(f"plan audit flagged {flags}")
        else:
            if report.validation is not None and not report.validation.passed:
                errors.append("plan audit failed on a strict run")
            if scenario.noise_config().is_silent:
                for scene, image in zip(report.scenes, report.images):
                    err = _peak_error(image.estimates, scene.irradiance)
                    if not err <= NOISELESS_TOL:
                        errors.append(f"noiseless error {err:.3g} of peak")
            else:
                _check_awgn(scenario, report, errors)
        if scenario.target.kind == "spectral-line":
            _check_stripes(scenario, report, errors)
        if scenario.write_spectra:
            _check_spectra(scenario, report, errors)
        if ref_applies:
            for i, image in enumerate(report.images):
                want = reference["images"][f"{name}/{i}"]
                err = _peak_error(image.estimates, want) if image.shape == want.shape else math.inf
                if not err <= REFERENCE_TOL:
                    errors.append(f"image {i} differs from the reference by {err:.3g} of peak")
    if outdir is not None:
        _check_files(scenario, report, outdir, errors)
    return errors


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def signature(report, outdir: Path | None) -> dict:
    """Everything a rerun of the same scenario must reproduce exactly."""
    files = {}
    if outdir is not None:
        files = {p.name: _sha(p.read_bytes()) for p in sorted(outdir.iterdir())}
    return {
        "clip_count": report.clip_count,
        "encoding_time_s": report.encoding_time_s,
        "speedup": report.speedup_vs_single_channel,
        "estimates": [_sha(im.estimates.tobytes()) for im in report.images],
        "spectra": None if report.spectra is None else _sha(report.spectra.tobytes()),
        "metrics_text": _sha(report.metrics_text.encode()),
        "files": files,
        "bytes_written": sum(p.stat().st_size for p in outdir.iterdir()) if outdir else 0,
    }
