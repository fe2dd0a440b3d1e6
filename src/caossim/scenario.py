"""Scenario files: a JSON description of one simulated acquisition.

A scenario pins everything a run needs (mode, grid, target, carrier plan
or code parameters, noise, ADC, seed), so repeated runs are byte-identical
and every experiment ships as a small version-controlled preset.  Parsing
resolves all defaults; a resolved scenario serializes back to the same
document it parses from, and an input key that the resolved document does
not contain (a misspelling, or a setting the mode or target kind ignores)
is rejected.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any

from .channel import AdcConfig, NoiseConfig

__all__ = [
    "ScenarioError",
    "PlanSpec",
    "TargetSpec",
    "CdmaSpec",
    "Scenario",
    "load_scenario",
    "preset_names",
    "load_preset",
]

MODES = ("cdma", "fm-tdma", "fdma-tdma", "optics-check")
TARGET_KINDS = ("uniform", "explicit", "hdr-patches", "spectral-line", "image-file")

DEFAULT_ANCHORS = ((732.0, 0.0), (399.0, 51.0))
# the abstract-style short-end anchor; both calibrations are exposed
ALT_ANCHORS = ((732.0, 0.0), (412.0, 51.0))


class ScenarioError(ValueError):
    """Scenario file fails validation."""


@dataclass(frozen=True)
class PlanSpec:
    """Carrier plan: a designed ladder (T, p, m, P) or explicit frequencies."""

    T: float
    p: int
    m: int | None = None
    P: int | None = None
    frequencies: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ScenarioError(f"plan T must be a finite positive duration, got {self.T}")
        if self.p < 1:
            raise ScenarioError(f"plan p must be >= 1, got {self.p}")
        if self.frequencies:
            if self.m is not None or self.P is not None:
                raise ScenarioError("give either (m, P) or frequencies, not both")
        elif self.m is None or self.P is None:
            raise ScenarioError("plan needs (m, P) or an explicit frequency list")

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {"T": self.T, "p": self.p}
        if self.frequencies:
            d["frequencies"] = list(self.frequencies)
        else:
            d["m"] = self.m
            d["P"] = self.P
        return d


@dataclass(frozen=True)
class TargetSpec:
    kind: str
    level: float = 1.0
    values: tuple[tuple[float, ...], ...] = ()
    attenuations_db: tuple[float, ...] = ()
    layout: tuple[int, int] = (1, 1)
    patch_radius: float = 2.0
    background: float = 0.0
    bands: tuple[tuple[float, float], ...] = ()
    start_row: int = 0
    row_step: int = 1
    source_temp_k: float = 2850.0
    path: str = ""

    def __post_init__(self) -> None:
        if self.kind not in TARGET_KINDS:
            raise ScenarioError(f"unknown target kind {self.kind!r}")

    def to_dict(self) -> dict[str, Any]:
        if self.kind == "uniform":
            return {"kind": self.kind, "level": self.level}
        if self.kind == "explicit":
            return {"kind": self.kind, "values": [list(r) for r in self.values]}
        if self.kind == "hdr-patches":
            return {
                "kind": self.kind,
                "attenuations_db": list(self.attenuations_db),
                "layout": list(self.layout),
                "patch_radius": self.patch_radius,
                "background": self.background,
            }
        if self.kind == "spectral-line":
            return {
                "kind": self.kind,
                "bands": [list(b) for b in self.bands],
                "start_row": self.start_row,
                "row_step": self.row_step,
                "source_temp_k": self.source_temp_k,
            }
        return {"kind": self.kind, "path": self.path}


@dataclass(frozen=True)
class CdmaSpec:
    code_length: int
    bit_rate: float = 1000.0
    samples_per_bit: int = 100

    def to_dict(self) -> dict[str, Any]:
        return {
            "code_length": self.code_length,
            "bit_rate": self.bit_rate,
            "samples_per_bit": self.samples_per_bit,
        }


@dataclass(frozen=True)
class Scenario:
    mode: str
    rows: int = 1
    cols: int = 1
    pixel_mirrors: int = 19
    mirror_pitch_um: float = 13.68
    target: TargetSpec | None = None
    plan: PlanSpec | None = None
    cdma: CdmaSpec | None = None
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    adc_enabled: bool = False
    adc_bits: int = 16
    adc_full_scale: float | None = None  # None = 1.25 x noiseless stream peak
    seed: int = 0
    permissive: bool = False
    write_spectra: bool = False
    log_display: bool = False
    intermode_scale: float = 1.0
    output_dir: str | None = None
    # optics-check settings
    anchors: tuple[tuple[float, float], ...] = DEFAULT_ANCHORS
    span_nm: tuple[float, float] = (412.0, 732.0)
    n_columns: int = 52

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ScenarioError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.mode == "optics-check":
            return
        if self.rows < 1 or self.cols < 1:
            raise ScenarioError("grid must be at least 1x1")
        if self.target is None:
            raise ScenarioError("simulation scenarios need a target")
        if self.mode == "cdma":
            if self.cdma is None:
                raise ScenarioError("cdma mode needs a cdma section")
            if self.cdma.code_length < self.rows * self.cols + 1:
                raise ScenarioError(
                    "code_length must be at least the pixel count plus one"
                )
        else:
            if self.plan is None:
                raise ScenarioError(f"{self.mode} mode needs a plan section")
            if self.mode == "fm-tdma":
                n = len(self.plan.frequencies) if self.plan.frequencies else self.plan.P
                if n != 1:
                    raise ScenarioError("fm-tdma uses exactly one carrier")
        if self.target.kind == "spectral-line" and self.mode != "cdma":
            raise ScenarioError("the spectral-line target runs in cdma mode")

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "mode": self.mode,
            "seed": self.seed,
            "permissive": self.permissive,
            "write_spectra": self.write_spectra,
            "log_display": self.log_display,
            "intermode_scale": self.intermode_scale,
            "output_dir": self.output_dir,
        }
        if self.mode == "optics-check":
            d["anchors"] = [list(a) for a in self.anchors]
            d["span_nm"] = list(self.span_nm)
            d["n_columns"] = self.n_columns
            return d
        d["grid"] = {
            "rows": self.rows,
            "cols": self.cols,
            "pixel_mirrors": self.pixel_mirrors,
            "mirror_pitch_um": self.mirror_pitch_um,
        }
        d["target"] = self.target.to_dict()
        if self.target.kind == "spectral-line":
            d["anchors"] = [list(a) for a in self.anchors]
        if self.plan is not None:
            d["plan"] = self.plan.to_dict()
        if self.cdma is not None:
            d["cdma"] = self.cdma.to_dict()
        n = self.noise
        d["noise"] = {
            "awgn_sigma": n.awgn_sigma,
            "mains_amplitude": n.mains_amplitude,
            "mains_freq": n.mains_freq,
            "mains_phase": n.mains_phase,
            "pink_enabled": n.pink_enabled,
            "pink_exponent": n.pink_exponent,
            "pink_sigma": n.pink_sigma,
            "dark_offset": n.dark_offset,
        }
        d["adc"] = {
            "enabled": self.adc_enabled,
            "bits": self.adc_bits,
            "full_scale": self.adc_full_scale,
        }
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def noise_config(self) -> NoiseConfig:
        n = self.noise
        return NoiseConfig(
            awgn_sigma=n.awgn_sigma,
            mains_amplitude=n.mains_amplitude,
            mains_freq=n.mains_freq,
            mains_phase=n.mains_phase,
            pink_enabled=n.pink_enabled,
            pink_exponent=n.pink_exponent,
            pink_sigma=n.pink_sigma,
            dark_offset=n.dark_offset,
            seed=self.seed,
        )

    def adc_config(self, auto_full_scale: float) -> AdcConfig:
        fs = self.adc_full_scale if self.adc_full_scale is not None else auto_full_scale
        return AdcConfig(bits=self.adc_bits, full_scale=fs, enabled=self.adc_enabled)


def _parse_target(d: dict[str, Any]) -> TargetSpec:
    kind = d.get("kind")
    if kind == "uniform":
        return TargetSpec(kind=kind, level=float(d.get("level", 1.0)))
    if kind == "explicit":
        values = tuple(tuple(float(v) for v in row) for row in d["values"])
        return TargetSpec(kind=kind, values=values)
    if kind == "hdr-patches":
        return TargetSpec(
            kind=kind,
            attenuations_db=tuple(float(a) for a in d["attenuations_db"]),
            layout=tuple(int(v) for v in d.get("layout", (1, len(d["attenuations_db"])))),
            patch_radius=float(d.get("patch_radius", 2.0)),
            background=float(d.get("background", 0.0)),
        )
    if kind == "spectral-line":
        return TargetSpec(
            kind=kind,
            bands=tuple((float(c), float(b)) for c, b in d["bands"]),
            start_row=int(d.get("start_row", 0)),
            row_step=int(d.get("row_step", 1)),
            source_temp_k=float(d.get("source_temp_k", 2850.0)),
        )
    if kind == "image-file":
        return TargetSpec(kind=kind, path=str(d["path"]))
    raise ScenarioError(f"unknown target kind {kind!r}")


def scenario_from_dict(d: dict[str, Any]) -> Scenario:
    try:
        mode = d["mode"]
        grid = d.get("grid", {})
        plan_d = d.get("plan")
        plan = None
        if plan_d is not None:
            plan = PlanSpec(
                T=float(plan_d["T"]),
                p=int(plan_d["p"]),
                m=int(plan_d["m"]) if "m" in plan_d else None,
                P=int(plan_d["P"]) if "P" in plan_d else None,
                frequencies=tuple(float(f) for f in plan_d.get("frequencies", ())),
            )
        cdma_d = d.get("cdma")
        cdma = None
        if cdma_d is not None:
            cdma = CdmaSpec(
                code_length=int(cdma_d["code_length"]),
                bit_rate=float(cdma_d.get("bit_rate", 1000.0)),
                samples_per_bit=int(cdma_d.get("samples_per_bit", 100)),
            )
        noise_d = d.get("noise", {})
        noise = NoiseConfig(
            awgn_sigma=float(noise_d.get("awgn_sigma", 0.0)),
            mains_amplitude=float(noise_d.get("mains_amplitude", 0.0)),
            mains_freq=float(noise_d.get("mains_freq", 50.0)),
            mains_phase=float(noise_d.get("mains_phase", 0.0)),
            pink_enabled=bool(noise_d.get("pink_enabled", False)),
            pink_exponent=float(noise_d.get("pink_exponent", 1.0)),
            pink_sigma=float(noise_d.get("pink_sigma", 0.0)),
            dark_offset=float(noise_d.get("dark_offset", 0.0)),
        )
        adc_d = d.get("adc", {})
        full_scale = adc_d.get("full_scale")
        scenario = Scenario(
            mode=mode,
            rows=int(grid.get("rows", 1)),
            cols=int(grid.get("cols", 1)),
            pixel_mirrors=int(grid.get("pixel_mirrors", 19)),
            mirror_pitch_um=float(grid.get("mirror_pitch_um", 13.68)),
            target=_parse_target(d["target"]) if "target" in d else None,
            plan=plan,
            cdma=cdma,
            noise=noise,
            adc_enabled=bool(adc_d.get("enabled", False)),
            adc_bits=int(adc_d.get("bits", 16)),
            adc_full_scale=None if full_scale is None else float(full_scale),
            seed=int(d.get("seed", 0)),
            permissive=bool(d.get("permissive", False)),
            write_spectra=bool(d.get("write_spectra", False)),
            log_display=bool(d.get("log_display", False)),
            intermode_scale=float(d.get("intermode_scale", 1.0)),
            output_dir=d.get("output_dir"),
            anchors=tuple(
                (float(w), float(c)) for w, c in d.get("anchors", DEFAULT_ANCHORS)
            ),
            span_nm=tuple(float(v) for v in d.get("span_nm", (412.0, 732.0))),
            n_columns=int(d.get("n_columns", 52)),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioError):
            raise
        raise ScenarioError(f"malformed scenario: {exc}") from exc
    _reject_unknown_keys(d, scenario.to_dict())
    return scenario


def _reject_unknown_keys(
    given: dict[str, Any], resolved: dict[str, Any], path: str = ""
) -> None:
    """Fail on any key of the input that the resolved scenario does not serialize."""
    for key, value in given.items():
        where = path + key
        if key not in resolved:
            raise ScenarioError(f"unknown or unused scenario key {where!r}")
        if isinstance(value, dict) and isinstance(resolved[key], dict):
            _reject_unknown_keys(value, resolved[key], where + ".")


def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


def preset_names() -> list[str]:
    files = resources.files("caossim").joinpath("presets")
    return sorted(p.name[: -len(".json")] for p in files.iterdir() if p.name.endswith(".json"))


def load_preset(name: str) -> Scenario:
    ref = resources.files("caossim").joinpath("presets", f"{name}.json")
    if not ref.is_file():
        raise ScenarioError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    return scenario_from_dict(json.loads(ref.read_text(encoding="utf-8")))
