"""Scenario files: a JSON description of one simulated acquisition.

A scenario pins everything a run needs (mode, grid, target, carrier plan
or code parameters, noise, ADC, seed), so repeated runs are byte-identical
and every experiment ships as a small version-controlled preset.

The dataclasses are the schema: parsing and serialising walk their fields
and type hints; the tables below give only the document layout.  Parsing is
strict (bool: true/false; int: a JSON integer; float: any finite number;
tuple: a list of the right length; null only where a field may be None).
A key's range is a rule in its field's metadata, a phrase and a test, e.g.
("positive", v > 0); the parser applies it to every number the key holds,
each cell of a list included, where the key path is known.  Rules that
join keys (the carrier plan, the code length against the pixel count, the
fit of the target to the grid, the anchors and the optics span) run once
the fields are built.  The resolved document holds the keys its mode's
run reads (``MODE_KEYS``) and its target kind's (``TARGET_KEYS``); a key it
lacks (a misspelling, or a setting the run ignores) is rejected.
Errors name the dotted key path, e.g. 'grid.cols' or 'target.values[0][1]'.
A resolved scenario serialises back to the same document it parses from.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import typing
from dataclasses import MISSING, dataclass, field, fields
from importlib import resources
from pathlib import Path
from typing import Any, Iterable

from .channel import ADC_BITS, NONNEGATIVE, SEED, AdcConfig, NoiseConfig
from .freq_plan import FrequencyPlan, design_plan, plan_from_frequencies
from .scene_optics import (
    CaosGrid, OpticsConfig, SpectralAnchor, _anchor_betas, band_columns, hdr_patch_masks,
)
from .waveform import SamplingWindow

__all__ = [
    "ScenarioError", "PlanSpec", "TargetSpec", "CdmaSpec", "Scenario",
    "load_scenario", "preset_names", "load_preset",
]

DEFAULT_ANCHORS = ((732.0, 0.0), (399.0, 51.0))

# Document layout: the top-level keys each mode's run reads, a spectral-line target adding
# anchors; a simulation needs the target, plan or cdma section on its list
_SIMULATION = ("mode", "seed", "log_display", "output_dir", "grid", "adc", "target", "noise")
MODE_KEYS = {
    "cdma": (*_SIMULATION, "cdma"),
    "fm-tdma": (*_SIMULATION, "permissive", "write_spectra", "plan"),
    "fdma-tdma": (*_SIMULATION, "permissive", "write_spectra", "plan"),
    "optics-check": ("mode", "output_dir", "anchors", "span_nm", "n_columns"),
}
MODES = tuple(MODE_KEYS)
# the Scenario fields that the document nests in a section (grid.<k> is field <k>,
# adc.<k> is adc_<k>), and their (section, key); no other class has these names
SECTIONS = {"grid": ("rows", "cols"), "adc": ("adc_enabled", "adc_bits", "adc_full_scale")}
NESTED = {name: (section, name.removeprefix(section + "_"))
          for section, names in SECTIONS.items() for name in names}
# the keys each target kind reads besides "kind"; a list or path among them must be non-empty
TARGET_KEYS = {
    "uniform": ("level",),
    "explicit": ("values",),
    "hdr-patches": ("attenuations_db", "layout", "patch_radius", "background"),
    "spectral-line": ("bands", "start_row", "row_step", "source_temp_k"),
    "image-file": ("path",),
}

# Per-key rules, (phrase, test) in field metadata; _coerce applies one to every number a key
# holds.  The noise rules sit in channel; NONNEGATIVE is shared with the target, SEED with
# the scenario seed.
POSITIVE = {"rule": ("positive", lambda v: v > 0)}
COUNT = {"rule": ("at least 1", lambda v: v >= 1)}
POWER_OF_TWO = {"rule": ("a power of two >= 2", lambda v: v >= 2 and not v & (v - 1))}
ADC_RESOLUTION = {"rule": (f"in {ADC_BITS[0]}..{ADC_BITS[-1]}", lambda v: v in ADC_BITS)}


class ScenarioError(ValueError):
    """Scenario file fails validation."""


@dataclass(frozen=True)
class PlanSpec:
    """Carrier plan: a designed ladder (T, p, m, P) or explicit frequencies."""

    T: float = field(metadata=POSITIVE)
    p: int = field(metadata=COUNT)
    m: int | None = field(default=None, metadata=COUNT)
    P: int | None = field(default=None, metadata=COUNT)
    frequencies: tuple[float, ...] = field(default=(), metadata=POSITIVE)

    def __post_init__(self) -> None:
        if self.frequencies:
            if self.m is not None or self.P is not None:
                raise ScenarioError("give either (m, P) or frequencies, not both")
        elif self.m is None or self.P is None:
            raise ScenarioError("plan needs (m, P) or an explicit frequency list")

    def build(self) -> FrequencyPlan:
        """The carrier plan: the explicit frequencies, or the designed ladder."""
        if self.frequencies:
            return plan_from_frequencies(self.frequencies, self.T, self.p)
        return design_plan(self.T, self.p, self.m, self.P)

    def to_dict(self) -> dict[str, Any]:
        return _dump(self, ("T", "p", *(("frequencies",) if self.frequencies else ("m", "P"))))


@dataclass(frozen=True)
class TargetSpec:
    kind: str
    level: float = field(default=1.0, metadata=NONNEGATIVE)
    values: tuple[tuple[float, ...], ...] = field(default=(), metadata=NONNEGATIVE)
    attenuations_db: tuple[float, ...] = ()
    layout: tuple[int, int] | None = None  # None = one row holding every patch
    patch_radius: float = 2.0
    background: float = field(default=0.0, metadata=NONNEGATIVE)
    bands: tuple[tuple[float, float], ...] = field(default=(), metadata=POSITIVE)  # (centre, width)
    start_row: int = 0
    row_step: int = 1
    source_temp_k: float = field(default=2850.0, metadata=POSITIVE)
    path: str = ""

    def __post_init__(self) -> None:
        if self.kind not in TARGET_KEYS:
            raise ScenarioError(f"unknown target kind {self.kind!r}")
        if self.kind == "hdr-patches" and self.layout is None:
            object.__setattr__(self, "layout", (1, len(self.attenuations_db)))
        for key in TARGET_KEYS[self.kind]:
            if getattr(self, key) in ((), ""):
                raise ScenarioError(f"target kind {self.kind!r} needs a non-empty 'target.{key}'")

    @property
    def band_rows(self) -> tuple[int, ...]:
        """The grid row of each spectral-line band, in band order."""
        return tuple(self.start_row + i * self.row_step for i in range(len(self.bands)))

    def to_dict(self) -> dict[str, Any]:
        return _dump(self, ("kind", *TARGET_KEYS[self.kind]))


@dataclass(frozen=True)
class CdmaSpec:
    code_length: int = field(metadata=POWER_OF_TWO)
    bit_rate: float = field(default=1000.0, metadata=POSITIVE)
    samples_per_bit: int = field(default=100, metadata=COUNT)

    def to_dict(self) -> dict[str, Any]:
        return _dump(self, (f.name for f in fields(self)))


@dataclass(frozen=True)
class Scenario:
    mode: str
    rows: int = field(default=1, metadata=COUNT)
    cols: int = field(default=1, metadata=COUNT)
    target: TargetSpec | None = None
    plan: PlanSpec | None = None
    cdma: CdmaSpec | None = None
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    adc_enabled: bool = False
    adc_bits: int = field(default=16, metadata=ADC_RESOLUTION)
    # None = 1.25 x noiseless stream peak
    adc_full_scale: float | None = field(default=None, metadata=POSITIVE)
    seed: int = field(default=0, metadata=SEED)
    permissive: bool = False
    write_spectra: bool = False
    log_display: bool = False
    output_dir: str | None = None
    # optics-check settings
    anchors: tuple[tuple[float, float], ...] = DEFAULT_ANCHORS
    span_nm: tuple[float, float] = (412.0, 732.0)
    n_columns: int = field(default=52, metadata=COUNT)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ScenarioError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.noise.seed:  # noise_config() keys the noise by the scenario's seed
            raise ScenarioError(f"the noise's seed {self.noise.seed} would be ignored:"
                                " the noise is keyed by the top-level 'seed'")
        for key in ("target", "plan", "cdma"):
            if key in MODE_KEYS[self.mode] and getattr(self, key) is None:
                raise ScenarioError(f"{self.mode} mode needs a '{key}' section")
        # one anchor, or all on one column; _anchor_betas then checks the wavelengths
        if len({column for _, column in self.anchors}) < 2:
            raise ScenarioError(
                f"'anchors' must lie on at least two distinct columns, got {list(self.anchors)}"
            )
        try:
            _anchor_betas(OpticsConfig(), [SpectralAnchor(w, c) for w, c in self.anchors])
        except ValueError as exc:  # a repeated or an evanescent wavelength
            raise ScenarioError(
                f"'anchors' do not fit a line: {exc}, got {list(self.anchors)}"
            ) from exc
        if self.mode == "optics-check":
            lo, hi = self.span_nm
            if not lo < hi:
                raise ScenarioError(f"'span_nm' must run from low to high, got [{lo!r}, {hi!r}]")
            return
        if self.mode == "cdma":
            if self.cdma.code_length < self.rows * self.cols + 1:
                raise ScenarioError(f"'cdma.code_length' must be at least the pixel count plus one,"
                                    f" {self.rows * self.cols + 1}")
        elif self.mode == "fm-tdma":
            spec = self.plan
            n, key = (len(spec.frequencies), "frequencies") if spec.frequencies else (spec.P, "P")
            if n != 1:
                raise ScenarioError(f"fm-tdma uses exactly one carrier ('plan.{key}')")
        if self.target.kind == "spectral-line" and self.mode != "cdma":
            raise ScenarioError("the spectral-line target runs in cdma mode")
        if self.mode != "cdma":
            self._check_plan()
        self._check_target_geometry(self.grid)

    def _check_plan(self) -> None:
        """Build the carrier plan as the run will; a low carrier warns in the run, not here."""
        spec = self.plan
        try:
            SamplingWindow.design(spec.T, spec.p)
        except ValueError as exc:
            raise ScenarioError(f"'plan.T' and 'plan.p' do not make a window: {exc}") from exc
        keys = "'plan.frequencies'" if spec.frequencies else "'plan.p', 'plan.m' and 'plan.P'"
        try:
            spec.build()
        except ValueError as exc:
            raise ScenarioError(f"{keys} do not make a carrier plan: {exc}") from exc

    def _check_target_geometry(self, grid: CaosGrid) -> None:
        """The target must fit the grid, and each spectral band must map onto it; an image
        file is checked when it is read."""
        target, shape = self.target, f"{self.rows}x{self.cols}"
        if target.kind == "explicit" and [len(r) for r in target.values] != [self.cols] * self.rows:
            raise ScenarioError(f"'target.values' must be a {shape} matrix")
        if target.kind == "hdr-patches":
            try:
                hdr_patch_masks(grid, target.layout, len(target.attenuations_db),
                                target.patch_radius)
            except ValueError as exc:
                raise ScenarioError(
                    f"'target.layout' and 'target.patch_radius' do not fit the {shape} grid: {exc}"
                ) from exc
        if target.kind == "spectral-line":
            outside = [r for r in target.band_rows if not 0 <= r < self.rows]
            if outside:
                raise ScenarioError(
                    f"'target.start_row' and 'target.row_step' put band rows {outside}"
                    f" outside the {self.rows} grid rows"
                )
            anchors = [SpectralAnchor(w, c) for w, c in self.anchors]
            for center, width in target.bands:
                band = f"'target.bands' band {center:g}+-{width / 2:g} nm"
                try:
                    first, last = band_columns(grid, center, width, OpticsConfig(), anchors)
                except ValueError as exc:  # an evanescent edge, or anchors that fit no line
                    raise ScenarioError(f"{band} does not map through 'anchors': {exc}") from exc
                if first > last:
                    raise ScenarioError(f"{band} maps entirely off the {self.cols} grid columns")

    @property
    def grid(self) -> CaosGrid:
        return CaosGrid(self.rows, self.cols)

    def to_dict(self) -> dict[str, Any]:
        keys = _document_keys(self.mode, self.target and self.target.kind)
        return _dump(self, (name for key in keys for name in SECTIONS.get(key, (key,))))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def noise_config(self) -> NoiseConfig:
        return dataclasses.replace(self.noise, seed=self.seed)

    def adc_config(self, auto_full_scale: float) -> AdcConfig:
        fs = self.adc_full_scale if self.adc_full_scale is not None else auto_full_scale
        return AdcConfig(bits=self.adc_bits, full_scale=fs, enabled=self.adc_enabled)


_type_hints = functools.cache(typing.get_type_hints)
_WHAT = {bool: "true or false", int: "an integer", float: "a number", str: "a string",
         dict: "a JSON object"}


def _coerce(hint: Any, value: Any, path: str, rule: tuple[str, Any] | None = None) -> Any:
    """Check one JSON value against a field's type hint and rule; return the field value."""
    if dataclasses.is_dataclass(hint):
        return _parse(hint, value, path + ".")
    args = typing.get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else _coerce(args[0], value, path, rule)
    what = _WHAT.get(hint)
    if typing.get_origin(hint) is tuple:
        variable = args[-1] is Ellipsis
        if isinstance(value, list) and (variable or len(value) == len(args)):
            args = args[:1] * len(value) if variable else args
            return tuple(_coerce(a, v, f"{path}[{i}]", rule)
                         for i, (a, v) in enumerate(zip(args, value)))
        what = "a list" if variable else f"a list of {len(args)}"
    elif hint is float and type(value) in (int, float) and not abs(value) <= sys.float_info.max:
        what = "finite"  # nan, inf or an integer beyond a float
    elif type(value) is hint or (hint is float and type(value) is int):
        value = float(value) if hint is float else value
        if rule is None or rule[1](value):
            return value
        what = rule[0]
    # worded like the dataclasses' own checks ("plan T must be ..."), then the key path
    words = path.replace(".", " ") or "scenario"
    raise ScenarioError(f"malformed scenario: {words} must be {what}, got {value!r} (key {path!r})")


def _parse(cls: type, d: Any, path: str) -> Any:
    """Build dataclass `cls` from the document object `d` found at `path`."""
    d, hints, kwargs = _coerce(dict, d, path.rstrip(".")), _type_hints(cls), {}
    for f in fields(cls):
        section, key = NESTED.get(f.name, (None, f.name))
        src = d if section is None else _coerce(dict, d.get(section, {}), section)
        where = path + key if section is None else f"{section}.{key}"
        if key in src:
            kwargs[f.name] = _coerce(hints[f.name], src[key], where, f.metadata.get("rule"))
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ScenarioError(f"missing scenario key {where!r}")
    return cls(**kwargs)


def _dump(obj: Any, names: Iterable[str]) -> dict[str, Any]:
    """The document object holding fields `names` of dataclass `obj`."""
    out: dict[str, Any] = {}
    for name in names:
        section, key = NESTED.get(name, (None, name))
        (out if section is None else out.setdefault(section, {}))[key] = _json(getattr(obj, name))
    return out


def _json(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_json(v) for v in value]
    if isinstance(value, NoiseConfig):  # its seed is the scenario seed
        return _dump(value, (f.name for f in fields(value) if f.name != "seed"))
    return value.to_dict() if dataclasses.is_dataclass(value) else value


def _document_keys(mode: str, target_kind: str | None) -> tuple[str, ...]:
    """The top-level keys of a resolved scenario of this mode and target kind."""
    keys = MODE_KEYS[mode]
    return keys + ("anchors",) if target_kind == "spectral-line" else keys


def scenario_from_dict(d: dict[str, Any]) -> Scenario:
    mode = d.get("mode") if isinstance(d, dict) else None
    if isinstance(mode, str) and mode in MODE_KEYS:
        # a key the mode ignores is named for deletion before any value in it is checked
        target = d.get("target")
        kind = target.get("kind") if isinstance(target, dict) else None
        if not (isinstance(kind, str) and kind in TARGET_KEYS):
            kind = "spectral-line"  # a missing or malformed kind fails by name in _parse
        _reject_unknown_keys(d, dict.fromkeys(_document_keys(mode, kind)))
    scenario = _parse(Scenario, d, "")
    _reject_unknown_keys(d, scenario.to_dict())
    return scenario


def _reject_unknown_keys(given: dict[str, Any], resolved: dict[str, Any], path: str = "") -> None:
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
        raise ScenarioError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")
    return scenario_from_dict(json.loads(ref.read_text(encoding="utf-8")))
