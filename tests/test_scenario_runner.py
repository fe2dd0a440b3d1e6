"""Scenario parsing, preset integrity and runner behavior.

A run's bits against the one-row library chain, and what each kind of run
encodes, draws, quantizes and reads, are checked in
``test_pipeline_properties.py``; this file checks what a run reports,
writes, warns about and rejects, and, through the same recorder
(``oracles.recording``), that a silent channel draws no noise terms.
"""

import contextlib
import copy
import dataclasses
import json
import re
import typing
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import caossim.channel
import caossim.runner
from caossim.freq_plan import MainsGuardWarning, validate_plan
from caossim.runner import PlanRejectedError, run
from caossim.scene_optics import hdr_patch_masks
from caossim.scenario import (
    NESTED,
    Scenario,
    ScenarioError,
    load_preset,
    preset_names,
    scenario_from_dict,
)
from caossim.waveform import SamplingWindow
from oracles import recording, slot_by_slot

TINY_FDMA = {
    "mode": "fdma-tdma",
    "grid": {"rows": 1, "cols": 4},
    "target": {"kind": "explicit", "values": [[1.0, 0.5, 0.25, 0.125]]},
    "plan": {"T": 1.0, "p": 12, "m": 7, "P": 4},
    "noise": {},
    "adc": {"enabled": False},
    "seed": 0,
}

TINY_CDMA = {
    "mode": "cdma",
    "grid": {"rows": 1, "cols": 2},
    "target": {"kind": "uniform", "level": 1.0},
    "cdma": {"code_length": 4},
}

TINY_HDR = dict(TINY_CDMA, grid={"rows": 5, "cols": 10}, cdma={"code_length": 64},
                target={"kind": "hdr-patches", "attenuations_db": [0.0, 20.0]})

TINY_LINE = dict(TINY_CDMA, grid={"rows": 1, "cols": 52}, cdma={"code_length": 64},
                 target={"kind": "spectral-line", "bands": [[600.0, 40.0]]})

TINY_FM = dict(TINY_FDMA, mode="fm-tdma", plan=dict(TINY_FDMA["plan"], P=1))

OPTICS = {"mode": "optics-check"}

BY_MODE = {"cdma": TINY_CDMA, "fm-tdma": TINY_FM, "fdma-tdma": TINY_FDMA, "optics-check": OPTICS}


def _without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


class TestScenarioParsing:
    def test_round_trip_unchanged(self):
        sc = scenario_from_dict(TINY_FDMA)
        resolved = sc.to_dict()
        again = scenario_from_dict(resolved).to_dict()
        assert resolved == again

    def test_all_presets_round_trip(self):
        for name in preset_names():
            sc = load_preset(name)
            resolved = sc.to_dict()
            assert scenario_from_dict(resolved).to_dict() == resolved, name

    def test_expected_presets_exist(self):
        names = set(preset_names())
        assert {
            "table5", "fig6", "fig9-valid", "fig9-invalid",
            "hdr66-fm", "hdr66-fdma", "spectral-line", "dispersion-check",
        } <= names

    def test_unknown_mode_rejected(self):
        with pytest.raises(ScenarioError, match="mode"):
            scenario_from_dict({"mode": "amplitude", "target": {"kind": "uniform"}})

    def test_fm_requires_single_carrier(self):
        doc = dict(TINY_FDMA, mode="fm-tdma")
        with pytest.raises(ScenarioError, match=r"one carrier \('plan\.P'\)"):
            scenario_from_dict(doc)

    def test_cdma_needs_enough_code_rows(self):
        doc = {
            "mode": "cdma",
            "grid": {"rows": 2, "cols": 2},
            "target": {"kind": "uniform", "level": 1.0},
            "cdma": {"code_length": 4},
        }
        with pytest.raises(ScenarioError, match="'cdma.code_length' must be at least the pixel"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "section, key",
        [
            (None, "sed"),
            (None, "intermode_scale"),  # written by earlier versions, read by nothing
            ("grid", "rowz"),
            ("grid", "pixel_mirrors"),  # written by earlier versions, read by nothing
            ("grid", "mirror_pitch_um"),
            ("adc", "enable"),
            ("noise", "awgn_sigm"),
            ("noise", "pink_enabled"),  # written by earlier versions; pink_sigma > 0 turns it on
            ("plan", "PP"),
            ("cdma", "code_len"),
            ("target", "levle"),
            ("target", "patch_radius"),  # valid key, unused by an explicit target
        ],
    )
    def test_unknown_key_rejected_by_path(self, section, key):
        doc = copy.deepcopy(TINY_CDMA if section == "cdma" else TINY_FDMA)
        where = doc if section is None else doc[section]
        where[key] = 1
        path = key if section is None else f"{section}.{key}"
        with pytest.raises(ScenarioError, match=f"'{path}'"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "mode, key, value",
        [
            ("cdma", "plan", TINY_FDMA["plan"]),
            ("cdma", "permissive", True),
            ("cdma", "write_spectra", True),
            ("fm-tdma", "cdma", TINY_CDMA["cdma"]),
            ("fdma-tdma", "cdma", TINY_CDMA["cdma"]),
            ("optics-check", "seed", 3),
            ("optics-check", "permissive", True),
            ("optics-check", "write_spectra", True),
            ("optics-check", "log_display", True),
            # named as unused before the value it holds is range-checked
            ("optics-check", "grid", {"rows": 0}),
            ("cdma", "plan", dict(TINY_FDMA["plan"], T=-1)),
        ],
        ids=lambda v: v if isinstance(v, str) else None,
    )
    def test_key_the_mode_does_not_read_rejected_by_name(self, mode, key, value):
        with pytest.raises(ScenarioError, match=f"unknown or unused scenario key '{key}'"):
            scenario_from_dict(dict(BY_MODE[mode], **{key: value}))

    def test_pink_sigma_alone_draws_the_one_over_f_term(self, monkeypatch):
        drawn = []
        original = caossim.channel._pink_noise

        def recording(rng, q, fs, exponent):
            drawn.append(q)
            return original(rng, q, fs, exponent)

        monkeypatch.setattr(caossim.channel, "_pink_noise", recording)
        pink = run(scenario_from_dict(dict(TINY_FDMA, noise={"pink_sigma": 0.01})))
        assert drawn == [2**12]  # one slot, Q = 2**p
        silent = run(scenario_from_dict(TINY_FDMA))
        assert not np.array_equal(pink.image.estimates, silent.image.estimates)

    @pytest.mark.parametrize("section", ["grid", "noise", "adc"])
    def test_section_that_is_not_an_object_rejected(self, section):
        with pytest.raises(ScenarioError, match="malformed scenario"):
            scenario_from_dict(dict(TINY_FDMA, **{section: []}))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("key", ["awgn_sigma", "mains_freq", "dark_offset"])
    def test_non_finite_noise_rejected_at_parse(self, key, value):
        doc = dict(TINY_FDMA, noise={key: value})
        with pytest.raises(ScenarioError, match=f"{key} must be finite"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "key, value",
        [("T", -1.0), ("T", 0.0), ("T", float("nan")), ("T", float("inf")), ("p", 0)],
    )
    def test_bad_window_named_at_parse(self, key, value):
        doc = dict(TINY_FDMA, plan=dict(TINY_FDMA["plan"], **{key: value}))
        with pytest.raises(ScenarioError, match=f"plan {key} must be"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "plan, key",
        [
            ({"T": 1.0, "p": 6, "m": 10, "P": 1}, "plan.m"),  # fastest carrier above fs/4
            ({"T": 1.0, "p": 12, "m": 0, "P": 4}, "plan.m"),
            ({"T": 1.0, "p": 12, "m": 7, "P": 0}, "plan.P"),
            ({"T": 1.0, "p": 12, "frequencies": [-4.0, 8.0]}, "plan.frequencies[0]"),
            ({"T": 1.0, "p": 12, "frequencies": [4.0, 0.0]}, "plan.frequencies[1]"),
            ({"T": 1.0, "p": 12, "frequencies": [4.0, 4.0]}, "plan.frequencies"),
            ({"T": 1.0, "p": 16, "frequencies": [40000.0, 4096.0]}, "plan.frequencies"),  # > fs/2
            ({"T": 1.0, "p": 2000, "frequencies": [4.0]}, "plan.p"),  # fs beyond a float
            ({"T": 1e-320, "p": 16, "m": 7, "P": 1}, "plan.T"),
            # 8.3 Hz rounds to bin 8 = fs/2 but lies above it: no sampler reaches it
            ({"T": 1.0, "p": 4, "frequencies": [2.0, 8.3]}, "plan.frequencies"),
        ],
    )
    def test_plan_that_cannot_be_built_rejected_at_parse(self, plan, key):
        with pytest.raises(ScenarioError, match=re.escape(repr(key))):
            scenario_from_dict(dict(TINY_FDMA, plan=plan))

    def test_permissive_carrier_above_nyquist_rejected_at_parse_not_in_the_run(self):
        doc = {"mode": "fdma-tdma", "grid": {"rows": 1, "cols": 2},
               "target": {"kind": "uniform", "level": 1.0},
               "plan": {"T": 1.0, "p": 4, "frequencies": [2.0, 8.3]}, "permissive": True}
        with pytest.raises(ScenarioError, match=r"'plan.frequencies' .* 8\.3 Hz lies outside"):
            scenario_from_dict(doc)
        # at fs/2 exactly the carrier parses and runs
        run(scenario_from_dict(dict(doc, plan=dict(doc["plan"], frequencies=[2.0, 8.0]))))

    @pytest.mark.parametrize(
        "plan, low",
        [
            ({"T": 1.0, "p": 12, "m": 1, "P": 4}, "1 Hz, 2 Hz, 4 Hz, 8 Hz"),
            ({"T": 1.0, "p": 10, "m": 6, "P": 2}, "32 Hz"),
            ({"T": 1.0, "p": 10, "frequencies": [32.0, 64.0]}, "32 Hz"),
        ],
        ids=["designed-1-to-8-Hz", "designed-32-Hz", "listed-32-Hz"],
    )
    def test_low_carrier_warns_once_in_the_run_not_at_parse(self, plan, low):
        # both plan kinds warn from the run's audit, naming every low carrier
        doc = dict(TINY_FDMA, plan=plan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scenario = scenario_from_dict(doc)
        with pytest.warns(MainsGuardWarning) as record:
            run(scenario)
        assert [w.category for w in record] == [MainsGuardWarning]
        assert str(record[0].message).endswith(f"mains fundamental: {low}")

    def test_unknown_preset(self):
        with pytest.raises(ScenarioError, match="unknown preset"):
            load_preset("nope")


def _with(doc, path, value):
    """Copy of `doc` with the dotted key `path` set to `value`."""
    doc = copy.deepcopy(doc)
    *sections, key = path.split(".")
    where = doc
    for section in sections:
        where = where.setdefault(section, {})
    where[key] = value
    return doc


def _leaf_paths(doc, prefix=""):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def _rejected_naming(doc, path):
    with pytest.raises(ScenarioError, match=re.escape(repr(path))):
        scenario_from_dict(doc)


def _rules(cls, doc, prefix=""):
    """(key path, rule) of each key in `doc` whose field of dataclass `cls` declares a rule."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        section, key = NESTED.get(f.name, (None, f.name))
        where = doc if section is None else doc.get(section, {})
        if key not in where:
            continue
        path = prefix + key if section is None else f"{section}.{key}"
        hint = hints[f.name]
        if type(None) in typing.get_args(hint):  # X | None
            hint = typing.get_args(hint)[0]
        if dataclasses.is_dataclass(hint):
            yield from _rules(hint, where[key], path + ".")
        elif "rule" in f.metadata:
            yield path, f.metadata["rule"]


def _cells(value, index=()):
    """(index, number) of every number in a JSON value, a nested list or a scalar."""
    if isinstance(value, list):
        for i, v in enumerate(value):
            yield from _cells(v, index + (i,))
    else:
        yield index, value


def _replace_cell(value, index, cell):
    """Copy of the nested list `value` with the number at `index` set to `cell`."""
    if not index:
        return cell
    value = list(value)
    value[index[0]] = _replace_cell(value[index[0]], index[1:], cell)
    return value


# candidate values that break a rule, by the JSON type of the number it holds; a seed is
# one Philox key word, so -1 and 2**64 must not parse (they would draw as 2**64-1 and 0)
BREAKERS = {int: [0, -1, 3, 25, 2**64], float: [0.0, -1.0]}

# every key some preset sets that a rule bounds
RULED_KEYS = {
    "seed", "grid.rows", "grid.cols", "adc.bits", "adc.full_scale", "n_columns",
    "plan.T", "plan.p", "plan.m", "plan.P", "plan.frequencies",
    "cdma.code_length", "cdma.bit_rate", "cdma.samples_per_bit",
    "noise.awgn_sigma", "noise.mains_amplitude", "noise.pink_sigma", "noise.dark_offset",
    "noise.pink_exponent",
    "target.level", "target.values", "target.background", "target.bands",
    "target.source_temp_k",
}

# JSON values of the wrong type for a leaf whose resolved value has the given type
WRONG_TYPE = {
    bool: [1, "true"],
    int: [1.5, True, "1"],
    float: [True, "1.0"],
    str: [1, ["x"]],
    list: ["x", {"a": 1}],
    type(None): [True, []],
}


class TestStrictSchema:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "doc, path, make, named",
        [
            (TINY_FDMA, "adc.full_scale", lambda v: v, "adc.full_scale"),
            (TINY_CDMA, "cdma.bit_rate", lambda v: v, "cdma.bit_rate"),
            (TINY_CDMA, "target.level", lambda v: v, "target.level"),
            (TINY_FDMA, "target.values", lambda v: [[1.0, v, 0.25, 0.125]], "target.values[0][1]"),
            (OPTICS, "span_nm", lambda v: [412.0, v], "span_nm[1]"),
        ],
    )
    def test_non_finite_float_rejected_at_parse(self, doc, path, make, named, value):
        message = f"must be finite, got {value!r} (key {named!r})"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            scenario_from_dict(_with(doc, path, make(value)))

    @pytest.mark.parametrize(
        "path, value",
        [
            ("permissive", "false"),
            ("log_display", 1),
            ("grid.cols", 4.7),
            ("seed", 1.9),
            ("adc.bits", True),
        ],
    )
    def test_wrong_json_type_rejected_by_path(self, path, value):
        _rejected_naming(_with(TINY_FDMA, path, value), path)

    @pytest.mark.parametrize(
        "doc, path, value, match",
        [
            (TINY_FDMA, "target.values", [[1.0, 0.5, 0.25], [0.125]], "'target.values'"),
            (TINY_FDMA, "target.values", [[1.0, 0.5], [0.25, 0.125]], "'target.values'"),
            (TINY_FDMA, "target.values", [[1.0, 0.5, -0.25, 0.125]],
             "nonnegative, got -0.25 (key 'target.values[0][2]')"),
            (TINY_LINE, "target.bands", [[-600.0, 40.0]],
             "positive, got -600.0 (key 'target.bands[0][0]')"),
            (TINY_LINE, "target.bands", [[600.0, 0.0]],
             "positive, got 0.0 (key 'target.bands[0][1]')"),
            (TINY_LINE, "target.bands", [[600.0, -40.0]],
             "positive, got -40.0 (key 'target.bands[0][1]')"),
            (TINY_LINE, "target.bands", [[5000.0, 40.0]],
             "'target.bands' band 5000+-20 nm does not map through 'anchors': order 1 at 5020.0 nm"
             " is evanescent"),
            (TINY_LINE, "target.bands", [[300.0, 10.0]],
             "'target.bands' band 300+-5 nm maps entirely off the 52 grid columns"),
            (TINY_LINE, "target.bands", [[900.0, 10.0]],
             "'target.bands' band 900+-5 nm maps entirely off the 52 grid columns"),
            (TINY_LINE, "anchors", [[732.0, 0.0], [399.0, 0.0]],
             "'anchors' must lie on at least two distinct columns"),
            (OPTICS, "anchors", [[732.0, 5.0], [399.0, 5.0], [550.0, 5.0]],
             "'anchors' must lie on at least two distinct columns"),
            (OPTICS, "anchors", [[732.0, 0.0]],
             "'anchors' must lie on at least two distinct columns"),
            (OPTICS, "anchors", [[732.0, 0.0], [732.0, 51.0]],
             "'anchors' do not fit a line: anchor wavelengths must be distinct"),
            (OPTICS, "anchors", [[732.0, 0.0], [5000.0, 51.0]],
             "'anchors' do not fit a line: order 1 at 5000.0 nm is evanescent"),
            (TINY_LINE, "anchors", [[732.0, 0.0], [399.0, 51.0], [732.0, 20.0]],
             "'anchors' do not fit a line: anchor wavelengths must be distinct"),
            (TINY_LINE, "anchors", [[-5000.0, 0.0], [399.0, 51.0]],
             "'anchors' do not fit a line: order 1 at -5000.0 nm is evanescent"),
            (OPTICS, "span_nm", [732.0, 412.0], "'span_nm' must run from low to high"),
            (OPTICS, "span_nm", [412.0, 412.0], "'span_nm' must run from low to high"),
            (TINY_FDMA, "noise.pink_exponent", -250,
             "must be in 0..2, got -250.0 (key 'noise.pink_exponent')"),
            (TINY_FDMA, "noise.pink_exponent", 250,
             "must be in 0..2, got 250.0 (key 'noise.pink_exponent')"),
            (TINY_FDMA, "noise.pink_exponent", 2.01,
             "must be in 0..2, got 2.01 (key 'noise.pink_exponent')"),
        ],
    )
    def test_out_of_range_rejected_at_parse(self, doc, path, value, match):
        with pytest.raises(ScenarioError, match=re.escape(match)):
            scenario_from_dict(_with(doc, path, value))

    @pytest.mark.parametrize(
        "doc, path",
        [
            (dict(TINY_FDMA, target={"kind": "explicit"}), "target.values"),
            (dict(TINY_FDMA, target={"kind": "image-file"}), "target.path"),
            (dict(TINY_CDMA, target={"kind": "hdr-patches"}), "target.attenuations_db"),
            (dict(TINY_CDMA, target={"kind": "spectral-line"}), "target.bands"),
            (dict(TINY_FDMA, plan={"p": 12, "m": 7, "P": 4}), "plan.T"),
            (dict(TINY_CDMA, cdma={}), "cdma.code_length"),
            # a simulation mode without its sections
            (_without(TINY_CDMA, "target"), "target"),
            (_without(TINY_CDMA, "cdma"), "cdma"),
            (_without(TINY_FM, "target"), "target"),
            (_without(TINY_FM, "plan"), "plan"),
            (_without(TINY_FDMA, "target"), "target"),
            (_without(TINY_FDMA, "plan"), "plan"),
        ],
    )
    def test_missing_required_key_named(self, doc, path):
        _rejected_naming(doc, path)

    def test_hdr_layout_defaults_to_one_row_of_patches(self):
        assert scenario_from_dict(TINY_HDR).target.layout == (1, 2)

    @pytest.mark.parametrize(
        "grid, target, match",
        [
            ((3, 3), {"layout": [1, 1], "patch_radius": 5.0}, "does not fit"),
            ((3, 3), {"attenuations_db": [0.0, 20.0], "layout": [1, 1]}, "cannot hold"),
            ((3, 5), {"attenuations_db": [0.0, 20.0], "layout": [1, 2], "patch_radius": 1.25},
             "overlap"),
            ((2, 2), {"layout": [1, 1], "patch_radius": -2.0}, "must be positive"),
            ((2, 2), {"layout": [1, 1], "patch_radius": 0.3}, "covers no pixel"),
        ],
    )
    def test_hdr_patches_that_cannot_fit_rejected_at_parse(self, grid, target, match):
        doc = dict(TINY_FDMA, grid={"rows": grid[0], "cols": grid[1]},
                   target={"kind": "hdr-patches", "attenuations_db": [0.0], **target})
        with pytest.raises(ScenarioError, match=match) as info:
            scenario_from_dict(doc)
        assert "'target.layout'" in str(info.value) and "'target.patch_radius'" in str(info.value)

    @pytest.mark.parametrize(
        "key, value", [("start_row", 500), ("start_row", -1), ("row_step", 6), ("row_step", -1)]
    )
    def test_spectral_line_rows_outside_grid_rejected_at_parse(self, key, value):
        doc = _with(load_preset("spectral-line").to_dict(), f"target.{key}", value)
        with pytest.raises(ScenarioError, match="outside the 38 grid rows") as info:
            scenario_from_dict(doc)
        assert "'target.start_row'" in str(info.value) and "'target.row_step'" in str(info.value)

    @pytest.mark.parametrize("name", preset_names())
    def test_every_resolved_key_is_typed_and_every_section_closed(self, name):
        resolved = load_preset(name).to_dict()
        for path, value in _leaf_paths(resolved):
            for wrong in WRONG_TYPE[type(value)]:
                _rejected_naming(_with(resolved, path, wrong), path)
            _rejected_naming(_with(resolved, path + "x", value), path + "x")
        # each key's rule, broken in its first and its last number, is named by the number's path
        leaves = dict(_leaf_paths(resolved))
        for path, (phrase, test) in _rules(Scenario, resolved):
            value = leaves[path]
            cells = list(_cells(value))
            for index, cell in dict.fromkeys([cells[0], cells[-1]]):
                kind = float if cell is None else type(cell)  # adc.full_scale resolves to null
                breakers = [b for b in BREAKERS[kind] if not test(b)]
                assert breakers, (path, phrase)
                where = path + "".join(f"[{i}]" for i in index)
                for bad in breakers:
                    message = f"must be {phrase}, got {bad!r} (key {where!r})"
                    with pytest.raises(ScenarioError, match=re.escape(message)):
                        scenario_from_dict(_with(resolved, path, _replace_cell(value, index, bad)))

    def test_a_rule_bounds_every_ranged_key_of_the_presets(self):
        ruled = {path for name in preset_names()
                 for path, _ in _rules(Scenario, load_preset(name).to_dict())}
        assert ruled == RULED_KEYS


class TestRunnerCore:
    def test_tiny_fdma_run_decodes_exactly(self):
        report = run(scenario_from_dict(TINY_FDMA))
        designed = report.scene.irradiance
        np.testing.assert_allclose(report.image.estimates, designed, rtol=1e-9)
        assert report.encoding_time_s == 1.0
        assert report.speedup_vs_single_channel == pytest.approx(4.0)

    def test_strict_mode_rejects_invalid_plan(self):
        doc = dict(TINY_FDMA)
        doc["plan"] = {"T": 0.25, "p": 14, "frequencies": [1170.3, 2048.0, 4096.0, 8192.0]}
        with pytest.raises(PlanRejectedError) as err:
            run(scenario_from_dict(doc))
        assert 1170.3 in err.value.report.not_multiple_of_delta_f

    def test_permissive_mode_proceeds_and_shows_crosstalk(self):
        doc = dict(TINY_FDMA)
        doc["plan"] = {"T": 0.25, "p": 14, "frequencies": [1170.3, 2048.0, 4096.0, 8192.0]}
        doc["permissive"] = True
        report = run(scenario_from_dict(doc))
        assert not report.validation.passed
        rel = np.abs(report.image.estimates - report.scene.irradiance) / report.scene.irradiance
        assert rel.max() > 0.01

    def test_outputs_and_determinism(self, tmp_path):
        doc = dict(TINY_FDMA)
        doc["noise"] = {"awgn_sigma": 0.001}
        doc["log_display"] = True
        doc["write_spectra"] = True
        sc = scenario_from_dict(doc)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run(sc, outdir=out_a)
        run(sc, outdir=out_b)
        names = sorted(p.name for p in out_a.iterdir())
        assert names == [
            "decoded.csv", "decoded.pgm", "decoded_log.pgm",
            "metrics.txt", "resolved_config.json", "scene.csv", "spectra.csv",
        ]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_resolved_config_round_trips_through_parser(self, tmp_path):
        sc = scenario_from_dict(TINY_FDMA)
        run(sc, outdir=tmp_path)
        text = (tmp_path / "resolved_config.json").read_text()
        again = scenario_from_dict(json.loads(text))
        assert again.to_json() == text

    def test_output_dir_key_makes_the_run_write_there(self, tmp_path, monkeypatch):
        monkeypatch.delenv("CAOSSIM_OUTDIR", raising=False)
        report = run(scenario_from_dict(dict(TINY_FDMA, output_dir=str(tmp_path / "key"))))
        assert report.outdir == tmp_path / "key"
        assert (tmp_path / "key" / "decoded.csv").exists()

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CAOSSIM_OUTDIR", str(tmp_path / "env"))
        run(scenario_from_dict(TINY_FDMA))
        assert (tmp_path / "env" / "decoded.csv").exists()

    def test_noise_makes_no_difference_to_byte_determinism_across_seeds(self):
        doc = dict(TINY_FDMA)
        doc["noise"] = {"awgn_sigma": 0.01}
        a = run(scenario_from_dict(dict(doc, seed=1)))
        b = run(scenario_from_dict(dict(doc, seed=1)))
        c = run(scenario_from_dict(dict(doc, seed=2)))
        assert np.array_equal(a.image.estimates, b.image.estimates)
        assert not np.array_equal(a.image.estimates, c.image.estimates)

    def test_cdma_run(self):
        doc = {
            "mode": "cdma",
            "grid": {"rows": 4, "cols": 4},
            "target": {"kind": "uniform", "level": 0.8},
            "cdma": {"code_length": 32, "bit_rate": 1000.0, "samples_per_bit": 2},
            "seed": 0,
        }
        report = run(scenario_from_dict(doc))
        np.testing.assert_allclose(report.image.estimates, 0.8, rtol=1e-9)

    def test_adc_auto_full_scale_headroom(self):
        doc = dict(TINY_FDMA)
        doc["adc"] = {"enabled": True, "bits": 16}
        report = run(scenario_from_dict(doc))
        assert report.clip_count == 0
        np.testing.assert_allclose(
            report.image.estimates, report.scene.irradiance, rtol=1e-3
        )

    def test_hdr_target_with_no_dark_background_still_reports(self):
        doc = {
            "mode": "fdma-tdma",
            "grid": {"rows": 2, "cols": 4},
            "target": {"kind": "hdr-patches", "attenuations_db": [0.0, 20.0],
                       "layout": [1, 2], "patch_radius": 0.8},
            "plan": {"T": 0.5, "p": 13, "m": 7, "P": 4},
            "seed": 9,
        }
        report = run(scenario_from_dict(doc))
        assert report.patch is not None
        assert all(np.isinf(e.min_snr) for e in report.patch.entries)
        assert report.patch.measured_dr_db == pytest.approx(20.0, abs=1e-6)

    def test_patch_below_one_lsb_is_reported_as_not_detected(self, tmp_path):
        # 8 bits and no noise: the 60 and 66 dB patches lie below half an LSB and decode to 0
        doc = _with(load_preset("hdr66-fm").to_dict(), "target.patch_radius", 1.5)
        doc.update(grid={"rows": 10, "cols": 15}, adc={"enabled": True, "bits": 8}, noise={})
        report = run(scenario_from_dict(doc), outdir=tmp_path)
        measured = [e.measured_dr_db for e in report.patch.entries]
        assert np.isnan(measured[-2:]).all() and not np.isnan(measured[:-2]).any()
        assert report.patch.measured_dr_db == max(measured[:-2])
        assert (tmp_path / "patch_report.csv").read_text().count(",nan,") == 2


@st.composite
def _carrier_sets(draw):
    """(T, p) of a window and 1-4 distinct carriers, each k * delta_f or fs / 2**j."""
    T = draw(st.sampled_from([1.0, 0.25, 0.3]))
    p = draw(st.integers(4, 12))
    window = SamplingWindow.design(T, p)
    carrier = st.one_of(
        st.integers(1, window.Q).map(lambda k: k * window.delta_f),
        st.integers(0, p).map(lambda j: window.fs / 2**j),
    )
    return T, p, draw(st.lists(carrier, min_size=1, max_size=4, unique=True))


class TestAuditJudgesStrictRun:
    @settings(max_examples=150, deadline=None)
    @given(_carrier_sets())
    # two carriers on one bin: the audit's only finding, and a plan that synthesises
    @example((1.0, 16, [64.0, 64.00000001]))
    def test_audit_passes_exactly_when_strict_run_completes(self, case):
        T, p, freqs = case
        doc = {
            "mode": "fdma-tdma",
            "grid": {"rows": 1, "cols": len(freqs)},
            "target": {"kind": "uniform", "level": 1.0},
            "plan": {"T": T, "p": p, "frequencies": freqs},
        }
        window = SamplingWindow.design(T, p)
        if any(round(f / window.delta_f) > window.Q // 2 for f in freqs):
            # a carrier above fs/2 has no bin: rejected at parse, before any audit
            with pytest.raises(ScenarioError, match="'plan.frequencies'"):
                scenario_from_dict(doc)
            return
        scenario = scenario_from_dict(doc)
        if validate_plan(freqs, window.delta_f, window.fs).passed:
            report = run(scenario)
            np.testing.assert_allclose(report.image.estimates, 1.0, rtol=0, atol=1e-9)
            return

        with recording() as route, pytest.raises(PlanRejectedError):
            run(scenario)
        assert route.encoded == [], "a slot was encoded before the audit verdict"


def _explicit_plan(freqs, permissive=False):
    return scenario_from_dict({
        "mode": "fdma-tdma",
        "grid": {"rows": 1, "cols": len(freqs)},
        "target": {"kind": "uniform", "level": 1.0},
        "plan": {"T": 1.0, "p": 16, "frequencies": freqs},
        "permissive": permissive,
    })


class TestMainsOnACarrierBin:
    """A 0.1 mains tone on the one carrier's bin reads +29% and +58% on this scene, where
    one at 50 Hz, off every carrier bin, adds nothing."""

    DOC = {
        "mode": "fm-tdma",
        "grid": {"rows": 1, "cols": 2},
        "target": {"kind": "explicit", "values": [[0.5, 0.25]]},
        "plan": {"T": 1.0, "p": 10, "frequencies": [128.0]},
        "noise": {"mains_amplitude": 0.1, "mains_freq": 128.0},
    }

    def test_strict_run_is_rejected_naming_the_mains_frequency(self):
        with pytest.raises(PlanRejectedError, match=r"noise\.mains_freq") as err:
            run(scenario_from_dict(self.DOC))
        assert err.value.report.on_mains_bin == (128.0,)

    def test_permissive_run_records_the_finding(self):
        report = run(scenario_from_dict(dict(self.DOC, permissive=True)))
        assert "128.0 Hz: on the bin of the mains tone (noise.mains_freq)" in report.metrics_text
        np.testing.assert_allclose(report.image.estimates, [[0.644091, 0.39578]], rtol=1e-5)

    @pytest.mark.parametrize("noise", [{"mains_amplitude": 0.1, "mains_freq": 50.0},
                                       {"mains_amplitude": 0.0, "mains_freq": 128.0}])
    def test_tone_off_the_bin_or_silent_passes(self, noise):
        report = run(scenario_from_dict(dict(self.DOC, noise=noise)))
        assert report.validation.passed
        np.testing.assert_allclose(report.image.estimates, [[0.5, 0.25]], rtol=1e-12)


class TestIntegerBins:
    def test_two_carriers_on_one_bin_are_rejected_by_a_strict_run(self):
        with pytest.raises(PlanRejectedError, match="collides with harmonic 1 of 64.0 Hz"):
            run(_explicit_plan([64.0, 64.00000001]))

    @pytest.mark.parametrize("freqs", [[30000.00002], [8192.000005, 4096.0]])
    def test_bin_exact_carrier_off_the_float_grid_runs_permissively(self, freqs):
        report = run(_explicit_plan(freqs, permissive=True))
        assert report.validation is not None
        assert np.all(np.isfinite(report.image.estimates))


SILENT_RUNS = {
    "fdma-tdma": dict(TINY_FDMA, grid={"rows": 3, "cols": 4}, write_spectra=True,
                      adc={"enabled": True, "bits": 12},
                      target={"kind": "explicit", "values": [[1.0, 0.5, 0.25, 0.125],
                                                             [0.0, 0.75, 1e-3, 0.3],
                                                             [0.6, 0.0, 0.0, 1e-6]]}),
    "cdma": TINY_HDR,
    "cdma-spectral-line": dict(TINY_LINE, target={"kind": "spectral-line",
                                                  "bands": [[600.0, 40.0], [450.0, 20.0]],
                                                  "row_step": 0}),
}
SLOTS = {"fdma-tdma": 3, "cdma": 1, "cdma-spectral-line": 2}


class TestSilentChannel:
    """A silent channel takes no slot's noise terms and adds nothing to its streams."""

    @pytest.mark.parametrize("name", SILENT_RUNS)
    def test_silent_run_makes_no_noise_call_and_matches_the_noise_path(self, name):
        scenario = scenario_from_dict(SILENT_RUNS[name])
        with recording() as route:
            report = run(scenario)
        assert route.drawn == []
        # the library chain adds every slot's (zero) terms, and gives the same bits
        images, clipped, spectra = slot_by_slot(scenario)
        for a, b in zip(report.images, images, strict=True):
            assert a.estimates.tobytes() == b.estimates.tobytes()
        assert report.clip_count == clipped
        assert (report.spectra is None) == (name != "fdma-tdma")
        if report.spectra is not None:
            assert report.spectra.tobytes() == spectra.tobytes()

    @pytest.mark.parametrize("noise", [{"awgn_sigma": 1e-3}, {"dark_offset": 0.1},
                                       {"mains_amplitude": 0.01}, {"pink_sigma": 1e-3}])
    @pytest.mark.parametrize("name", SILENT_RUNS)
    def test_noisy_run_makes_one_noise_call_per_slot(self, name, noise):
        # the fdma-tdma run's ADC clips the negative swings of AWGN or pink noise, and says so
        rectifies = name == "fdma-tdma" and ("awgn_sigma" in noise or "pink_sigma" in noise)
        expected = (pytest.warns(UserWarning, match="noise.dark_offset") if rectifies
                    else contextlib.nullcontext())
        with recording() as route, expected:
            run(scenario_from_dict(dict(SILENT_RUNS[name], noise=noise)))
        # each slot's terms are taken once, from one iterator over every slot
        assert [slots for _, _, slots in route.drawn] == [range(SLOTS[name])] * SLOTS[name]

    @pytest.mark.parametrize("block_rows", [None, 10])
    def test_silent_adc_off_run_makes_one_adc_call_per_block(self, block_rows, monkeypatch):
        if block_rows is not None:
            monkeypatch.setattr(caossim.runner, "BLOCK_BYTES", block_rows * 512 * 8)
        with recording() as route:
            run(load_preset("fig9-valid"))
        # 576 pixels, 7 per slot: a run of 82 full slots, then one short slot, each read over
        # one 512-sample carrier period; a 256 KiB block holds 64 such rows
        rows = block_rows or 64
        assert [len(stream) for stream in route.quantized] == [
            min(rows, 82 - s) * 512 for s in range(0, 82, rows)] + [512]


class TestUnitResponseCache:
    """A superposed run's unit carrier responses are built once per (carriers, window) and
    process."""

    def test_warm_runs_give_the_bits_of_a_cold_run(self):
        scenario = load_preset("fig9-invalid")
        caossim.runner._unit_responses.cache_clear()
        cold = run(scenario)
        warm = [run(scenario) for _ in range(2)]
        assert caossim.runner._unit_responses.cache_info().hits > 0
        for report in warm:
            assert report.image.estimates.tobytes() == cold.image.estimates.tobytes()
            assert report.metrics_text == cold.metrics_text

    def test_cached_responses_are_read_only(self):
        window = SamplingWindow.design(T=0.25, p=10)
        freqs = (100.5, 256.0)
        responses = caossim.runner._unit_responses(freqs, window)
        assert responses.shape == (2, 2)
        assert caossim.runner._unit_responses(freqs, window) is responses
        with pytest.raises(ValueError, match="read-only"):
            responses[0, 0] = 0.0


class TestAdcBelowOneLsb:
    """An 8-bit ADC reads patches below one LSB through the FFT's processing gain, the
    noise acting as dither, while a dark offset keeps that noise above the ADC's 0 floor."""

    DOC = {
        "mode": "fdma-tdma",
        "grid": {"rows": 10, "cols": 15},
        "plan": {"T": 1.0, "p": 12, "m": 7, "P": 4},
        "target": {"kind": "hdr-patches", "attenuations_db": [0.0, 40.0, 50.0],
                   "patch_radius": 1.5},
        "noise": {"awgn_sigma": 0.021},
        "adc": {"enabled": True, "bits": 8},
        "seed": 3,
    }

    @classmethod
    def _run(cls, adc, dark_offset):
        """The run, each patch's (mean, standard error) and the rectification warnings."""
        doc = dict(cls.DOC, adc=dict(cls.DOC["adc"], enabled=adc),
                   noise=dict(cls.DOC["noise"], dark_offset=dark_offset))
        scenario = scenario_from_dict(doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run(scenario)
        est = report.image.estimates
        masks = hdr_patch_masks(scenario.grid, scenario.target.layout, 3, 1.5)
        stats = [(est[m].mean(), est[m].std(ddof=1) / np.sqrt(m.sum())) for m in masks]
        warned = [w for w in caught if "noise.dark_offset" in str(w.message)]
        return report, stats, warned

    def test_patches_below_one_lsb_match_the_adc_off_run_given_a_dark_offset(self):
        report, got, warned = self._run(adc=True, dark_offset=0.1)
        _, want, _ = self._run(adc=False, dark_offset=0.1)
        lsb = float(re.search(r"full_scale=([^,]+)", report.metrics_text)[1]) / 2**8
        assert 10 ** (-40 / 20) < lsb and report.clip_count == 0 and warned == []
        for (mean, _), (ref, stderr) in zip(got, want, strict=True):
            assert abs(mean - ref) <= stderr, (mean, ref, stderr)

    def test_without_a_dark_offset_the_adc_rectifies_and_the_run_warns_once(self):
        report, got, warned = self._run(adc=True, dark_offset=0.0)
        _, want, _ = self._run(adc=False, dark_offset=0.0)
        assert report.clip_count > 0 and len(warned) == 1
        # the 40 and 50 dB patches read low by many standard errors
        for (mean, _), (ref, stderr) in zip(got[1:], want[1:], strict=True):
            assert mean < ref - 3 * stderr, (mean, ref, stderr)

    def test_no_warning_without_the_adc_or_the_noise(self):
        assert self._run(adc=False, dark_offset=0.0)[2] == []
        quiet = dict(self.DOC, noise={"mains_amplitude": 0.01})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run(scenario_from_dict(quiet))

    def test_a_plan_the_audit_rejects_raises_without_warning(self):
        # a strict fig9-invalid whose ADC would rectify its AWGN: the audit stops it first
        doc = dict(load_preset("fig9-invalid").to_dict(), permissive=False,
                   adc={"enabled": True, "bits": 10}, noise={"awgn_sigma": 0.01})
        with warnings.catch_warnings(record=True) as caught, pytest.raises(PlanRejectedError):
            warnings.simplefilter("always")
            run(scenario_from_dict(doc))
        assert caught == []

    @pytest.mark.parametrize("name", preset_names())
    def test_no_preset_warns(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            caossim.runner._warn_if_rectified(load_preset(name))


class TestPresetBehaviors:
    def test_table5_metrics_text(self):
        report = run(load_preset("table5"))
        assert "recovered dynamic range: 140.0000 dB" in report.metrics_text
        assert "45.15 dB" in report.metrics_text

    def test_fig6_equal_peaks(self):
        report = run(load_preset("fig6"))
        np.testing.assert_allclose(report.image.estimates, 1.0, rtol=1e-9)
        assert report.spectra is not None

    def test_fig9_invalid_flags_channels_1_2_3_5(self):
        report = run(load_preset("fig9-invalid"))
        assert report.validation.flagged_indices() == (0, 1, 2, 4)
        rel = np.abs(report.image.estimates - report.scene.irradiance)
        lit = report.scene.irradiance > 0
        assert (rel[lit] / report.scene.irradiance[lit]).max() > 0.01

    def test_fig9_valid_is_clean(self):
        report = run(load_preset("fig9-valid"))
        lit = report.scene.irradiance > 0
        rel = (
            np.abs(report.image.estimates - report.scene.irradiance)[lit]
            / report.scene.irradiance[lit]
        )
        assert rel.max() <= 1e-9
        # noiseless decode reproduces the designed patch dynamic range
        for entry in report.patch.entries:
            assert abs(entry.measured_dr_db - entry.designed_dr_db) <= 1e-6

    @pytest.mark.parametrize("name", ["table5", "fig6", "fig9-valid", "hdr66-fdma"])
    def test_permissive_on_a_passing_plan_writes_the_strict_files(self, name, tmp_path):
        # the flag only lets a failing plan run; on a passing one only the config records it
        scenario = load_preset(name)
        run(scenario, outdir=tmp_path / "strict")
        run(scenario_from_dict(dict(scenario.to_dict(), permissive=True)),
            outdir=tmp_path / "permissive")
        names = sorted(path.name for path in (tmp_path / "strict").iterdir())
        assert names == sorted(path.name for path in (tmp_path / "permissive").iterdir())
        for file in names:
            same = (tmp_path / "strict" / file).read_bytes() == (
                tmp_path / "permissive" / file).read_bytes()
            assert same == (file != "resolved_config.json"), file

    def test_spectral_line_stripes_follow_commanded_rows(self):
        report = run(load_preset("spectral-line"))
        target = report.scenario.target
        assert len(report.stripes) == len(target.bands)
        for i, stripe in enumerate(report.stripes):
            assert stripe.row == target.start_row + i * target.row_step

    def test_dispersion_check_report(self):
        report = run(load_preset("dispersion-check"))
        text = report.metrics_text
        assert "1.5640 nm/mrad" in text
        assert "6.1538 nm" in text
        assert "lens constraints" in text and "pass" in text

    def test_alternate_anchor_calibration(self):
        # the short-end calibration point can sit at 412 nm instead of 399 nm
        doc = {
            "mode": "optics-check",
            "anchors": [[732.0, 0.0], [412.0, 51.0]],
            "span_nm": [412.0, 732.0],
            "n_columns": 52,
        }
        report = run(scenario_from_dict(doc))
        assert "412 nm -> column 51" in report.metrics_text


class TestImageFileTarget:
    def test_csv_scene_round_trips_through_simulation(self, tmp_path):
        from caossim.fileio import write_matrix_csv

        scene = np.array([[1.0, 0.25], [0.5, 0.125]])
        path = tmp_path / "scene.csv"
        write_matrix_csv(path, scene)
        doc = {
            "mode": "fdma-tdma",
            "grid": {"rows": 2, "cols": 2},
            "target": {"kind": "image-file", "path": str(path)},
            "plan": {"T": 1.0, "p": 12, "m": 7, "P": 2},
            "seed": 0,
        }
        report = run(scenario_from_dict(doc))
        np.testing.assert_allclose(report.image.estimates, scene, rtol=1e-9)

    def test_pgm_scene_loads(self, tmp_path):
        from caossim.fileio import read_pgm16, write_pgm16

        scene = np.array([[65535.0, 16384.0], [8192.0, 0.0]])
        path = tmp_path / "scene.pgm"
        write_pgm16(path, scene)
        doc = {
            "mode": "cdma",
            "grid": {"rows": 2, "cols": 2},
            "target": {"kind": "image-file", "path": str(path)},
            "cdma": {"code_length": 8, "bit_rate": 1000.0, "samples_per_bit": 2},
            "seed": 0,
        }
        report = run(scenario_from_dict(doc))
        np.testing.assert_allclose(report.image.estimates, read_pgm16(path), rtol=1e-9)

    def test_pgm_with_a_non_positive_size_rejected_by_path(self, tmp_path):
        # numpy would read a count of -4 as "all" and infer the -2 axis: a 2x2 image
        path = tmp_path / "scene.pgm"
        path.write_bytes(b"P5\n-2 2\n65535\n" + bytes(8))
        doc = {
            "mode": "fdma-tdma",
            "grid": {"rows": 2, "cols": 2},
            "target": {"kind": "image-file", "path": str(path)},
            "plan": {"T": 1.0, "p": 12, "m": 7, "P": 2},
        }
        message = f"'target.path' {path} is not a usable image: PGM size must be positive"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            run(scenario_from_dict(doc))

    @pytest.mark.parametrize("mode", ["fdma-tdma", "cdma"])
    @pytest.mark.parametrize("shape", [(4, 4), (2, 2), (3, 4)])
    def test_image_not_matching_grid_rejected_by_path(self, tmp_path, shape, mode):
        from caossim.fileio import write_matrix_csv

        path = tmp_path / "scene.csv"
        write_matrix_csv(path, np.ones(shape))
        doc = {
            "mode": mode,
            "grid": {"rows": 3, "cols": 3},
            "target": {"kind": "image-file", "path": str(path)},
            **({"cdma": {"code_length": 16}} if mode == "cdma" else
               {"plan": {"T": 1.0, "p": 10, "m": 7, "P": 1}}),
        }
        message = f"'target.path' {path} holds a {shape[0]}x{shape[1]} image, but the grid is 3x3"
        with pytest.raises(ScenarioError, match=re.escape(message)):
            run(scenario_from_dict(doc))
