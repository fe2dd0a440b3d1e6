"""Scenario parsing, preset integrity and runner behavior."""

import copy
import dataclasses
import json
import re
import typing
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import caossim.runner
from caossim.encoder import CdmaConfig, WalshAssignment, encode_cdma
from caossim.freq_plan import MainsGuardWarning, validate_plan
from caossim.runner import FULL_SCALE_HEADROOM, PlanRejectedError, build_scene, run
from caossim.scenario import (
    NESTED,
    Scenario,
    ScenarioError,
    load_preset,
    preset_names,
    scenario_from_dict,
)
from caossim.waveform import SamplingWindow

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

OPTICS = {"mode": "optics-check"}


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
        ],
    )
    def test_plan_that_cannot_be_built_rejected_at_parse(self, plan, key):
        with pytest.raises(ScenarioError, match=re.escape(repr(key))):
            scenario_from_dict(dict(TINY_FDMA, plan=plan))

    def test_low_carrier_warns_once_in_the_run_not_at_parse(self):
        doc = dict(TINY_FDMA, plan={"T": 1.0, "p": 12, "m": 1, "P": 4})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scenario = scenario_from_dict(doc)
        with pytest.warns(MainsGuardWarning) as record:
            run(scenario)
        assert [w.category for w in record] == [MainsGuardWarning]

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


# candidate values that break a rule, by the JSON type of the number it holds
BREAKERS = {int: [0, -1, 3, 25], float: [0.0, -1.0]}

# every key some preset sets that a rule bounds
RULED_KEYS = {
    "grid.rows", "grid.cols", "adc.bits", "adc.full_scale", "n_columns",
    "plan.T", "plan.p", "plan.m", "plan.P", "plan.frequencies",
    "cdma.code_length", "cdma.bit_rate", "cdma.samples_per_bit",
    "noise.awgn_sigma", "noise.mains_amplitude", "noise.pink_sigma", "noise.dark_offset",
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
            (OPTICS, "span_nm", [732.0, 412.0], "'span_nm' must run from low to high"),
            (OPTICS, "span_nm", [412.0, 412.0], "'span_nm' must run from low to high"),
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

        def forbidden(*args, **kwargs):
            raise AssertionError("a slot was encoded before the audit verdict")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(caossim.runner, "encode_slot", forbidden)
            with pytest.raises(PlanRejectedError):
                run(scenario)


def _explicit_plan(freqs, permissive=False):
    return scenario_from_dict({
        "mode": "fdma-tdma",
        "grid": {"rows": 1, "cols": len(freqs)},
        "target": {"kind": "uniform", "level": 1.0},
        "plan": {"T": 1.0, "p": 16, "frequencies": freqs},
        "permissive": permissive,
    })


class TestIntegerBins:
    def test_two_carriers_on_one_bin_are_rejected_by_a_strict_run(self):
        with pytest.raises(PlanRejectedError, match="collides with harmonic 1 of 64.0 Hz"):
            run(_explicit_plan([64.0, 64.00000001]))

    @pytest.mark.parametrize("freqs", [[30000.00002], [8192.000005, 4096.0]])
    def test_bin_exact_carrier_off_the_float_grid_runs_permissively(self, freqs):
        report = run(_explicit_plan(freqs, permissive=True))
        assert report.validation is not None
        assert np.all(np.isfinite(report.image.estimates))


class TestCdmaAutoFullScale:
    DOC = {
        "mode": "cdma",
        "grid": {"rows": 2, "cols": 3},
        "target": {"kind": "explicit", "values": [[1.0, 0.5, 0.25], [0.8, 0.0, 0.1]]},
        "cdma": {"code_length": 8, "samples_per_bit": 4},
        "noise": {"awgn_sigma": 0.05},
        "adc": {"enabled": True, "bits": 8},
    }

    @pytest.mark.parametrize("seed", [0, 1])
    def test_auto_full_scale_is_headroom_times_noiseless_peak(self, seed):
        auto = scenario_from_dict(dict(self.DOC, seed=seed))
        grid = auto.grid
        assignment = WalshAssignment.sequential(grid.num_pixels, 8)
        cfg = CdmaConfig(bit_rate=auto.cdma.bit_rate, samples_per_bit=4)
        peak = float(encode_cdma(build_scene(auto.target, grid), assignment, cfg).samples.max())
        adc = dict(self.DOC["adc"], full_scale=FULL_SCALE_HEADROOM * peak)
        explicit = scenario_from_dict(dict(self.DOC, seed=seed, adc=adc))
        assert np.array_equal(run(auto).image.estimates, run(explicit).image.estimates)


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
        from caossim.scenario import ALT_ANCHORS

        doc = {
            "mode": "optics-check",
            "anchors": [list(a) for a in ALT_ANCHORS],
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
