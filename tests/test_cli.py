"""Command-line interface: subcommands, outputs and exit codes."""

import json

import pytest

import caossim.channel
from caossim.cli import main


def test_plan_generate(capsys):
    code = main(["plan", "generate", "--T", "1", "--p", "16", "--m", "7", "--P", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "64, 128, 256, 512, 1024, 2048, 4096, 8192" in out


def test_plan_generate_prints_the_mains_guard_line_on_stderr(capsys):
    code = main(["plan", "generate", "--T", "1", "--p", "10", "--m", "6", "--P", "2"])
    out, err = capsys.readouterr()
    assert code == 0 and "32, 64" in out
    assert err == "warning: carriers at or below the 50 Hz mains fundamental: 32 Hz\n"
    main(["plan", "generate", "--T", "1", "--p", "16", "--m", "7", "--P", "8"])
    assert capsys.readouterr().err == ""


def test_plan_generate_json(capsys):
    code = main(["plan", "generate", "--T", "0.25", "--p", "14", "--m", "6", "--P", "7", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["channels"] == [128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0]
    assert doc["delta_f"] == 4.0


def test_plan_validate_flags_invalid_set(capsys):
    code = main([
        "plan", "validate", "--df", "4",
        "-f", "1170.3,1368.3,1638.4,2048,2730.6,4096,8192",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out
    for f in ("1170.3", "1368.3", "1638.4", "2730.6"):
        assert f in out
    assert "2048 Hz:" not in out


def test_plan_validate_passes_valid_set(capsys):
    code = main(["plan", "validate", "--df", "4", "-f", "128,256,512,1024,2048,4096,8192"])
    assert code == 0
    assert "pass" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, code",
    [
        (["plan", "validate", "--df", "4", "-f", "nan"], 2),
        (["plan", "validate", "--df", "0", "-f", "4"], 2),
        (["plan", "validate", "--df", "4", "--fs", "inf", "-f", "4"], 2),
        (["plan", "slots", "--fa", "0", "--used", "64"], 2),
        (["plan", "slots", "--fa", "64", "--used", "64,-128"], 2),
        (["plan", "generate", "--T", "-1", "--p", "6", "--m", "1", "--P", "1"], 2),
        (["plan", "generate", "--T", "1", "--p", "6", "--m", "10", "--P", "1"], 1),
        (["plan", "generate", "--T", "1", "--p", "6", "--m", "2000", "--P", "1"], 1),
        (["plan", "slots", "--fa", "64", "--used", "64,100"], 1),
        (["plan", "slots", "--fa", "1e12", "--used", "100"], 1),
        # a scenario file, given by its bytes, that the JSON reader cannot decode
        (["simulate", b"\xff\xfe{}"], 1),
        (["simulate", b"[" * 100_000 + b"]" * 100_000], 1),
    ],
)
def test_bad_plan_settings_exit_without_traceback(argv, code, capsys, tmp_path):
    if isinstance(argv[-1], bytes):  # a scenario file's content: pass the file's path
        (tmp_path / "scenario.json").write_bytes(argv[-1])
        argv = [*argv[:-1], str(tmp_path / "scenario.json")]
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse rejects the value
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    assert captured.out == ""
    assert captured.err.strip() and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, words",
    [
        (["plan", "generate", "--T", "1", "--p", "6", "--m", "2000", "--P", "1"], "fs/4"),
        (["plan", "generate", "--T", "1", "--p", "2000", "--m", "7", "--P", "1"], "p = 2000"),
        (["plan", "validate", "--df", "3", "--fs", "65536", "-f", "3"], "whole number of bins"),
        (["plan", "slots", "--fa", "64", "--used", "64", "--horizon", "0"], "horizon 0"),
        (["plan", "slots", "--fa", "64", "--used", "64", "--horizon", "-1"], "horizon -1"),
    ],
)
def test_rejected_plan_setting_is_named_on_one_line(argv, words, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and words in captured.err


def test_plan_validate_flags_duplicate_carrier(capsys):
    assert main(["plan", "validate", "--df", "1", "-f", "64,64"]) == 1
    out = capsys.readouterr().out
    assert "verdict: FAIL" in out and "collides with harmonic 1 of 64.0 Hz" in out


def test_plan_validate_names_a_harmonic_far_beyond_the_fundamental(capsys):
    assert main(["plan", "validate", "--df", "1", "--fs", "4096", "-f", "1,3"]) == 1
    assert "1.0 Hz: collides with harmonic 1365 of 3.0 Hz" in capsys.readouterr().out


def test_plan_slots(capsys):
    code = main(["plan", "slots", "--fa", "64", "--used", "64,128"])
    out = capsys.readouterr().out
    assert code == 0
    assert "256, 512" in out


def test_simulate_runs_scenario_file(tmp_path, capsys):
    doc = {
        "mode": "fdma-tdma",
        "grid": {"rows": 1, "cols": 2},
        "target": {"kind": "explicit", "values": [[1.0, 0.5]]},
        "plan": {"T": 1.0, "p": 10, "m": 7, "P": 2},
        "seed": 0,
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    code = main(["simulate", str(path), "--outdir", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert (tmp_path / "out" / "decoded.csv").exists()
    assert "mode: fdma-tdma" in out


def test_simulate_missing_file_is_io_failure(capsys):
    assert main(["simulate", "/nonexistent/x.json"]) == 2


def test_simulate_invalid_plan_is_validation_failure(tmp_path, capsys):
    doc = {
        "mode": "fdma-tdma",
        "grid": {"rows": 1, "cols": 2},
        "target": {"kind": "uniform", "level": 1.0},
        "plan": {"T": 0.25, "p": 14, "frequencies": [1170.3, 2048.0]},
        "seed": 0,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "failed validation" in err


def test_simulate_permissive_flag_overrides(tmp_path, capsys):
    doc = {
        "mode": "fdma-tdma",
        "grid": {"rows": 1, "cols": 2},
        "target": {"kind": "uniform", "level": 1.0},
        "plan": {"T": 0.25, "p": 14, "frequencies": [1170.3, 2048.0]},
        "seed": 0,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--permissive"]) == 0


def test_flag_the_scenario_mode_does_not_read_is_rejected_by_name(tmp_path, capsys):
    doc = {
        "mode": "cdma",
        "grid": {"rows": 1, "cols": 2},
        "target": {"kind": "uniform", "level": 1.0},
        "cdma": {"code_length": 4},
    }
    path = tmp_path / "cdma.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--permissive", "--outdir", str(tmp_path / "out")]) == 1
    assert "'permissive'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["reproduce", "dispersion-check", "--log-display"]) == 1
    assert "'log_display'" in capsys.readouterr().err


def test_malformed_scenario_is_validation_failure(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["simulate", str(path)]) == 1


def test_pipeline_precondition_failure_is_clean_exit_1(tmp_path, capsys):
    # parses fine, but only the run reads the image file, whose shape is not the grid's
    image = tmp_path / "small.csv"
    image.write_text("1,0.5\n0.25,0\n")
    doc = {
        "mode": "fdma-tdma",
        "grid": {"rows": 3, "cols": 3},
        "target": {"kind": "image-file", "path": str(image)},
        "plan": {"T": 1.0, "p": 10, "m": 7, "P": 1},
        "seed": 0,
    }
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "scenario rejected" in err and "Traceback" not in err
    assert str(image) in err and "2x2 image" in err and "grid is 3x3" in err


def test_out_of_memory_is_clean_exit_1(tmp_path, capsys, monkeypatch):
    # a noisy run whose noise draw cannot be allocated, without allocating it
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 128. GiB for an array with shape (17179869184,)")

    monkeypatch.setattr(caossim.channel, "_slot_terms", out_of_memory)
    doc = {
        "mode": "fdma-tdma",
        "grid": {"rows": 1, "cols": 2},
        "target": {"kind": "uniform", "level": 0.5},
        "plan": {"T": 1.0, "p": 10, "m": 7, "P": 2},
        "noise": {"awgn_sigma": 0.01},
        "seed": 0,
    }
    path = tmp_path / "noisy.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == ("scenario needs more memory than is available: Unable to allocate 128. GiB"
                   " for an array with shape (17179869184,)\n")


@pytest.mark.parametrize(
    "name, content",
    [
        ("ragged.csv", b"1,0.5\n0.25\n"),
        ("negative.csv", b"1,0.5\n-0.25,0\n"),
        ("nan.csv", b"1,0.5\nnan,0\n"),
        ("truncated.pgm", b"P5\n2 2\n65535\n\x00\x01\x00"),
    ],
)
def test_unusable_image_file_is_named_by_key(tmp_path, capsys, name, content):
    image = tmp_path / name
    image.write_bytes(content)
    doc = {
        "mode": "fdma-tdma",
        "grid": {"rows": 2, "cols": 2},
        "target": {"kind": "image-file", "path": str(image)},
        "plan": {"T": 1.0, "p": 10, "m": 7, "P": 1},
        "seed": 0,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "'target.path'" in err and str(image) in err and "Traceback" not in err


def test_target_that_cannot_fit_is_invalid_scenario(tmp_path, capsys):
    doc = {
        "mode": "fdma-tdma",
        "grid": {"rows": 3, "cols": 3},
        "target": {"kind": "hdr-patches", "attenuations_db": [0.0], "layout": [1, 1],
                   "patch_radius": 5.0},
        "plan": {"T": 1.0, "p": 10, "m": 7, "P": 1},
        "seed": 0,
    }
    path = tmp_path / "toobig.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "invalid scenario" in err and "'target.patch_radius'" in err


def test_reproduce_list(capsys):
    assert main(["reproduce", "--list"]) == 0
    out = capsys.readouterr().out
    assert "table5" in out and "dispersion-check" in out


def test_reproduce_unknown_preset(capsys):
    assert main(["reproduce", "definitely-not-a-preset"]) == 1


def test_reproduce_table5(tmp_path, capsys):
    code = main(["reproduce", "table5", "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "recovered dynamic range: 140.0000 dB" in out
    assert (tmp_path / "spectra.csv").exists()


def test_reproduce_into_an_existing_file_is_an_io_failure(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    assert main(["reproduce", "table5", "--outdir", str(taken)]) == 2
    assert "I/O failure" in capsys.readouterr().err


def test_reproduce_dispersion_check(capsys):
    code = main(["reproduce", "dispersion-check"])
    out = capsys.readouterr().out
    assert code == 0
    assert "nm/mrad" in out


def test_reproduce_log_display_flag(tmp_path):
    code = main(["reproduce", "fig9-valid", "--outdir", str(tmp_path), "--log-display"])
    assert code == 0
    assert (tmp_path / "decoded_log.pgm").exists()
