"""Every preset still decodes to the stored benchmark reference.

perfbench/reference/ holds each preset's decoded images (run at its stored
seed) and the optics-check report.  The benchmark rejects a rewrite whose
images move by more than 1e-12 of the image peak; checking the same bound
here shows an output drift in the test suite, not only in a benchmark run.
The reference files are read by path and never written.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from caossim import load_preset, run

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
TOL = 1e-12  # of the reference image's peak
META = json.loads((REFERENCE / "meta.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def images():
    with np.load(REFERENCE / "decoded.npz") as arrays:
        return {k: arrays[k] for k in arrays.files}


@pytest.mark.parametrize("name", sorted(META["seeds"]))
def test_preset_matches_reference(name, images):
    scenario = dataclasses.replace(load_preset(name), seed=META["seeds"][name])
    report = run(scenario)
    if scenario.mode == "optics-check":
        assert report.metrics_text == META["optics_text"][name]
        return
    keys = [f"{name}/{i}" for i in range(len(report.images))]
    assert sorted(k for k in images if k.rpartition("/")[0] == name) == sorted(keys)
    for key, image in zip(keys, report.images):
        want = images[key]
        assert image.estimates.shape == want.shape, key
        peak = float(np.max(np.abs(want)))
        err = float(np.max(np.abs(image.estimates - want))) / (peak if peak > 0 else 1.0)
        assert err <= TOL, f"{key} differs from the reference by {err:.3g} of peak"
