"""Every library input check raises its own error: one row per check, with the call, the
exception type and a fragment of its message.  A check of a file's contents reads a file
written for the call (``_csv_image``)."""

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from caossim.channel import AdcConfig, NoiseConfig
from caossim.decoder import assemble_image
from caossim.encoder import (
    CdmaConfig,
    TdmaSchedule,
    WalshAssignment,
    encode_fm_tdma,
    schedule_runs,
)
from caossim.fileio import write_pgm16
from caossim.freq_plan import FrequencyPlan, available_slots, design_plan, validate_plan
from caossim.metrics import (
    dynamic_range_db,
    encoding_time,
    measure_snr,
    patch_report,
    processing_gain_db,
    speedup,
)
from caossim.runner import build_scene
from caossim.scenario import DEFAULT_ANCHORS, PlanSpec, Scenario, ScenarioError, TargetSpec
from caossim.scene_optics import (
    CaosGrid,
    OpticsConfig,
    Scene,
    SpectralAnchor,
    make_hdr_patch_target,
    make_spectral_line_scene,
    spectral_width_per_column,
)
from caossim.waveform import (
    SampledSignal,
    SamplingWindow,
    SquareWaveSpec,
    folded_harmonic_bins,
    samples_per_period,
)

GRID = CaosGrid(1, 2)
LINE = TargetSpec(kind="spectral-line", bands=((550.0, 10.0),))
WINDOW = SamplingWindow.design(T=1.0, p=3)  # fs 8, delta_f 1
PLAN = design_plan(T=1.0, p=4, m=1, P=2)
ONE = np.array([[True, False]])


def _csv_image(text):
    """build_scene of a 1x2 image-file target whose CSV file holds ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "scene.csv")
        path.write_text(text, encoding="ascii")
        return build_scene(TargetSpec(kind="image-file", path=str(path)), GRID)


CHECKS = [
    # channel
    ("adc bits", lambda: AdcConfig(bits=1), ValueError, "bits must lie in 2..24"),
    ("adc full scale", lambda: AdcConfig(full_scale=0.0), ValueError,
     "full_scale must be positive"),
    ("noise finite", lambda: NoiseConfig(awgn_sigma=math.inf), ValueError,
     "noise awgn_sigma must be finite"),
    # encoder
    ("walsh length", lambda: WalshAssignment(6, {0: 1}), ValueError,
     "code_length must be a power of two"),
    ("walsh rows unique", lambda: WalshAssignment(8, {0: 1, 1: 1}), ValueError,
     "code rows must be unique"),
    ("cdma bit rate", lambda: CdmaConfig(bit_rate=0.0, samples_per_bit=2), ValueError,
     "bit_rate must be positive"),
    ("cdma samples per bit", lambda: CdmaConfig(bit_rate=1.0, samples_per_bit=0), ValueError,
     "samples_per_bit >= 1"),
    ("tdma duplicate carrier", lambda: TdmaSchedule((((0, 1.0), (1, 1.0)),)), ValueError,
     "duplicate carrier inside a slot"),
    ("schedule no pixel", lambda: schedule_runs(0, PLAN), ValueError, "npix must be >= 1"),
    ("fm-tdma scene shape",
     lambda: encode_fm_tdma(Scene(np.ones((2, 2))), GRID, 1.0, WINDOW), ValueError,
     "scene shape does not match the grid"),
    # decoder
    ("assemble pixel outside",
     lambda: assemble_image([{5: 1.0}], TdmaSchedule((((5, 1.0),),)), GRID), ValueError,
     "pixel id 5 outside the grid"),
    ("assemble coverage gap",
     lambda: assemble_image([{0: 1.0}], TdmaSchedule((((0, 1.0),),)), GRID), ValueError,
     "coverage gap at pixels [1]"),
    # fileio
    ("pgm 1-d", lambda: write_pgm16("never-written.pgm", np.ones(3)), ValueError,
     "PGM export needs a 2-D matrix"),
    ("csv empty", lambda: _csv_image(""), ScenarioError,
     "is not a usable image: the file holds no rows"),
    ("csv blank line", lambda: _csv_image("1.0,0.5\n  \n"), ScenarioError,
     "is not a usable image: line 2 holds only whitespace"),
    # freq_plan
    ("plan no channel", lambda: FrequencyPlan(1.0, 1.0, 8.0, 8, 3, None, (), ()), ValueError,
     "plan needs at least one channel"),
    ("design P", lambda: design_plan(T=1.0, p=8, m=1, P=0), ValueError, "P must be >= 1"),
    ("design m", lambda: design_plan(T=1.0, p=8, m=0, P=1), ValueError, "m must be >= 1"),
    ("validate frequency", lambda: validate_plan([32.0, 0.0], 1.0, 1024.0), ValueError,
     "frequencies must be positive"),
    ("slots used", lambda: available_slots(2.0, []), ValueError, "used list must be nonempty"),
    # metrics
    ("dr order", lambda: dynamic_range_db(1.0, 2.0), ValueError, "i_max must be >= i_min"),
    ("snr masks", lambda: measure_snr(np.ones((1, 2)), ONE, ONE & False), ValueError,
     "masks must be nonempty"),
    ("gain Q", lambda: processing_gain_db(1), ValueError, "Q must be >= 2"),
    ("encoding time", lambda: encoding_time(0, 1, 1.0), ValueError,
     "arguments must be positive"),
    ("speedup", lambda: speedup(1.0, 0.0), ValueError, "t_candidate must be positive"),
    ("patch count", lambda: patch_report(np.ones((1, 2)), [ONE], [1.0, 0.1], ~ONE),
     ValueError, "one designed irradiance per patch mask"),
    # runner and scenario
    ("scene form", lambda: build_scene(LINE, GRID), ScenarioError,
     "target kind 'spectral-line' has no direct scene form"),
    ("plan both forms", lambda: PlanSpec(T=1.0, p=4, m=1, P=1, frequencies=(1.0,)),
     ScenarioError, "give either (m, P) or frequencies, not both"),
    ("plan no form", lambda: PlanSpec(T=1.0, p=4, m=1), ScenarioError,
     "plan needs (m, P) or an explicit frequency list"),
    ("target kind", lambda: TargetSpec(kind="photo"), ScenarioError,
     "unknown target kind 'photo'"),
    ("spectral line mode",
     lambda: Scenario(mode="fdma-tdma", target=LINE, plan=PlanSpec(T=1.0, p=4, m=1, P=1)),
     ScenarioError, "the spectral-line target runs in cdma mode"),
    # scene_optics
    ("grid size", lambda: CaosGrid(0, 2), ValueError, "grid dimensions must be >= 1"),
    ("scene 1-d", lambda: Scene(np.ones(3)), ValueError, "irradiance must be a 2-D matrix"),
    ("grating", lambda: OpticsConfig(grating_freq=0.0), ValueError,
     "grating_freq must be positive"),
    ("focal length", lambda: OpticsConfig(cyl_focal_2=-1.0), ValueError,
     "focal lengths must be positive"),
    ("columns", lambda: spectral_width_per_column(412.0, 732.0, 0), ValueError,
     "n_columns must be >= 1"),
    ("hdr background",
     lambda: make_hdr_patch_target(CaosGrid(5, 5), [0.0], (1, 1), 1.0, -0.1), ValueError,
     "background must be nonnegative"),
    ("spectral row",
     lambda: make_spectral_line_scene(GRID, 1, 550.0, 10.0, OpticsConfig(),
                                      [SpectralAnchor(w, c) for w, c in DEFAULT_ANCHORS]),
     ValueError, "pixel_row outside the grid"),
    # waveform
    ("window delta_f", lambda: SamplingWindow(fs=8.0, T=1.0, Q=8, delta_f=2.0), ValueError,
     "delta_f must equal 1/T"),
    ("window p", lambda: SamplingWindow.design(T=1.0, p=0), ValueError, "p must be >= 1"),
    ("wave frequency", lambda: SquareWaveSpec(frequency=0.0), ValueError,
     "frequency must be positive"),
    ("wave amplitude", lambda: SquareWaveSpec(frequency=1.0, amplitude=-1.0), ValueError,
     "amplitude must be nonnegative"),
    ("signal 2-d", lambda: SampledSignal(np.ones((2, 2)), 8.0), ValueError,
     "samples must be one-dimensional"),
    ("signal finite", lambda: SampledSignal(np.array([0.0, math.nan]), 8.0), ValueError,
     "samples must be finite"),
    ("period samples", lambda: samples_per_period(4.0, WINDOW), ValueError,
     "need at least 4 samples per period, got 2"),
    ("harmonic bins", lambda: folded_harmonic_bins(1.5, WINDOW, 3), ValueError,
     "f must be an integer multiple of delta_f"),
]


@pytest.mark.parametrize("call, error, fragment", [c[1:] for c in CHECKS],
                         ids=[c[0] for c in CHECKS])
def test_input_check_raises(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()
