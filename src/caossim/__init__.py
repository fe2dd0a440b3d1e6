"""caossim: deterministic simulator for coded-access optical sensing.

A point photodetector plus a binary micromirror array can image a scene by
time-frequency coding pixel irradiances and undoing the code in DSP.  This
package synthesizes the detector waveforms for the CDMA, FM-TDMA and
FDMA-TDMA encoding modes, models the detection chain (noise, ADC), decodes
the streams back into images, and scores the results (dynamic range, SNR,
acquisition-time models).
"""

from .channel import AdcConfig, NoiseConfig, add_noise, quantize
from .decoder import DecodedImage, assemble_image, decode_cdma, decode_slot
from .encoder import (
    CdmaConfig,
    TdmaSchedule,
    WalshAssignment,
    encode_cdma,
    encode_fm_tdma,
    encode_slot,
    schedule_fdma_tdma,
    walsh_matrix,
)
from .freq_plan import (
    FrequencyPlan,
    ValidationReport,
    available_slots,
    design_plan,
    validate_plan,
)
from .metrics import (
    PatchReport,
    dynamic_range_db,
    encoding_time,
    measure_snr,
    processing_gain_db,
    speedup,
)
from .runner import RunReport, run
from .scenario import Scenario, load_preset, load_scenario, preset_names
from .scene_optics import (
    CaosGrid,
    OpticsConfig,
    Scene,
    SpectralAnchor,
    angular_dispersion,
    check_lens_constraints,
    grating_beta,
    make_hdr_patch_target,
    make_spectral_line_scene,
    wavelength_to_column,
)
from .waveform import (
    SampledSignal,
    SamplingWindow,
    SquareWaveSpec,
    folded_harmonic_bins,
    fourier_coeff_closed,
    fourier_coeff_direct,
    synth_square,
)

__version__ = "0.1.0"
