"""Write the decoded-output reference the correctness gate compares against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only to re-baseline on purpose: a rewrite is meant to agree with the
stored reference to 1e-12 of each image peak, not to replace it.  Each preset
runs at its own seed.
"""

import json
from pathlib import Path

import numpy as np

from caossim import load_preset, run
from workloads import WORKLOADS

OUT = Path(__file__).resolve().parent / "reference"


def main() -> None:
    meta = {"seeds": {}, "optics_text": {}}
    images = {}
    for workload in WORKLOADS.values():
        for name in workload.presets:
            scenario = load_preset(name)
            report = run(scenario)
            meta["seeds"][name] = scenario.seed
            if scenario.mode == "optics-check":
                meta["optics_text"][name] = report.metrics_text
            for i, image in enumerate(report.images):
                images[f"{name}/{i}"] = image.estimates
    OUT.mkdir(exist_ok=True)
    np.savez_compressed(OUT / "decoded.npz", **images)
    (OUT / "meta.json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
