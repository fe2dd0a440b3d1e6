"""The benchmark's workloads: which presets one iteration runs, and how.

This module holds data only, so the harness parent can read it without
importing numpy or caossim.

Why these two:

* ``in-memory`` is the user's longest wait (``caossim reproduce hdr66-fm``,
  then ``hdr66-fdma``) followed by the CDMA line scan ``spectral-line``.
  hdr66 is the only noisy preset, so this is the workload the seed changes.
  Its time is the per-slot FFT and the Philox noise draw; the dense Walsh
  encode/decode of ``spectral-line`` is ~3% of it but sets its peak RSS.
* ``reproduce-artifacts`` runs the five small TDMA and optics presets the
  way ``reproduce`` does, writing every artifact file.  It exercises the
  spectrum path, the permissive (partial-cycle) path and a failing plan
  audit, so a change that speeds up bin readout at their expense shows
  here.  It does no CDMA work.

``spectral-line`` is not a workload of its own: it is memory-bound, and its
time moves by up to ~45% with other tenants' load on a shared host, more
than any bound allows.  Inside the 12-second ``in-memory`` iteration that
noise is under 1%.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    presets: tuple[str, ...]
    write_outputs: bool  # each preset run writes to a fresh output directory
    samples: int  # simulated detector samples per iteration


WORKLOADS = {
    w.name: w
    for w in (
        Workload("in-memory", ("hdr66-fm", "hdr66-fdma", "spectral-line"), False, 95_543_296),
        Workload(
            "reproduce-artifacts",
            ("table5", "fig6", "fig9-valid", "fig9-invalid", "dispersion-check"),
            True,
            2_850_816,
        ),
    )
}
