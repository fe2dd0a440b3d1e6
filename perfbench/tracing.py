"""Spans around caossim's layer entry points, installed from outside.

The runner binds names at import (``from .decoder import fft_radix2``), so a
wrapper must replace the name in the module that makes the call: the stage
calls in ``caossim.runner``, and the child calls in ``caossim.decoder`` and
``caossim.encoder``.  ``fileio``, ``metrics`` and ``scenario`` functions are
reached through their module, so they are wrapped there.

Spans (name, start, end, parent, run id) stay in memory; a layer's self time
is its span time minus the time its child spans cover.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import caossim.decoder
import caossim.encoder
import caossim.fileio
import caossim.metrics
import caossim.runner
import caossim.scenario


def _fft_points(counts, result, samples):
    counts["decoder.fft_points"] += len(samples)


def _spectrum_fft(counts, result, samples):
    _fft_points(counts, result, samples)
    counts["decoder.bins_written"] += len(samples) // 2 + 1


def _readout(counts, result, stream, slot, *plan):
    counts["decoder.bins_read"] += len(slot)


def _noise(counts, result, stream, cfg, slot_index):
    draws = (cfg.awgn_sigma > 0) + (cfg.pink_enabled and cfg.pink_sigma > 0)
    counts["channel.noise_samples"] += draws * len(stream)


def _quantize(counts, result, stream, cfg):
    counts["channel.clipped_samples"] += result[1]


def _walsh_bytes(counts, L, npix):
    # the L x L int8 matrix plus the npix x L float64 row gather
    counts["encoder.walsh_bytes"] += L * L + npix * L * 8


def _encode_cdma(counts, result, scene, assignment, cfg):
    _walsh_bytes(counts, assignment.code_length, scene.irradiance.size)


def _decode_cdma(counts, result, stream, assignment, cfg, grid):
    L = assignment.code_length
    _walsh_bytes(counts, L, grid.num_pixels)
    counts["encoder.walsh_bytes"] += L * L * 8  # decode's float64 copy of the matrix


def _validate(counts, result, *args, **kwargs):
    counts["freq_plan.flagged_channels"] += len(result.flagged_indices())


# (module, attribute, span name, counter or None)
PATCHES = (
    (caossim.runner, "build_scene", "scene_optics.build", None),
    (caossim.runner, "make_spectral_line_scene", "scene_optics.build", None),
    (caossim.runner, "design_plan", "freq_plan.design_plan", None),
    (caossim.runner, "plan_from_frequencies", "freq_plan.design_plan", None),
    (caossim.runner, "validate_plan", "freq_plan.validate_plan", _validate),
    (caossim.runner, "encode_slot", "encoder.encode_slot", None),
    (caossim.runner, "add_noise", "channel.add_noise", _noise),
    (caossim.runner, "quantize", "channel.quantize", _quantize),
    (caossim.runner, "fft_radix2", "decoder.fft_radix2", _spectrum_fft),
    (caossim.runner, "decode_slot", "decoder.readout", _readout),
    (caossim.runner, "decode_slot_free", "decoder.readout", _readout),
    (caossim.runner, "assemble_image", "decoder.assemble_image", None),
    (caossim.runner, "encode_cdma", "encoder.encode_cdma", _encode_cdma),
    (caossim.runner, "decode_cdma", "decoder.decode_cdma", _decode_cdma),
    (caossim.runner, "_write_outputs", "runner.write_outputs", None),
    (caossim.decoder, "fft_radix2", "decoder.fft_radix2", _fft_points),
    (caossim.decoder, "walsh_matrix", "encoder.walsh_matrix", None),
    (caossim.encoder, "walsh_matrix", "encoder.walsh_matrix", None),
    (caossim.encoder, "synth_square", "waveform.synth_square", None),
    (caossim.encoder, "sample_square_free", "waveform.sample_square_free", None),
    (caossim.fileio, "write_matrix_csv", "fileio.write_matrix_csv", None),
    (caossim.fileio, "write_pgm16", "fileio.write_pgm16", None),
    (caossim.metrics, "patch_report", "metrics.patch_report", None),
    (caossim.scenario, "load_preset", "scenario.load_preset", None),
)

ROOT = "runner"


class Tracer:
    """Records spans and counts while installed; one tracer per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.counts: Counter = Counter()
        self.stray_calls = 0  # wrapper calls after uninstall; must stay 0
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self._run_id = None
        self._active = False

    def install(self) -> None:
        for module, attr, name, counter in PATCHES:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))
        self._active = True

    def uninstall(self) -> None:
        self._active = False
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)

    def originals_restored(self) -> bool:
        return all(getattr(m, a) is f for m, a, f in self._originals)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self._run_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("span closed out of order")

    @contextmanager
    def span(self, name: str, run_id):
        self._run_id = run_id
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, fn, name: str, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                self.stray_calls += 1
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self.counts[name + ".calls"] += 1
            if counter is not None:
                counter(self.counts, result, *args, **kwargs)
            return result

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Span time minus child-span time, summed per span name."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def nesting_errors(self, wall: float) -> list[str]:
        """Spans closed and nested inside their parent; sum of self <= wall."""
        errors = []
        if self._stack:
            errors.append(f"{len(self._stack)} spans left open")
        for name, start, end, parent, run_id in self.spans:
            if end is None or end < start:
                errors.append(f"span {name} not closed")
            elif parent is None:
                if name not in (ROOT, "scenario.load_preset"):
                    errors.append(f"span {name} has no parent")
            else:
                p = self.spans[parent]
                if not (p[1] <= start and p[2] is not None and end <= p[2]) or p[4] != run_id:
                    errors.append(f"span {name} not nested in {p[0]}")
        if not errors:
            total = sum(self.self_times().values())
            if not total <= wall:
                errors.append(f"sum of self times {total:.6f} s exceeds wall {wall:.6f} s")
        return errors
