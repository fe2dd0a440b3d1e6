"""One benchmark process: set a workload up, run it, print one JSON line.

run.py starts each worker in a fresh interpreter, so its setup time, its
first (cold) iteration and its peak RSS belong to one workload alone.

    worker.py MODE WORKLOAD SEED SECONDS T_SPAWN OUTROOT

MODE is ``setup`` (import and parse only), ``main`` (plus one cold
iteration and warm iterations for SECONDS, at least one) or ``trace``
(untraced and traced iterations in turn, at least two of each).  T_SPAWN is
the parent's ``time.monotonic()`` just before it started this process, so
setup time counts from process start.
"""

import sys
import time

MODE, WORKLOAD, SEED, SECONDS, T_SPAWN, OUTROOT = sys.argv[1:7]

import dataclasses  # noqa: E402
import os  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WL = WORKLOADS[WORKLOAD]


def _parse():
    from caossim import scenario

    return [dataclasses.replace(scenario.load_preset(p), seed=int(SEED)) for p in WL.presets]


if MODE != "trace":
    import caossim  # noqa: E402

    SCENARIOS = _parse()
    SETUP_S = time.monotonic() - float(T_SPAWN)
    if MODE == "setup":
        print(f'{{"setup_s": {SETUP_S!r}}}')
        sys.exit(0)

import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from time import perf_counter  # noqa: E402

import caossim  # noqa: E402
import caossim.runner  # noqa: E402
import gates  # noqa: E402
import tracing  # noqa: E402

if not Path(caossim.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"caossim imported from {caossim.__file__}, not from {ROOT / 'src'}")

REFERENCE = gates.load_reference()
_dirs = 0


def iterate(scenarios, tracer=None):
    """One timed pass over the workload's presets; returns (wall, reports, outdirs)."""
    global _dirs
    outdirs = []
    for _ in scenarios:
        _dirs += 1
        outdirs.append(Path(OUTROOT) / f"run{_dirs}" if WL.write_outputs else None)
    reports = []
    t0 = perf_counter()
    for name, scenario, out in zip(WL.presets, scenarios, outdirs):
        if tracer is None:
            reports.append(caossim.runner.run(scenario, out))
        else:
            with tracer.span(tracing.ROOT, name):
                reports.append(caossim.runner.run(scenario, out))
    return perf_counter() - t0, reports, outdirs


class Ledger:
    """Gates every iteration and checks that reruns reproduce the first."""

    def __init__(self, scenarios):
        self.scenarios = scenarios
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first = None

    def check(self, reports, outdirs, extra=()) -> dict:
        errors = list(extra)
        sig = {}
        for name, scenario, report, out in zip(WL.presets, self.scenarios, reports, outdirs):
            errors += [f"{name}: {e}" for e in gates.check(name, scenario, report, REFERENCE, out)]
            sig[name] = gates.signature(report, out)
            if out is not None:
                shutil.rmtree(out)
        if self.first is None:
            self.first = sig
        elif sig != self.first:
            errors.append("rerun differs from the first run: " + ", ".join(
                n for n in sig if sig[n] != self.first[n]))
        self.attempted += 1
        self.failed += bool(errors)
        self.errors += errors[: 10 - len(self.errors)]
        return sig

    def result(self, **extra) -> dict:
        digest = hashlib.sha256(json.dumps(self.first, sort_keys=True).encode()).hexdigest()
        return dict(attempted=self.attempted, failed=self.failed, errors=self.errors,
                    signature=digest, **extra)


def machine() -> dict:
    import platform

    import numpy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def check_samples(scenarios) -> None:
    """samples_per_s assumes the workload's fixed size; refuse to run otherwise."""
    n = sum(gates.samples_per_run(s) for s in scenarios)
    if n != WL.samples:
        sys.exit(f"workload {WL.name} simulates {n} samples, expected {WL.samples}")


def run_untraced():
    check_samples(SCENARIOS)
    ledger = Ledger(SCENARIOS)
    cold, reports, outdirs = iterate(SCENARIOS)
    ledger.check(reports, outdirs)
    warm = []
    start = perf_counter()
    while not warm or perf_counter() - start < float(SECONDS):
        wall, reports, outdirs = iterate(SCENARIOS)
        ledger.check(reports, outdirs)
        warm.append(wall)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return ledger.result(setup_s=SETUP_S, cold_s=cold, warm_s=warm, rss_mb=rss_mb,
                         machine=machine())


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(self_s: dict, counts, setup_self: dict, bytes_written: int,
                  overhead: float) -> dict:
    """The per-layer table; times are medians over traced iterations."""
    def t(name):
        return self_s.get(name, 0.0)

    c = counts
    return {
        "decoder.fft_radix2.self_s": t("decoder.fft_radix2"),
        "decoder.fft_radix2.calls": c["decoder.fft_radix2.calls"],
        "decoder.fft_points": c["decoder.fft_points"],
        "decoder.fft_per_slot": _ratio(c["decoder.fft_radix2.calls"], c["encoder.encode_slot.calls"]),
        "decoder.bin_use_ratio": _ratio(c["decoder.bins_read"] + c["decoder.bins_written"],
                                        c["decoder.fft_points"]),
        "decoder.readout.self_s": t("decoder.readout"),
        "decoder.assemble_image.self_s": t("decoder.assemble_image"),
        "channel.add_noise.self_s": t("channel.add_noise"),
        "channel.noise_samples": c["channel.noise_samples"],
        "channel.quantize.self_s": t("channel.quantize"),
        "channel.clipped_samples": c["channel.clipped_samples"],
        "encoder.encode_cdma.self_s": t("encoder.encode_cdma"),
        "decoder.decode_cdma.self_s": t("decoder.decode_cdma"),
        "encoder.walsh_matrix.self_s": t("encoder.walsh_matrix"),
        "encoder.walsh_matrix.calls": c["encoder.walsh_matrix.calls"],
        "encoder.walsh_bytes": c["encoder.walsh_bytes"],
        "encoder.encode_slot.self_s": t("encoder.encode_slot"),
        "encoder.encode_slot.calls": c["encoder.encode_slot.calls"],
        "waveform.synth_square.self_s": t("waveform.synth_square"),
        "waveform.synth_square.calls": c["waveform.synth_square.calls"],
        "waveform.sample_square_free.self_s": t("waveform.sample_square_free"),
        "waveform.sample_square_free.calls": c["waveform.sample_square_free.calls"],
        "runner.write_outputs.self_s": t("runner.write_outputs"),
        "fileio.write_matrix_csv.self_s": t("fileio.write_matrix_csv"),
        "fileio.write_pgm16.self_s": t("fileio.write_pgm16"),
        "runner.bytes_written": bytes_written,
        "scenario.load_preset.self_s": setup_self.get("scenario.load_preset", 0.0),
        "freq_plan.design_plan.self_s": t("freq_plan.design_plan"),
        "freq_plan.validate_plan.self_s": t("freq_plan.validate_plan"),
        "freq_plan.flagged_channels": c["freq_plan.flagged_channels"],
        "scene_optics.build.self_s": t("scene_optics.build"),
        "metrics.patch_report.self_s": t("metrics.patch_report"),
        "runner.self_s": t(tracing.ROOT),
        "trace.overhead_frac": overhead,
    }


def run_traced():
    setup_tracer = tracing.Tracer()
    setup_tracer.install()
    scenarios = _parse()
    setup_tracer.uninstall()
    check_samples(scenarios)
    ledger = Ledger(scenarios)
    _, reports, outdirs = iterate(scenarios)  # cold; fills lazy caches before timing
    ledger.check(reports, outdirs, setup_tracer.nesting_errors(float("inf")))
    traced, untraced, self_times = [], [], []
    counts = None
    start = perf_counter()
    while len(traced) < 2 or perf_counter() - start < float(SECONDS):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall, reports, outdirs = iterate(scenarios, tracer)
        finally:
            tracer.uninstall()
        errors = tracer.nesting_errors(wall)
        if not tracer.originals_restored():
            errors.append("wrappers left installed")
        if counts is None:
            counts = tracer.counts
        elif tracer.counts != counts:
            errors.append("traced counts differ between traced runs")
        # bit-identical to the untraced runs: the ledger compares signatures
        sig = ledger.check(reports, outdirs, errors)
        traced.append(wall)
        self_times.append(tracer.self_times())

        wall, reports, outdirs = iterate(scenarios)
        stray = ["untraced run called a wrapper"] if tracer.stray_calls else []
        ledger.check(reports, outdirs, stray)
        untraced.append(wall)
    names = set().union(*self_times)
    median_self = {n: statistics.median(s.get(n, 0.0) for s in self_times) for n in names}
    bytes_written = sum(s["bytes_written"] for s in sig.values())
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    layers = layer_metrics(median_self, counts, setup_tracer.self_times(), bytes_written,
                           overhead)
    return ledger.result(layers=layers, traced_s=traced, untraced_s=untraced,
                         machine=machine())


print(json.dumps(run_traced() if MODE == "trace" else run_untraced()))
