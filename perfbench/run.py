"""caossim benchmark: end-to-end and per-layer metrics for two workloads.

    python3 perfbench/run.py --workload in-memory --seed 6 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both tables

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each workload runs in fresh worker processes (worker.py) with
BLAS pinned to BLAS_THREADS threads:

* ``--trace 0`` prints the end-to-end metrics.  Workers run back to back
  for ``--seconds`` (at least two of them), each a cold iteration and then
  warm ones for a WORKERS-th of ``--seconds`` (at least one), so that a
  slow spell on the host does not cover all the samples.  ``run_s`` is the
  median warm iteration; ``cold_run_s`` the median first iteration of a
  worker; ``setup_s`` (interpreter start, ``import caossim`` and parsing
  the workload's presets) the median over at least SETUP_SAMPLES fresh
  processes; ``peak_rss_mb`` the largest worker ``ru_maxrss``.  The table
  also prints the sample count, the minimum and a high percentile of every
  timing.
* ``--trace 1`` prints the per-layer metrics from one worker that alternates
  untraced and traced iterations and self-tests the tracer.

Metric names and units come from BENCHMARK.json at the repo root; a worker
that reports any other set of metrics stops the run.

Every iteration passes the correctness gates in gates.py and must reproduce
the first iteration exactly, in every process.  The last stdout line is one
JSON object {correct, attempted, failed, metrics}.  Exit codes: 0 correct,
1 an iteration failed its gate, 2 the harness could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1  # single-threaded baseline; 2 threads on spectral-line were within noise
WORKERS = 10  # a worker's warm iterations last --seconds / WORKERS
SETUP_SAMPLES = 25
DEADLINE_S = 170.0  # a workload's run must end within 180 s


class HarnessError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def metric_units() -> tuple[dict, dict]:
    """{name: unit} for the end-to-end and the per-layer metrics."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise HarnessError(f"cannot read BENCHMARK.json: {exc}") from exc
    return tuple({m["name"]: m["unit"] for m in spec[k]} for k in ("end_to_end", "per_layer"))


def _same_names(got: dict, want: dict, what: str) -> None:
    if set(got) != set(want):
        raise HarnessError(f"{what} metrics {sorted(set(got) ^ set(want))}"
                           " do not match BENCHMARK.json")


class Runner:
    def __init__(self, workload: str, seed: int, seconds: int, outroot: Path):
        self.workload = workload
        self.workload_seed = [workload, str(seed)]
        self.seconds = seconds
        self.outroot = outroot
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ)
        self.env.pop("CAOSSIM_OUTDIR", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def spawn(self, mode: str, seconds: float = 0.0) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError(f"{self.workload}: out of time before the {mode} worker")
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "worker.py"), mode, *self.workload_seed,
               repr(seconds), repr(t0), str(self.outroot)]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise HarnessError(f"{self.workload}: {mode} worker timed out") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise HarnessError(f"{self.workload}: {mode} worker failed:\n{proc.stderr[-3000:]}")
        return json.loads(lines[-1])

    def untraced(self) -> tuple[dict, dict, list[dict]]:
        """End-to-end metrics, the timing samples behind them, worker results."""
        self.spawn("setup")  # writes bytecode caches; not measured
        # Short workers back to back, with setup-only processes between
        # them, spread the timed iterations over the whole run.
        workers, setups = [], []
        start = time.monotonic()
        while len(workers) < 2 or time.monotonic() - start < self.seconds:
            workers.append(self.spawn("main", self.seconds / WORKERS))
            setups += [workers[-1]["setup_s"], self.spawn("setup")["setup_s"]]
        while len(setups) < SETUP_SAMPLES:
            setups.append(self.spawn("setup")["setup_s"])
        warm = [t for w in workers for t in w["warm_s"]]
        run_s = statistics.median(warm)
        metrics = {
            "run_s": run_s,
            "samples_per_s": WORKLOADS[self.workload].samples / run_s,
            "cold_run_s": statistics.median(w["cold_s"] for w in workers),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(w["rss_mb"] for w in workers),
        }
        samples = {
            "run_s": warm,
            "cold_run_s": [w["cold_s"] for w in workers],
            "setup_s": setups,
        }
        return metrics, samples, workers

    def traced(self) -> tuple[dict, dict]:
        self.spawn("setup")  # writes bytecode caches; not measured
        worker = self.spawn("trace", self.seconds)
        return worker["layers"], worker


def _tally(workers: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed iterations; a process whose results differ from
    the first process's counts as one more failure."""
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    errors = [e for w in workers for e in w["errors"]]
    for w in workers[1:]:
        if w["signature"] != workers[0]["signature"]:
            failed += 1
            errors.append("a fresh process reproduced different results")
    return attempted, failed, errors


def _high(values: list[float]) -> str:
    """The highest percentile with at least ten samples above it, else the max."""
    v = sorted(values)
    if len(v) <= 10:
        return f"max {v[-1]:.4g}"
    return f"p{100 * (len(v) - 10) // len(v)} {v[len(v) - 11]:.4g}"


def _print_header(name: str, args, worker: dict) -> None:
    m = worker["machine"]
    wl = WORKLOADS[name]
    print(f"workload {name} (seed {args.seed}, {args.seconds} s, trace {args.trace}):"
          f" {', '.join(wl.presets)}; {wl.samples} samples per iteration")
    print(f"  machine: nproc {m['nproc']}, {m['cpu']}, Python {m['python']},"
          f" numpy {m['numpy']}, BLAS {m['blas']}, {m['blas_threads']} BLAS thread(s)")


def run_workload(name: str, args, outroot: Path) -> tuple[dict, int, int]:
    e2e_units, layer_units = metric_units()
    runner = Runner(name, args.seed, args.seconds, outroot)
    if args.trace:
        layers, worker = runner.traced()
        _same_names(layers, layer_units, "per-layer")
        attempted, failed, errors = _tally([worker])
        _print_header(name, args, worker)
        wall = statistics.median(worker["traced_s"])
        print(f"  traced iterations: {len(worker['traced_s'])}, median {wall:.4f} s")
        print(f"  {'layer metric':36} {'value':>14} {'unit':6} {'share':>6}")
        for key, value in layers.items():
            unit = layer_units[key]
            share = f"{value / wall:6.1%}" if unit == "s" else ""
            print(f"  {key:36} {value:14.6g} {unit:6} {share:>6}")
        metrics = {k: {"value": v, "unit": layer_units[k]} for k, v in layers.items()}
    else:
        values, samples, workers = runner.untraced()
        _same_names(values, e2e_units, "end-to-end")
        attempted, failed, errors = _tally(workers)
        _print_header(name, args, workers[0])
        print(f"  {'metric':14} {'value':>12} {'unit':5} {'n':>4} {'min':>9} {'high':>15}")
        for key, value in values.items():
            line = f"  {key:14} {value:12.6g} {e2e_units[key]:5}"
            if key in samples:
                vals = samples[key]
                line += f" {len(vals):4} {min(vals):9.4g} {_high(vals):>15}"
            print(line)
        print(f"  {'failed_frac':14} {failed / attempted:12.6g} {'ratio':5} {attempted:3}")
        metrics = {k: {"value": v, "unit": e2e_units[k]} for k, v in values.items()}
    for e in errors:
        print(f"  FAILED: {e}")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=6, help="scenario seed (6: the hdr66 presets')")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "caossim" / "__init__.py").is_file():
        print(f"error: no caossim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    outroot = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_tmp"))
    metrics, attempted, failed = {}, 0, 0
    try:
        if args.workload == "all":
            for name in WORKLOADS:
                for trace in (0, 1):
                    args.trace = trace
                    m, a, f = run_workload(name, args, outroot)
                    metrics.update({f"{name}/{k}": v for k, v in m.items()})
                    attempted, failed = attempted + a, failed + f
        else:
            metrics, attempted, failed = run_workload(args.workload, args, outroot)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(outroot, ignore_errors=True)
        try:
            outroot.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
