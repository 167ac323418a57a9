"""fockent benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload dynamics --seed 42 --seconds 60 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``.  One workload runs in one process, so the peak
resident memory is that workload's.  The workloads are in
``workloads.py``, the per-layer spans in ``tracing.py``.

``--trace 0`` times untraced passes and reports the end-to-end metrics.
``wall_per_ref`` is the median over the passes of a pass's own time
divided by the mean time of a fixed reference kernel timed during or
right around the pass (``reference.py``): the host's speed can change by
a factor of two within seconds, and the ratio cancels most of that, while
a change to the package moves it as much as it moves the pass.  The passes' own wall
times (median, quartiles, fastest, count) are in the record.
``setup_s`` is the median of the set-ups, one before the first pass and
one or more after each pass.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics, each the median over the
traced passes.

Either way the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``, and a full
record (environment, all samples, quartiles, check failures, spans) is
written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

# Fixed before numpy loads: one BLAS thread keeps the timings steady.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SHARE = 0.1

END_TO_END = {"setup_s": "s", "wall_per_ref": "ratio", "peak_rss_mb": "MB"}

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import fockent.cli; print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "small"), default="full", help="small: self-test inputs"
    )
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Time importing the package and its command line in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return float(done.stdout.strip())


def summary(samples: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (samples[0],) * 3
    return {
        "min": min(samples),
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "n": len(samples),
        "samples": samples,
    }


def measure(set_up, sampler, checks, seconds: float, tracer):
    """Run passes until the next one would end past ``seconds``.

    An untraced pass runs under the sampler; its own time is its wall
    time less the time the sampler took from it.  After every pass the
    workload is set up again, as often as fits in ``SETUP_SHARE`` of the
    pass's time but at least once, so the set-up samples are many and
    spread over the run like the passes.  With a tracer, untraced and traced passes
    alternate, untraced first.
    """
    setups: list[float] = []
    walls: list[float] = []
    ratios: list[float] = []
    traced: list[float] = []
    rounds: list[float] = []
    begin = time.perf_counter()
    workload = set_up(setups)
    while True:
        use_trace = tracer is not None and len(traced) < len(walls)
        round_start = time.perf_counter()
        gc.collect()  # each pass starts from the same heap
        with tracer.installed() if use_trace else sampler.sampling() as sampled:
            start = time.perf_counter()
            try:
                workload.run_pass(checks)
            except Exception as exc:  # a pass that raises is a failed check
                traceback.print_exc()
                checks.check(False, f"pass raised {exc!r}")
            took = time.perf_counter() - start
        if use_trace:
            traced.append(took)
        else:
            walls.append(took - sampled["spent"])
            ratios.append(walls[-1] / sampled["kernel_s"])
        setting_up = time.perf_counter()
        set_up(setups)
        while time.perf_counter() - setting_up < SETUP_SHARE * took:
            set_up(setups)
        rounds.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - begin
        complete = tracer is None or len(traced) == len(walls)
        if complete and elapsed + statistics.median(rounds) > seconds:
            return setups, walls, ratios, traced


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fockent" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fockent
    import fockent.cli

    if Path(fockent.__file__).resolve().parent != SRC / "fockent":
        print(f"error: imported fockent from {fockent.__file__}", file=sys.stderr)
        return 2
    from reference import Sampler
    from tracing import LAYER_METRICS, Tracer
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    small = args.size == "small"

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        make = WORKLOADS[args.workload]

        def set_up(samples: list[float]):
            imported = import_seconds()
            workdir = Path(tmp) / f"setup{len(samples)}"
            workdir.mkdir()
            start = time.perf_counter()
            workload = make(fockent, args.seed, small, workdir)
            samples.append(imported + time.perf_counter() - start)
            return workload

        checks = Checks()
        tracer = Tracer(fockent) if args.trace else None
        setup_samples, walls, ratios, traced = measure(
            set_up, Sampler(make.REFERENCE), checks, args.seconds, tracer
        )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "environment": environment(),
        "attempted": checks.attempted,
        "failed": checks.failed,
        "error_rate": checks.failed / checks.attempted if checks.attempted else 1.0,
        "failures": checks.failures,
        "setup_s": summary(setup_samples),
        "wall_s": summary(walls),
        "reference": make.REFERENCE,
        "wall_per_ref": summary(ratios),
    }
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_per_ref": statistics.median(ratios),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        per_pass = tracer.pass_metrics()
        values = {
            name: statistics.median(layers[name] for layers, _ in per_pass)
            for name in LAYER_METRICS
            if not name.startswith("bench.")
        }
        values["bench.trace_overhead_s"] = min(traced) - min(walls)
        values["bench.layer_share"] = statistics.median(
            self_total / wall for (_, self_total), wall in zip(per_pass, traced)
        )
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in LAYER_METRICS.items()
        }
        record["traced_wall_s"] = summary(traced)
        record["spans"] = tracer.span_records()
    record["metrics"] = metrics

    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    wall, ratio = record["wall_s"], record["wall_per_ref"]
    print(
        f"{args.workload}: wall_per_ref {ratio['median']:.4f} "
        f"[q1 {ratio['q1']:.4f}, q3 {ratio['q3']:.4f}, n={ratio['n']}]; "
        f"wall_s median {wall['median']:.4f} [min {wall['min']:.4f}], "
        f"error_rate {record['error_rate']:g} ({checks.failed}/{checks.attempted}); "
        f"record {path.relative_to(ROOT)}"
    )
    for failure in checks.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
