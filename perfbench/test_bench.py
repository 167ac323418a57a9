"""Self-test of the benchmark: every workload once, at reduced size.

    python3 -m pytest perfbench/test_bench.py -q

Each workload runs in its own process, untraced and traced, and must pass
all of its output checks and report every metric ``BENCHMARK.json``
declares, with the declared unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7
# the workloads BENCHMARK.json runs, and the two kept for runs by hand
WORKLOADS = ["scenarios", "dynamics", "pairs", "subsets"]

NAMED_METRICS = {
    0: {"setup_s", "wall_per_ref", "peak_rss_mb"},
    1: {
        "fock_core.enumerate_s",
        "fock_core.sector_dim",
        "states.build_s",
        "states.terms",
        "states.kept_ratio",
        "dynamics.assemble_s",
        "dynamics.propagate_s",
        "dynamics.matrix_bytes",
        "entanglement.rdm_s",
        "entanglement.rdm_calls",
        "entanglement.rdm_bytes",
        "entanglement.entropy_s",
        "analytic.closed_form_s",
        "cli.emit_s",
        "cli.fermi_s",
        "cli.exciton_s",
        "cli.qh_s",
        "cli.bcs_s",
        "cli.bogoliubov_s",
        "cli.dynamics_s",
        "cli.verify_s",
        "bench.trace_overhead_s",
    },
}


def run_benchmark(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(root / "perfbench" / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(SEED),
            "--seconds",
            "0",
            "--trace",
            str(trace),
            "--size",
            "small",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_gates_pass_and_every_metric_is_reported(workload, trace):
    done = run_benchmark(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in declared}
    assert NAMED_METRICS[trace] <= set(reported)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))

    record = json.loads((ROOT / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    assert record["error_rate"] == 0.0
    assert record["wall_s"]["n"] >= 1
    assert record["wall_per_ref"]["n"] == record["wall_s"]["n"]
    for key in ("python", "numpy", "scipy", "blas", "blas_threads", "nproc", "commit"):
        assert key in record["environment"]


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_benchmark(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
