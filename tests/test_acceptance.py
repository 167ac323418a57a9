"""Acceptance suite: one test per criterion, plus CLI determinism and the
package's export list.

Each criterion prints its own pass/fail line (also visible through
``fockent verify``); the final test reruns the full verification
command twice and requires byte-identical output.
"""

import subprocess
import sys
import types

import pytest

import fockent
from fockent import verification

SEED = 42

CRITERION_IDS = [f"criterion_{index}" for index in sorted(verification.CRITERIA)]


@pytest.mark.parametrize(
    "index", sorted(verification.CRITERIA), ids=CRITERION_IDS
)
def test_criterion(index):
    result = verification.CRITERIA[index](SEED)
    print(result.line())
    assert result.passed, result.line()


def test_criterion_10_verify_command_is_deterministic():
    command = [sys.executable, "-m", "fockent.cli", "verify", "--seed", str(SEED)]
    first = subprocess.run(command, capture_output=True, text=True)
    second = subprocess.run(command, capture_output=True, text=True)
    line = (
        f"criterion 10 [{'PASS' if first.returncode == 0 and first.stdout == second.stdout else 'FAIL'}] "
        "verification determinism: identical stdout across reruns"
    )
    print(line)
    assert first.returncode == 0, first.stdout + first.stderr
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert "9/9 criteria passed" in first.stdout


def test_package_exports_are_consistent():
    names = fockent.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(fockent, name), name
    # __all__ is derived from the imports: it must not pick up a submodule or
    # a helper imported from outside the package
    for name in names:
        value = getattr(fockent, name)
        assert not isinstance(value, types.ModuleType), name
        assert value.__module__.split(".")[0] == "fockent", (name, value.__module__)
    # H acts on states only through the sector matrices; the gap-equation
    # helpers, the truncation bound and the matrix check had no caller
    removed = [
        (fockent.dynamics, "apply_hamiltonian"),
        (fockent.dynamics, "energy_expectation"),
        (fockent.analytic, "GapProfile"),
        (fockent.analytic, "gap_to_pair_amplitude"),
        (fockent.analytic, "pair_amplitude_from_ratio"),
        (fockent.states, "bogoliubov_truncation_bound"),
        (fockent.ReducedDensityMatrix, "validate"),
    ]
    for owner, name in removed:
        assert name not in names
        assert not hasattr(fockent, name)
        assert not hasattr(owner, name)
