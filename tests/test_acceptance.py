"""Acceptance suite: one test per criterion, plus CLI determinism.

Each criterion prints its own pass/fail line (also visible through
``fockent verify``); the final test reruns the full verification
command twice and requires byte-identical output.
"""

import subprocess
import sys

import pytest

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
