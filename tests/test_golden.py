"""Golden digests of every scenario at its documented defaults.

Each case runs ``fockent <argv> --out <table>`` in a fresh interpreter
with one BLAS thread and pins the SHA-256 of the table, its
``.meta.json`` sidecar (empty when none is written) and stdout.  Every
exciton channel has a case; the stretched channels, triplet_up and
triplet_down, reduce to the spinless pair and print the default's
table, so the three share one digest.  ``bogoliubov --pairs 2 --n 60``
walks 496 patterns in both the projected state and the exact
distribution.  The dynamics cases run on a Hubbard dimer (dense
eigh), on interacting rings of 11 sites at N = 5 (dimension 462) and
12 sites at N = 6 (dimension 924), and on a six-site Bose-Hubbard ring
of cutoff 3 at N = 6 (dimension 336, whose sector index has two groups
of three modes, the last one bosonic), all three by sparse Chebyshev
propagation.  The 12-site ring's half chain has Gram side 64, above
``BLOCK_CROSSOVER``, so its entropies take the number-block path, with
blocks of 6, 15 and 20 rows.
A digest may change only together with a line in
CHANGES.md that says why.  The digests were recorded with Python 3.11
and numpy 2.4.6 (OpenBLAS 0.3.31) on x86-64; another numpy or BLAS build
may round the last digit differently.

A change that moves last bits on purpose re-pins once and shows that the
new values are no further from an independent oracle than the old ones.
For a change to the entropy alone (the states are bit-identical), the
oracle is ``mpmath_entropy``: the entropy of the same double-precision
state at 40 digits, and the measure is the worst |S - S_mp| over the
``dynamics_ring`` states (``test_dynamics_ring_entropy_against_mpmath``
checks a sample).  A change to the states needs a state oracle instead,
such as extended-precision propagation.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import fockent
import fockent.entanglement as entanglement
from fockent import basis_state, mode_entanglement
from fockent.dynamics import evolve_many, load_hamiltonian

# one BLAS thread: how a matrix product is split over threads changes its
# last digit, so the digests would otherwise depend on the machine's cores
ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [str(Path(fockent.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    ),
    **dict.fromkeys(["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"], "1"),
}


def hubbard_dimer():
    """Two sites x two spins, hopping -1, on-site repulsion 4."""
    modes = [
        {"species": "electron", "momentum": [site], "spin": spin}
        for site in (0, 1)
        for spin in ("up", "down")
    ]
    one_body = [[0.0] * 4 for _ in range(4)]
    for a, b in ((0, 2), (1, 3)):
        one_body[a][b] = one_body[b][a] = -1.0
    two_body = [
        {"ijlm": ijlm, "value": 4.0}
        for ijlm in ([0, 1, 0, 1], [1, 0, 1, 0], [2, 3, 2, 3], [3, 2, 3, 2])
    ]
    return {"modes": modes, "one_body": one_body, "two_body": two_body}


def ring(sites=11):
    """Spinless ring: hopping -1, on-site energies i/10, neighbour repulsion 2."""
    modes = [{"species": "electron", "momentum": [i]} for i in range(sites)]
    one_body = [[0.0] * sites for _ in range(sites)]
    two_body = []
    for i in range(sites):
        j = (i + 1) % sites
        one_body[i][i] = i / 10
        one_body[i][j] = one_body[j][i] = -1.0
        two_body += [
            {"ijlm": [i, j, i, j], "value": 2.0},
            {"ijlm": [j, i, j, i], "value": 2.0},
        ]
    return {"modes": modes, "one_body": one_body, "two_body": two_body}


def bose_ring(sites=6):
    """Bose-Hubbard ring of cutoff 3: hopping -1, on-site energies i/10,
    V_iiii = 2."""
    modes = [{"species": "boson", "momentum": [i], "cutoff": 3} for i in range(sites)]
    one_body = [[0.0] * sites for _ in range(sites)]
    for i in range(sites):
        j = (i + 1) % sites
        one_body[i][i] = i / 10
        one_body[i][j] = one_body[j][i] = -1.0
    two_body = [{"ijlm": [i, i, i, i], "value": 2.0} for i in range(sites)]
    return {"modes": modes, "one_body": one_body, "two_body": two_body}


HAMILTONIANS = {
    "dimer": hubbard_dimer,
    "ring": ring,
    "ring12": lambda: ring(12),
    "bose_ring": bose_ring,
}

# name: (argv without --out, SHA-256)
GOLDEN = {
    "fermi": (
        ["fermi"],
        "8e49fdb7568ef3272614c243c8bfa7ed4c9a6906ebd5fc2338d026be020e17ab",
    ),
    "exciton": (
        ["exciton"],
        "9925a108132f9484903f370a72538c4b3315c38d0bd113ae14a372a863bb7a53",
    ),
    "exciton_singlet": (
        ["exciton", "--channel", "singlet"],
        "b5059f1910365c614b601a6bfacec8022bbfd8ee2675d73daee41d9e245d404e",
    ),
    "exciton_triplet_up": (
        ["exciton", "--channel", "triplet_up"],
        "9925a108132f9484903f370a72538c4b3315c38d0bd113ae14a372a863bb7a53",
    ),
    "exciton_triplet_down": (
        ["exciton", "--channel", "triplet_down"],
        "9925a108132f9484903f370a72538c4b3315c38d0bd113ae14a372a863bb7a53",
    ),
    "exciton_triplet_zero_json": (
        ["exciton", "--channel", "triplet_zero", "--format", "json"],
        "691b4d9cf567a5530ef9744f33616e6d552d4f2dc9a13cf9beb7cac708e13e86",
    ),
    "qh": (
        ["qh", "--filling", "7/3", "--filling", "2/5", "--filling", "5/12"],
        "9e86016f4c6d9cc0f1477c3b8401643ae80ef528ae2636d1c4af0a812c049dd5",
    ),
    "bcs": (
        ["bcs"],
        "16c2abf19b4e4bdcad8ecc7df8411acba7663e9de2f712f9e05aab3e056dad83",
    ),
    "bcs_unprojected": (
        ["bcs", "--unprojected"],
        "05365d1062380e89397f0193653ca59d6e75ea267f4fa93defc9d46fabfc772e",
    ),
    "bogoliubov": (
        ["bogoliubov"],
        "1684eeac8d4acd49cc5ccb0876a12104745b1b6c1bfaa645908a949d496627ce",
    ),
    "bogoliubov_pairs_2_n_60": (
        ["bogoliubov", "--pairs", "2", "--n", "60"],
        "aeab07e97842c4de01cc9e48574713c4c111321ec43f960a3333a10224378965",
    ),
    "bogoliubov_unprojected_2": (
        ["bogoliubov", "--unprojected", "--pairs", "2"],
        "e5a0087f2d69724ff083ddbc3a91e67458bf4b738ef4cb3d7a0e4d4caefa1d32",
    ),
    "verify": (
        ["verify"],
        "f75c7acbe3fd645a4b08baef0abd4d0d2fa86eeca406b8447e0d6690b27a6a2d",
    ),
    "dynamics_dimer": (
        ["dynamics", "--hamiltonian", "{dimer}", "--initial", "1,1,0,0", "--subset", "0,1"],
        "578e3779a87807d4d29fbcebe5cc32db66ca5b19a5fc38f33a31f2bd8a8b8e39",
    ),
    "dynamics_ring": (
        [
            "dynamics",
            "--hamiltonian",
            "{ring}",
            "--initial",
            "1,0,1,0,1,0,1,0,1,0,0",
            "--subset",
            "0,1,2,3,4",
        ],
        "4e9c739c55c186f903878c3f92b08f6047455407100da748b6ffe77ec727ab4d",
    ),
    "dynamics_ring_12": (
        [
            "dynamics",
            "--hamiltonian",
            "{ring12}",
            "--initial",
            "1,0,1,0,1,0,1,0,1,0,1,0",
            "--subset",
            "0,1,2,3,4,5",
        ],
        "e9ddd212c91d82d41dbff0d75d5d3e8e21e03f2735ef4df5f51b1a32866dff8d",
    ),
    "dynamics_bose_ring": (
        [
            "dynamics",
            "--hamiltonian",
            "{bose_ring}",
            "--initial",
            "1,1,1,1,1,1",
            "--subset",
            "0,1,2",
        ],
        "69d71791fab1653a0cc54be7e17149cf53ad9d8e9e09e3d3dc9abd1312cf37fb",
    ),
}


def output_digest(argv, directory):
    """SHA-256 over the table, its sidecar and stdout of one command."""
    paths = {}
    for name, payload in HAMILTONIANS.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(payload()))
    table = directory / "table.out"
    command = [sys.executable, "-m", "fockent.cli", *argv, "--out", str(table)]
    done = subprocess.run(
        [arg.format(**paths) for arg in command], capture_output=True, text=True, env=ENV
    )
    assert done.returncode == 0, done.stderr
    sidecar = directory / "table.out.meta.json"
    digest = hashlib.sha256()
    for part in (table.read_bytes(), sidecar.read_bytes() if sidecar.exists() else b""):
        digest.update(len(part).to_bytes(8, "little") + part)
    digest.update(done.stdout.encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digest(name, tmp_path):
    argv, expected = GOLDEN[name]
    assert output_digest(argv, tmp_path) == expected


def mpmath_entropy(state, subset, dps=40):
    """Entropy of ``subset`` at ``dps`` digits: the reduced density matrix is
    summed in mpmath from the state's double-precision amplitudes and
    diagonalised by ``mpmath.eighe``, one block of the subset particle
    number at a time.  Two patterns of different numbers must share no
    environment, as in a state of fixed particle number, so that the
    entries between blocks are exactly zero; that is checked."""
    with mpmath.workdps(dps):
        rows = {}
        for occupations, amplitude in state.items():
            pattern = tuple(occupations[i] for i in subset)
            environment = tuple(n for i, n in enumerate(occupations) if i not in subset)
            rows.setdefault(pattern, {})[environment] = mpmath.mpc(amplitude)
        norm = mpmath.fsum(abs(a) ** 2 for v in rows.values() for a in v.values())
        blocks = {}
        for pattern, vector in rows.items():
            blocks.setdefault(sum(pattern), []).append(vector)
        for n, vectors in blocks.items():
            for m, others in blocks.items():
                assert m == n or not any(u.keys() & v.keys() for u in vectors for v in others)
        entropy = mpmath.mpf(0)
        for vectors in blocks.values():
            rho = mpmath.matrix(len(vectors))
            for i, u in enumerate(vectors):
                for j, v in enumerate(vectors):
                    rho[i, j] = mpmath.fsum(a * mpmath.conj(v[e]) for e, a in u.items() if e in v)
            for lam in mpmath.eighe(rho / norm, eigvals_only=True):
                if lam > 0:
                    entropy -= lam * mpmath.log(lam)
        return entropy


def ring_trajectory(tmp_path, sites):
    """The golden ring of ``sites`` sites from its Neel state at the golden
    run's 50 times on [0, 5], and its first half."""
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring(sites)))
    hamiltonian = load_hamiltonian(str(path))
    start = basis_state(hamiltonian.registry, [1, 0] * (sites // 2) + [0] * (sites % 2))
    return evolve_many(start, hamiltonian, np.linspace(0.0, 5.0, 50)), tuple(range(sites // 2))


def test_dynamics_ring_entropy_against_mpmath(tmp_path):
    # the golden run's 50 times; every tenth state is checked
    states, subset = ring_trajectory(tmp_path, 11)
    worst = max(
        abs(mode_entanglement(s, subset) - mpmath_entropy(s, subset)) for s in states[5::10]
    )
    # 5.6e-15 over all 50 states, on x86-64 with OpenBLAS
    assert worst < 1e-14


def test_number_blocks_are_no_further_from_mpmath_than_one_block(tmp_path, monkeypatch):
    # the 12-site ring's half chain has Gram side 64: its spectrum is taken
    # from the n_A blocks' own Gram products.  The worst error against
    # mpmath must not exceed that of one eigvalsh of the full Gram matrix.
    # Over all 49 states after t = 0 the two are 1.05e-14 and 1.91e-14 (at
    # t = 0.1, the first state checked here), on x86-64 with OpenBLAS.
    states, subset = ring_trajectory(tmp_path, 12)
    states = states[1::8]
    exact = [mpmath_entropy(s, subset) for s in states]
    blockwise = max(abs(mode_entanglement(s, subset) - e) for s, e in zip(states, exact))
    monkeypatch.setattr(entanglement, "BLOCK_CROSSOVER", math.inf)
    dense = max(abs(mode_entanglement(s, subset) - e) for s, e in zip(states, exact))
    assert blockwise <= dense < 1e-13
