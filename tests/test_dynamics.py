"""Hamiltonian assembly, spectra and time evolution.

Spectral anchors are worked out independently: the two-site hopping
plus on-site repulsion model has ground energy (U - sqrt(U^2 + 16 t^2))/2
in the half-filled sector, and a single particle hopping between two
modes gives S(t) = h(cos^2 t) for the starting mode.

The vectorised operator kernel of ``fock_core`` is checked against a
matrix built one basis vector and one term at a time from the scalar
kernels ``creation_kernel`` and ``annihilation_kernel`` below, which count
the sign by a loop over the occupied fermionic modes of each key; sector
matrices bit for bit against a dense ``np.add.at`` over the kernel's
triplets; the sparse Taylor propagator is checked against dense ``eigh``,
and its padded-row matvec bit for bit against the triplet ``bincount``
matvec.
"""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fockent
from fockent import (
    ManyBodyState,
    SecondQuantizedHamiltonian,
    SizeGuardError,
    Spin,
    apply_hamiltonian,
    basis_state,
    binary_entropy,
    boson,
    check_proper_basis,
    eigenstates,
    electron,
    energy_expectation,
    enumerate_sector,
    evolve_many,
    generic,
    hamiltonian_matrix,
    hole,
    inner_product,
    load_hamiltonian,
    mode_entanglement,
    registry_create,
    sector_dimension,
    superpose,
)
from fockent.dynamics import (
    DEGENERACY_RTOL,
    KRYLOV_CROSSOVER,
    _canonicalize_cluster,
    _SparseOperator,
    _taylor_step,
    _terms,
)
from fockent.fock_core import _key_dtype, _operator_triplets, _sector_keys, _summed


def hopping_hamiltonian(tau=1.0):
    reg = registry_create([electron(0), electron(1)])
    return SecondQuantizedHamiltonian(reg, np.array([[0.0, -tau], [-tau, 0.0]]))


def hubbard_dimer(tau=1.0, u=4.0):
    # spin orbitals: (site0 up, site0 down, site1 up, site1 down)
    reg = registry_create(
        [
            electron(0, Spin.UP),
            electron(0, Spin.DOWN),
            electron(1, Spin.UP),
            electron(1, Spin.DOWN),
        ]
    )
    one_body = np.zeros((4, 4))
    for a, b in ((0, 2), (1, 3)):
        one_body[a, b] = one_body[b, a] = -tau
    # (1/2) sum V_ijlm adag_i adag_j a_m a_l with V chosen so each site
    # contributes u * n_up * n_down
    two_body = {
        (0, 1, 0, 1): u,
        (1, 0, 1, 0): u,
        (2, 3, 2, 3): u,
        (3, 2, 3, 2): u,
    }
    return SecondQuantizedHamiltonian(reg, one_body, two_body=two_body)


def test_one_body_validation():
    reg = registry_create([electron(0), electron(1)])
    with pytest.raises(ValueError):
        SecondQuantizedHamiltonian(reg, np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        SecondQuantizedHamiltonian(reg, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        SecondQuantizedHamiltonian(reg, np.zeros((2, 2)), external=np.zeros((3, 3)))


def test_two_body_completion_and_conflicts():
    reg = registry_create([electron(i) for i in range(3)])
    h = SecondQuantizedHamiltonian(reg, np.zeros((3, 3)), two_body={(0, 1, 1, 2): 2j})
    assert h.two_body[(1, 2, 0, 1)] == pytest.approx(-2j)
    dropped = SecondQuantizedHamiltonian(reg, np.zeros((3, 3)), two_body={(0, 1, 0, 1): 0.0})
    assert dropped.two_body == {}
    with pytest.raises(ValueError):
        SecondQuantizedHamiltonian(
            reg, np.zeros((3, 3)), two_body={(0, 1, 1, 2): 1.0, (1, 2, 0, 1): 5.0}
        )
    with pytest.raises(ValueError):
        SecondQuantizedHamiltonian(reg, np.zeros((3, 3)), two_body={(0, 1, 2, 3): 1.0})


def test_hopping_matrix_single_particle_sector():
    h = hopping_hamiltonian()
    sector = hamiltonian_matrix(h, 1)
    assert sector.dimension == 2
    idx = {h.registry.unpack(k): i for i, k in enumerate(sector.keys)}
    a, b = idx[(1, 0)], idx[(0, 1)]
    assert sector.matrix[a, b] == pytest.approx(-1.0)
    assert sector.matrix[a, a] == 0.0
    eigenvalues = np.linalg.eigvalsh(sector.matrix)
    assert eigenvalues == pytest.approx([-1.0, 1.0])


def test_apply_hamiltonian_matches_sector_matrix():
    h = hubbard_dimer()
    rng = np.random.default_rng(97)
    sector = hamiltonian_matrix(h, 2)
    v = rng.standard_normal(sector.dimension) + 1j * rng.standard_normal(sector.dimension)
    v /= np.linalg.norm(v)
    state = ManyBodyState._from_keys(h.registry, sector.keys, v)
    image = apply_hamiltonian(h, state)
    want = sector.matrix @ v
    for i, key in enumerate(sector.keys):
        assert image.amplitudes.get(key, 0.0) == pytest.approx(complex(want[i]), abs=1e-12)
    assert energy_expectation(h, state) == pytest.approx(np.vdot(v, want).real)


def test_hamiltonian_conserves_particle_number():
    h = hubbard_dimer()
    state = basis_state(h.registry, (1, 1, 0, 0))
    image = apply_hamiltonian(h, state)
    assert image.particle_numbers() == {2}


def test_hubbard_dimer_ground_energy():
    tau, u = 1.0, 4.0
    h = hubbard_dimer(tau, u)
    pairs = eigenstates(h, 2)
    energies = [e for e, _ in pairs]
    want = (u - math.sqrt(u * u + 16 * tau * tau)) / 2
    assert energies[0] == pytest.approx(want, abs=1e-12)
    assert len(energies) == 6
    # singlet/triplet structure: three degenerate levels at 0
    assert sum(abs(e) < 1e-10 for e in energies) == 3
    ground = pairs[0][1]
    assert ground.norm() == pytest.approx(1.0)
    assert energy_expectation(h, ground) == pytest.approx(want, abs=1e-12)


def test_eigenstates_canonicalize_degenerate_levels():
    # diagonal one-body with a repeated eigenvalue: the returned states
    # should be occupation vectors, not arbitrary mixtures
    reg = registry_create([electron(i) for i in range(3)])
    h = SecondQuantizedHamiltonian(reg, np.diag([0.5, 0.5, 2.0]))
    pairs = eigenstates(h, 1)
    assert [e for e, _ in pairs] == pytest.approx([0.5, 0.5, 2.0])
    for _, state in pairs:
        assert state.num_terms == 1
    # the degenerate pair spans exactly modes 0 and 1
    occupied = {max(occ.index(1) for occ, _ in s.items()) for _, s in pairs[:2]}
    assert occupied == {0, 1}


def projector_canonicalize(block):
    """The same greedy on the dense projector P = B B^dagger: pivot on the
    largest diagonal entry, normalise that column, deflate P by it."""
    projector = block @ block.conj().T
    vectors = []
    for _ in range(block.shape[1]):
        b = int(np.argmax(np.real(np.diag(projector))))
        v = projector[:, b] / np.linalg.norm(projector[:, b])
        vectors.append(v)
        projector = projector - np.outer(v, v.conj())
    return np.column_stack(vectors)


def test_cluster_canonicalisation_matches_projector_oracle():
    # a clean ring (hopping -1, neighbour repulsion 2) is translation and
    # reflection symmetric, so its N = 4 sector has many degenerate levels;
    # some pivot weights tie, and a tie may pick another, equivalent basis
    sites = 8
    one_body = np.zeros((sites, sites))
    two_body = {}
    for i in range(sites):
        j = (i + 1) % sites
        one_body[i, j] = one_body[j, i] = -1.0
        two_body[(i, j, i, j)] = two_body[(j, i, j, i)] = 2.0
    reg = registry_create([generic(i) for i in range(sites)])
    h = SecondQuantizedHamiltonian(reg, one_body, None, two_body)
    energies, vectors = np.linalg.eigh(hamiltonian_matrix(h, 4).matrix)
    threshold = DEGENERACY_RTOL * max(1.0, energies[-1] - energies[0])
    gaps = np.flatnonzero(np.diff(energies) >= threshold) + 1
    clusters = [c for c in np.split(np.arange(len(energies)), gaps) if len(c) > 1]
    assert len(clusters) >= 20
    for cluster in clusters:
        block = vectors[:, cluster]
        got, want = _canonicalize_cluster(block), projector_canonicalize(block)
        assert np.max(np.abs(got @ got.conj().T - want @ want.conj().T)) <= 1e-12
        assert np.max(np.abs(got.conj().T @ got - np.eye(len(cluster)))) <= 1e-12
        # |v[b]|**2 is the pivot weight of each step
        pivots = np.max(np.abs(got), axis=0) - np.max(np.abs(want), axis=0)
        assert np.max(np.abs(pivots)) <= 1e-12


def test_evolution_conserves_norm_and_energy():
    h = hubbard_dimer()
    start = basis_state(h.registry, (1, 1, 0, 0))
    times = np.linspace(0.0, 4.0, 9)
    trajectory = evolve_many(start, h, times)
    for t, state in zip(times, trajectory):
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        assert energy_expectation(h, state) == pytest.approx(
            energy_expectation(h, start), abs=1e-11
        )
    assert abs(inner_product(trajectory[0], start)) == pytest.approx(1.0, abs=1e-12)
    single = evolve_many(start, h, [times[3]])[0]
    assert abs(inner_product(single, trajectory[3])) == pytest.approx(1.0, abs=1e-12)


def test_two_level_entropy_closed_form():
    h = hopping_hamiltonian(tau=1.0)
    start = basis_state(h.registry, (1, 0))
    for t in [0.0, 0.3, 0.7, 1.2]:
        state = evolve_many(start, h, [t])[0]
        want = binary_entropy(math.cos(t) ** 2)
        assert mode_entanglement(state, (0,)) == pytest.approx(want, abs=1e-10)


def test_evolution_of_cross_sector_superposition():
    h = hopping_hamiltonian(tau=1.0)
    reg = h.registry
    mixed = superpose(
        [
            (1 / math.sqrt(2), basis_state(reg, (0, 0))),
            (1 / math.sqrt(2), basis_state(reg, (1, 0))),
        ]
    )
    state = evolve_many(mixed, h, [0.9])[0]
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    # the vacuum component only picks up a phase (here: stays put, E=0)
    assert state.amplitude((0, 0)) == pytest.approx(1 / math.sqrt(2))


def test_check_proper_basis_passes_diagonal_and_fixes_hopping():
    reg = registry_create([electron(0), electron(1)])
    diag = SecondQuantizedHamiltonian(reg, np.diag([0.2, 0.9]))
    report = check_proper_basis(diag)
    assert report.proper
    assert report.rotation is None
    assert report.off_diagonal == 0.0

    hop = hopping_hamiltonian()
    report = check_proper_basis(hop)
    assert not report.proper
    assert report.off_diagonal == pytest.approx(1.0)
    t = hop.one_body
    u = report.rotation
    rotated = u.conj().T @ t @ u
    assert np.max(np.abs(rotated - np.diag(np.diag(rotated)))) < 1e-12
    assert np.allclose(np.diag(report.transformed.one_body), np.linalg.eigvalsh(t))


def test_proper_basis_transform_preserves_sector_spectra():
    h = hubbard_dimer()
    report = check_proper_basis(h)
    assert not report.proper
    for total in (1, 2, 3):
        before = np.linalg.eigvalsh(hamiltonian_matrix(h, total).matrix)
        after = np.linalg.eigvalsh(hamiltonian_matrix(report.transformed, total).matrix)
        assert before == pytest.approx(after, abs=1e-10)


def test_size_guard_env_override(monkeypatch):
    h = hopping_hamiltonian()
    monkeypatch.setenv("FOCKENT_SIZE_GUARD", "1")
    with pytest.raises(SizeGuardError) as info:
        hamiltonian_matrix(h, 1)
    assert info.value.dimension == 2
    assert info.value.guard == 1
    monkeypatch.setenv("FOCKENT_SIZE_GUARD", "4")
    assert hamiltonian_matrix(h, 1).dimension == 2


def test_evolve_many_refuses_trajectories_beyond_guard_squared(monkeypatch):
    h = hopping_hamiltonian()
    state = basis_state(h.registry, (1, 0))
    monkeypatch.setenv("FOCKENT_SIZE_GUARD", "4")
    # 8 times of the 2-dimensional sector hold guard**2 = 16 amplitudes
    assert len(evolve_many(state, h, np.linspace(0.0, 1.0, 8))) == 8
    with pytest.raises(SizeGuardError) as info:
        evolve_many(state, h, np.linspace(0.0, 1.0, 9))
    assert (info.value.dimension, info.value.guard) == (18, 16)


BOSON_PAYLOAD = {
    "modes": [
        {"species": "electron", "momentum": [0]},
        {"species": "electron", "momentum": [1]},
        {"species": "boson", "momentum": [0], "cutoff": 3},
    ],
    "one_body": [
        [0.0, [0.0, -0.5], 0.0],
        [[0.0, 0.5], 0.0, 0.0],
        [0.0, 0.0, 1.5],
    ],
    "external": [
        [0.25, 0.0, 0.0],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ],
    "two_body": [{"ijlm": [0, 1, 0, 1], "value": [2.0, 0.0]}],
}


def test_load_hamiltonian_round_trip(tmp_path):
    payload = BOSON_PAYLOAD
    h = load_hamiltonian(payload)
    assert h.registry.modes[2] == boson(0)
    assert h.registry.cutoffs == (1, 1, 3)
    # external is added into one_body
    assert h.one_body[0, 1] == -0.5j
    assert h.one_body[0, 0] == 0.25
    assert h.two_body[(0, 1, 0, 1)] == 2.0
    assert h.two_body[(0, 1, 0, 1)].conjugate() == h.two_body[(0, 1, 0, 1)]

    path = tmp_path / "h.json"
    import json

    path.write_text(json.dumps(payload))
    again = load_hamiltonian(path)
    assert np.array_equal(again.one_body, h.one_body)
    assert again.registry == h.registry


def test_load_hamiltonian_rejects_bad_shapes():
    mode = {"species": "electron", "momentum": [0]}
    good = {"modes": [mode], "one_body": [[0.0]]}
    assert load_hamiltonian(good).one_body.tolist() == [[0.0]]
    bad = [
        {**good, "one_body": []},
        {**good, "one_body": 5},
        {**good, "one_body": [5]},
        {**good, "one_body": [[{"re": 1.0}]]},
        {**good, "one_body": [["1.0"]]},
        {**good, "one_body": [[[1.0, 0.0, 0.0]]]},
        {**good, "external": [[True]]},
        {**good, "modes": 5},
        {**good, "modes": [5]},
        {**good, "modes": [{**mode, "momentum": 0}]},
        {**good, "modes": [{"species": "boson", "cutoff": [2]}]},
        {**good, "two_body": {"ijlm": [0, 0, 0, 0]}},
        {**good, "two_body": [{"ijlm": 0, "value": 1.0}]},
        {**good, "two_body": [{"ijlm": [0] * 4, "value": "1"}]},
        [good],
    ]
    # a one-line ValueError (exit 2 from the command line), never a TypeError
    for payload in bad:
        with pytest.raises(ValueError) as info:
            load_hamiltonian(payload)
        assert "\n" not in str(info.value), payload


# ---------------------------------------------------------------------------
# vectorised assembly against the scalar kernels


def fermionic_sign(registry, key, mode):
    # parity of occupied fermionic modes strictly below `mode`
    count = sum(
        registry.unpack(key)[j] for j in range(mode) if registry.modes[j].fermionic
    )
    return -1.0 if count & 1 else 1.0


def creation_kernel(registry, key, mode):
    """(new_key, factor) of a creation operator on one key, or None."""
    stride = registry._strides[mode]
    cutoff = registry.cutoffs[mode]
    n = (key // stride) % (cutoff + 1)
    if registry.modes[mode].fermionic:
        if n == 1:
            return None
        return key + stride, fermionic_sign(registry, key, mode)
    if n == cutoff:
        return None
    return key + stride, math.sqrt(n + 1)


def annihilation_kernel(registry, key, mode):
    """Adjoint of ``creation_kernel`` on one key."""
    stride = registry._strides[mode]
    cutoff = registry.cutoffs[mode]
    n = (key // stride) % (cutoff + 1)
    if n == 0:
        return None
    if registry.modes[mode].fermionic:
        return key - stride, fermionic_sign(registry, key, mode)
    return key - stride, math.sqrt(n)


def reference_apply(h, key, amp, out):
    """Add H applied to amp |key> into ``out``, one term and one scalar kernel at a time."""
    terms = []
    t = h.one_body
    m = len(h.registry)
    for i in range(m):
        for j in range(m):
            if t[i, j] != 0:
                terms.append((amp * complex(t[i, j]), ((j, False), (i, True))))
    for (i, j, l, mm), v in h.two_body.items():
        terms.append((amp * 0.5 * v, ((l, False), (mm, False), (j, True), (i, True))))
    for value, operators in terms:
        current = key
        for mode, creates in operators:
            kernel = creation_kernel if creates else annihilation_kernel
            hit = kernel(h.registry, current, mode)
            if hit is None:
                break
            current, factor = hit
            value = value * factor
        else:
            out[current] = out.get(current, 0.0) + value


def reference_matrix(h, total):
    reg = h.registry
    keys = [reg.pack(occ) for occ in enumerate_sector(reg, total)]
    index = {k: i for i, k in enumerate(keys)}
    matrix = np.zeros((len(keys), len(keys)), dtype=complex)
    for col, key in enumerate(keys):
        out = {}
        reference_apply(h, key, 1.0 + 0.0j, out)
        for new_key, value in out.items():
            matrix[index[new_key], col] = value
    return tuple(keys), matrix


def mixed_hamiltonian(seed=5):
    """Electrons, a hole and two bosons interleaved, complex two-body entries."""
    rng = np.random.default_rng(seed)
    labels = [electron(0), boson(0), electron(1), boson(1), hole(0)]
    reg = registry_create(labels, {1: 2, 3: 3})
    m = len(labels)
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    two_body = {}
    for _ in range(30):
        key = tuple(int(x) for x in rng.integers(0, m, 4))
        if key in two_body or (key[2], key[3], key[0], key[1]) in two_body:
            continue
        if key == (key[2], key[3], key[0], key[1]):
            two_body[key] = rng.normal()
        else:
            two_body[key] = complex(rng.normal(), rng.normal())
    return SecondQuantizedHamiltonian(reg, a + a.conj().T, None, two_body)


def test_assembly_is_bit_identical_to_scalar_kernels_on_dimer():
    h = hubbard_dimer()
    for total in (0, 1, 2, 3, 4):
        keys, want = reference_matrix(h, total)
        sector = hamiltonian_matrix(h, total)
        assert tuple(sector.keys.tolist()) == keys
        assert np.array_equal(sector.matrix, want)


@pytest.mark.parametrize(
    "make, totals",
    [
        (lambda: load_hamiltonian(BOSON_PAYLOAD), (0, 1, 2, 3, 4, 5)),
        (mixed_hamiltonian, (1, 2, 4, 7)),
        (lambda: check_proper_basis(mixed_hamiltonian(8)).transformed, (3,)),
    ],
    ids=["bosonic", "mixed-complex", "dense-tensor"],
)
def test_assembly_matches_scalar_kernels(make, totals):
    h = make()
    assert any(h.two_body)
    for total in totals:
        keys, want = reference_matrix(h, total)
        sector = hamiltonian_matrix(h, total)
        assert tuple(sector.keys.tolist()) == keys
        assert np.max(np.abs(sector.matrix - want), initial=0.0) <= 1e-14


def add_at_matrix(h, total):
    """Oracle: a dense ``np.add.at`` over the kernel's triplets, the row of
    each target found by a dict; also the counts of triplets and of cells."""
    keys = _sector_keys(h.registry, total)
    source, target, value = _operator_triplets(h.registry, keys, _terms(h))
    index = {key: i for i, key in enumerate(keys.tolist())}
    rows = np.array([index[key] for key in target.tolist()], dtype=np.intp)
    matrix = np.zeros((len(keys), len(keys)), dtype=complex)
    np.add.at(matrix, (rows, source), value)
    return keys, matrix, len(value), len(set(zip(rows.tolist(), source.tolist())))


@pytest.mark.parametrize(
    "make, totals",
    [
        (hubbard_dimer, (-1, 0, 1, 2, 3, 4)),
        (lambda: disordered_ring(8, 0.0), (3, 4)),
        (lambda: disordered_ring(8, 0.3), (3, 4)),
        (lambda: check_proper_basis(disordered_ring(10, 0.3)).transformed, (5,)),
        (lambda: load_hamiltonian(BOSON_PAYLOAD), (-1, 0, 1, 2, 3, 4, 5)),
    ],
    ids=["dimer", "ring-real", "ring-flux", "ring-proper", "mixed-external"],
)
def test_sector_matrix_is_bit_identical_to_add_at_oracle(make, totals):
    # a cell takes several triplets (the two V entries of a bond, one-body
    # and V terms on the diagonal, ~850 per row in the proper basis): they
    # must be added from 0.0 in term order, as np.add.at adds them
    h = make()
    triplets = cells = 0
    for total in totals:
        keys, want, count, distinct = add_at_matrix(h, total)
        sector = hamiltonian_matrix(h, total)
        assert sector.keys.tolist() == keys.tolist()
        np.testing.assert_array_equal(sector.matrix.view(np.uint64), want.view(np.uint64))
        triplets, cells = triplets + count, cells + distinct
    assert triplets > cells


def test_apply_hamiltonian_across_sectors_matches_scalar_kernels():
    h = mixed_hamiltonian()
    reg = h.registry
    rng = np.random.default_rng(3)
    state = superpose(
        [
            (complex(rng.normal(), rng.normal()), basis_state(reg, occ))
            for occ in ((0, 0, 0, 0, 0), (1, 0, 0, 1, 0), (1, 2, 0, 0, 0), (0, 1, 1, 3, 1))
        ]
    )
    assert len(state.particle_numbers()) == 4
    want = {}
    for key, amp in state.amplitudes.items():
        reference_apply(h, key, amp, want)
    got = apply_hamiltonian(h, state).amplitudes
    assert set(got) == {k for k, v in want.items() if abs(v) > 1e-15}
    for key, value in want.items():
        assert abs(got.get(key, 0.0) - value) <= 1e-14


def test_packed_keys_beyond_int64_raise_size_guard():
    def chain(modes):
        reg = registry_create([generic(i) for i in range(modes)])
        one_body = np.zeros((modes, modes))
        one_body[0, modes - 1] = one_body[modes - 1, 0] = -1.0
        return SecondQuantizedHamiltonian(reg, one_body)

    widest = chain(63)
    top = basis_state(widest.registry, (0,) * 62 + (1,))
    assert max(hamiltonian_matrix(widest, 1).keys) == 2**62
    assert apply_hamiltonian(widest, top).amplitudes == {1: -1.0}

    h = chain(64)
    state = basis_state(h.registry, (0,) * 63 + (1,))
    for call in (
        lambda: hamiltonian_matrix(h, 1),
        lambda: apply_hamiltonian(h, state),
        lambda: evolve_many(state, h, [0.5]),
    ):
        with pytest.raises(SizeGuardError) as info:
            call()
        assert info.value.dimension == 2**64


# ---------------------------------------------------------------------------
# sparse Taylor propagation against dense eigh


def exact_evolution(matrix, psi, t):
    energies, vectors = np.linalg.eigh(matrix)
    return vectors @ (np.exp(-1j * energies * t) * (vectors.conj().T @ psi))


def random_sparse_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a[rng.random((dim, dim)) < 0.7] = 0.0
    return a + a.conj().T + np.diag(rng.normal(size=dim) * 3.0)


def padded_operator(rows, cols, values, dim):
    """The padded operator of triplets, summed by (row, col) into distinct
    row-major entries as ``_sector_entries`` sums them."""
    flat, summed, _ = _summed(rows * dim + cols, values)
    return _SparseOperator.from_entries(flat // dim, flat % dim, summed, dim)


@pytest.mark.parametrize("dim", [1, 2, 7, 40])
def test_taylor_step_matches_eigh(dim):
    rng = np.random.default_rng(dim)
    matrix = random_sparse_hermitian(dim, rng)
    rows, cols = np.nonzero(matrix)
    operator = padded_operator(rows, cols, matrix[rows, cols], dim)
    center, radius = operator.center, operator.radius
    energies = np.linalg.eigvalsh(matrix)
    slack = 1e-12 * (1.0 + radius)
    assert center - radius - slack <= energies[0]
    assert energies[-1] <= center + radius + slack
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    for dt in (0.0, 1e-3, 0.37, -0.9, 4.0):
        got = _taylor_step(operator, psi, dt)
        assert np.max(np.abs(got - exact_evolution(matrix, psi, dt))) <= 1e-12


def bincount_matvec(rows, cols, values, vector):
    """The triplet matvec: each row's products summed from 0.0 in array order."""
    product = values * vector[cols]
    real = np.bincount(rows, product.real, len(vector))
    return real + 1j * np.bincount(rows, product.imag, len(vector))


def ragged_matrix(dim=30, seed=11):
    """Complex, not Hermitian, rows of 0 to dim entries, some rows empty."""
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    matrix[rng.random((dim, dim)) < rng.random((dim, 1))] = 0.0
    matrix[[3, 4, 17]] = 0.0
    matrix[7] = 1.0 - 2.5j
    return matrix


@pytest.mark.parametrize(
    "make",
    [
        lambda: hamiltonian_matrix(disordered_ring(8, 0.0), 4).matrix,
        lambda: hamiltonian_matrix(disordered_ring(8, 0.3), 4).matrix,
        ragged_matrix,
    ],
    ids=["real", "flux", "ragged"],
)
def test_padded_matvec_matches_bincount_oracle(make):
    matrix = make()
    dim = len(matrix)
    rows, cols = np.nonzero(matrix)  # row-major: the order the operator sums in
    shuffle = np.random.default_rng(3).permutation(len(rows))
    operator = padded_operator(rows[shuffle], cols[shuffle], matrix[rows, cols][shuffle], dim)
    lengths = np.count_nonzero(matrix, axis=1)
    assert operator.cols.shape == operator.values.shape == (lengths.max(), dim)
    padding = np.arange(lengths.max())[:, None] >= lengths
    assert not operator.cols[padding].any() and not operator.values[padding].any()

    rng = np.random.default_rng(dim)
    dense = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    for vector in (dense, -np.eye(dim, dtype=complex)[dim // 2], np.zeros(dim, complex)):
        got = operator @ vector
        want = bincount_matvec(rows, cols, matrix[rows, cols], vector)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
        np.testing.assert_allclose(got, matrix @ vector, rtol=0, atol=1e-12)


def test_padded_operator_beyond_guard_squared_is_refused_before_allocating(monkeypatch):
    monkeypatch.setenv("FOCKENT_SIZE_GUARD", "100")
    rows, cols, values = np.array([0, 0, 9]), np.array([0, 1, 2]), np.ones(3, complex)
    # two entries in row 0: 2 x 5000 cells hold guard**2 = 10**4
    assert padded_operator(rows, cols, values, 5000).values.shape == (2, 5000)
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError) as info:
            padded_operator(rows, cols, values, 50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.dimension, info.value.guard) == (100_000, 10_000)
    assert "padded operator (2 entries x 50000 rows)" in str(info.value)
    assert peak < 2**18  # the padded arrays would take 2.4 MB


def bruteforce_sector(reg, total):
    """Sorted occupation vectors with ``total`` particles: every multiset of
    ``total`` modes, kept where no mode holds more than its cutoff."""
    placements = itertools.combinations_with_replacement(range(len(reg)), total)
    vectors = (tuple(modes.count(i) for i in range(len(reg))) for modes in placements)
    return sorted(v for v in vectors if all(n <= c for n, c in zip(v, reg.cutoffs)))


@pytest.mark.parametrize(
    "reg, totals",
    [
        (registry_create([generic(i) for i in range(7)]), range(9)),
        (registry_create([boson(i) for i in range(3)], cutoffs=[2, 4, 1]), range(9)),
        (
            registry_create(
                [electron(0), boson(0), hole(1), boson(1), electron(2)], cutoffs=[2, 3]
            ),
            range(10),
        ),
        # 2**70 basis vectors: keys are Python integers
        (registry_create([generic(i) for i in range(70)]), range(3)),
    ],
    ids=["fermions", "bosons", "mixed", "fermions70"],
)
def test_sector_keys_match_packed_enumeration(reg, totals):
    # every total up to one past capacity (N <= 2 on 70 modes), where it is empty
    for total in totals:
        want = bruteforce_sector(reg, total)
        got = _sector_keys(reg, total)
        assert got.dtype == _key_dtype(reg)
        assert got.tolist() == [reg.pack(occ) for occ in want]
        assert enumerate_sector(reg, total) == want
        assert sector_dimension(reg, total) == len(want)
    assert (len(want) == 0) == (total > sum(reg.cutoffs))


@pytest.mark.parametrize("total", [-1, -4, 5], ids=["minus1", "minus4", "above"])
def test_negative_and_overfull_sectors_are_empty(total):
    h = hubbard_dimer()
    reg = h.registry
    assert sector_dimension(reg, total) == 0
    assert enumerate_sector(reg, total) == []
    assert _sector_keys(reg, total).tolist() == []
    sector = hamiltonian_matrix(h, total)
    assert sector.keys.tolist() == [] and sector.matrix.shape == (0, 0)
    assert eigenstates(h, total) == []


def disordered_ring(sites, phase, seed=1):
    rng = np.random.default_rng(seed)
    reg = registry_create([generic(i) for i in range(sites)])
    one_body = np.diag(rng.uniform(-0.2, 0.2, sites)).astype(complex)
    two_body = {}
    for i in range(sites):
        j = (i + 1) % sites
        one_body[i, j] = -np.exp(1j * phase)
        one_body[j, i] = np.conj(one_body[i, j])
        two_body[(i, j, i, j)] = two_body[(j, i, j, i)] = 2.0
    return SecondQuantizedHamiltonian(reg, one_body, None, two_body)


@pytest.mark.parametrize("phase", [0.0, 0.3], ids=["real", "flux"])
def test_evolve_many_above_crossover_matches_eigh(phase):
    h = disordered_ring(11, phase)
    reg = h.registry
    assert sector_dimension(reg, 4) > KRYLOV_CROSSOVER >= sector_dimension(reg, 1)
    # a sparse sector (N=4) and a dense one (N=1) in one state
    start = superpose(
        [
            (0.8, basis_state(reg, (1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0))),
            (0.6j, basis_state(reg, (0,) * 10 + (1,))),
        ]
    )
    times = [2.0, -1.5, 0.0, 0.25, 2.0, -0.1]
    trajectory = evolve_many(start, h, times)

    sectors = {total: hamiltonian_matrix(h, total) for total in (1, 4)}
    energy = energy_expectation(h, start)
    for t, state in zip(times, trajectory):
        for sector in sectors.values():
            psi = np.array([start.amplitudes.get(k, 0.0) for k in sector.keys])
            want = exact_evolution(sector.matrix, psi, t)
            got = np.array([state.amplitudes.get(k, 0.0) for k in sector.keys])
            assert np.max(np.abs(got - want)) <= 1e-12
        assert state.particle_numbers() == {1, 4}
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        assert energy_expectation(h, state) == pytest.approx(energy, abs=1e-11)

    back = evolve_many(trajectory[0], h, [-2.0])[0]
    keys = set(back.amplitudes) | set(start.amplitudes)
    assert max(abs(back.amplitudes.get(k, 0.0) - start.amplitudes.get(k, 0.0)) for k in keys) <= 1e-12


def test_no_scipy_on_import_or_sparse_evolution():
    script = (
        "import sys, numpy as np\n"
        "import fockent.cli\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "from fockent import basis_state, evolve_many, generic, registry_create\n"
        "from fockent import SecondQuantizedHamiltonian\n"
        "reg = registry_create([generic(i) for i in range(11)])\n"
        "t = np.roll(np.eye(11), 1, axis=1) * -1.0\n"
        "h = SecondQuantizedHamiltonian(reg, t + t.T)\n"
        "evolve_many(basis_state(reg, [1, 1, 1, 1] + [0] * 7), h, [1.0])\n"
        "loaded += [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "print(loaded)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fockent.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env
    )
    assert done.stdout.strip() == "[]"
