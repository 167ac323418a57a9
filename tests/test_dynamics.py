"""Hamiltonian assembly, spectra and time evolution.

Spectral anchors are worked out independently: the two-site hopping
plus on-site repulsion model has ground energy (U - sqrt(U^2 + 16 t^2))/2
in the half-filled sector, and a single particle hopping between two
modes gives S(t) = h(cos^2 t) for the starting mode.

The batched operator kernel of ``fock_core`` is checked against a matrix
built one basis vector and one term at a time from the scalar kernels
``creation_kernel`` and ``annihilation_kernel`` below, which count the
sign by a loop over the occupied fermionic modes of each key, and whose
dict adds each cell from 0.0 in term order: sector matrices bit for bit.
Assembly in chunks of source keys is checked bit for bit against one
chunk, and its memory against the entries it returns.  The sparse
Chebyshev propagator is checked against dense ``eigh`` and its Bessel
coefficients against ``mpmath.besselj``, and its padded-row matvec bit for
bit against the triplet ``bincount`` matvec.
"""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest

import fockent
import fockent.dynamics as dynamics
from fockent import (
    SecondQuantizedHamiltonian,
    SizeGuardError,
    Spin,
    basis_state,
    binary_entropy,
    boson,
    check_proper_basis,
    eigenstates,
    electron,
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
    DENSE_CROSSOVER,
    _bessel_table,
    _canonicalize_cluster,
    _chebyshev_degree,
    _propagate_sparse,
    _sector_entries,
    _SparseOperator,
    _terms,
)
from fockent.fock_core import _Sector, _key_dtype, _operator_triplets, _sector_keys, _summed


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
    with pytest.raises(ValueError, match="does not have four mode indices"):
        SecondQuantizedHamiltonian(reg, np.zeros((3, 3)), None, {(0, 1, 0): 1.0})
    # each index follows the one mode-index rule: no float, bool or string
    for key in ((0.5, 1, 0, 1), (True, 1, 0, 1), ("1", 0, 1, 0)):
        with pytest.raises(ValueError, match="is not an integer") as refused:
            SecondQuantizedHamiltonian(reg, np.zeros((3, 3)), two_body={key: 1.0})
        assert "\n" not in str(refused.value)


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


def sector_vector(sector, state):
    """The amplitudes of ``state`` on the keys of one sector matrix."""
    return np.array([state.amplitudes.get(key, 0.0) for key in sector.keys.tolist()])


def sector_energy(sectors, state):
    """<state|H|state> as the sum of psi^dagger M psi over sector matrices M."""
    energy = 0.0
    for sector in sectors:
        psi = sector_vector(sector, state)
        energy += np.vdot(psi, sector.matrix @ psi).real
    return energy


def test_hamiltonian_conserves_particle_number():
    h = hubbard_dimer()
    keys = _sector_keys(h.registry, 2)
    _, target, _ = _operator_triplets(h.registry, keys, _terms(h))
    assert len(target) > 0
    assert set(target.tolist()) <= set(keys.tolist())


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
    energy = sector_energy([hamiltonian_matrix(h, 2)], ground)
    assert energy == pytest.approx(want, abs=1e-12)


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
    sectors = [hamiltonian_matrix(h, 2)]
    for t, state in zip(times, trajectory):
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        assert state.particle_numbers() == {2}
        assert sector_energy(sectors, state) == pytest.approx(
            sector_energy(sectors, start), abs=1e-11
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


def random_two_body(sites=8, size=1e4, seed=3):
    """A disordered ring's one-body part and a dense random two-body tensor,
    entries ~ size."""
    rng = np.random.default_rng(seed)
    two_body = {}
    for key in itertools.product(range(sites), repeat=4):
        partner = key[2:] + key[:2]
        if key <= partner:
            value = complex(*rng.normal(size=2)) if key < partner else rng.normal()
            two_body[key] = size * value
    ring = disordered_ring(sites, 0.0, repulsion=0.0)
    return SecondQuantizedHamiltonian(ring.registry, ring.one_body, None, two_body)


@pytest.mark.parametrize(
    "make",
    [
        lambda: disordered_ring(4, 0.0, repulsion=1e5),
        lambda: disordered_ring(6, 0.3, repulsion=1e6),
        lambda: disordered_ring(8, 0.0, repulsion=1e5),
        lambda: disordered_ring(8, 0.3, repulsion=1e6),
        random_two_body,
    ],
    ids=["ring4-1e5", "ring6-1e6", "ring8-1e5", "ring8-1e6", "random8-1e4"],
)
def test_proper_basis_transform_keeps_spectra_at_large_two_body_entries(make):
    # the rotated tensor is Hermitian only to rounding, far above the absolute
    # tolerance of user input at entries this large
    h = make()
    report = check_proper_basis(h)
    assert not report.proper
    for total in range(len(h.registry) + 1):
        before = np.linalg.eigvalsh(hamiltonian_matrix(h, total).matrix)
        after = np.linalg.eigvalsh(hamiltonian_matrix(report.transformed, total).matrix)
        assert np.max(np.abs(after - before)) <= 1e-12 * np.max(np.abs(before))


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


def test_load_hamiltonian_refuses_a_repeated_ijlm():
    payload = {**BOSON_PAYLOAD, "two_body": BOSON_PAYLOAD["two_body"] * 2}
    with pytest.raises(ValueError, match=r"two_body entry 1 repeats ijlm \[0, 1, 0, 1\]"):
        load_hamiltonian(payload)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_entries_are_refused(bad):
    reg = registry_create([electron(0), electron(1)])
    entry = np.array([[bad, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="one_body matrix has a non-finite entry"):
        SecondQuantizedHamiltonian(reg, entry)
    with pytest.raises(ValueError, match="external matrix has a non-finite entry"):
        SecondQuantizedHamiltonian(reg, np.zeros((2, 2)), external=entry)
    with pytest.raises(ValueError, match="two-body entry at"):
        SecondQuantizedHamiltonian(reg, np.zeros((2, 2)), two_body={(0, 1, 0, 1): bad})
    big = np.array([[1e308, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="one_body \\+ external overflows"):
        SecondQuantizedHamiltonian(reg, big, external=big)
    # the JSON reader refuses them first
    value = [bad.real, bad.imag] if isinstance(bad, complex) else bad
    with pytest.raises(ValueError, match="is not a finite number"):
        load_hamiltonian({**BOSON_PAYLOAD, "two_body": [{"ijlm": [0, 1, 0, 1], "value": value}]})


# ---------------------------------------------------------------------------
# vectorised assembly against the scalar kernels


def scalar_modes(registry):
    """(stride, cutoff, fermionic) of each mode, from its label, in registry order."""
    return [
        (stride, cutoff, label.fermionic)
        for stride, cutoff, label in zip(registry._strides, registry.cutoffs, registry.modes)
    ]


def fermionic_sign(modes, key, mode):
    # parity of occupied fermionic modes strictly below `mode`
    count = 0
    for stride, cutoff, fermionic in modes[:mode]:
        if fermionic:
            count += key // stride % (cutoff + 1)
    return -1.0 if count & 1 else 1.0


def creation_kernel(modes, key, mode):
    """(new_key, factor) of a creation operator on one key, or None;
    ``modes``: ``scalar_modes(registry)``."""
    stride, cutoff, fermionic = modes[mode]
    n = (key // stride) % (cutoff + 1)
    if fermionic:
        if n == 1:
            return None
        return key + stride, fermionic_sign(modes, key, mode)
    if n == cutoff:
        return None
    return key + stride, math.sqrt(n + 1)


def annihilation_kernel(modes, key, mode):
    """Adjoint of ``creation_kernel`` on one key."""
    stride, cutoff, fermionic = modes[mode]
    n = (key // stride) % (cutoff + 1)
    if n == 0:
        return None
    if fermionic:
        return key - stride, fermionic_sign(modes, key, mode)
    return key - stride, math.sqrt(n)


def reference_terms(h, amp):
    """(amp t or amp 0.5 v, operators in acting order) for each term of H."""
    terms = []
    t = h.one_body
    m = len(h.registry)
    for i in range(m):
        for j in range(m):
            if t[i, j] != 0:
                terms.append((amp * complex(t[i, j]), ((j, False), (i, True))))
    for (i, j, l, mm), v in h.two_body.items():
        terms.append((amp * 0.5 * v, ((l, False), (mm, False), (j, True), (i, True))))
    return terms


def reference_apply(h, key, amp, out, terms=None):
    """Add H applied to amp |key> into ``out``, one term and one scalar kernel
    at a time (``terms``: ``reference_terms(h, amp)``, built if not given);
    return how many terms reached a basis vector."""
    hits = 0
    modes = scalar_modes(h.registry)
    for value, operators in reference_terms(h, amp) if terms is None else terms:
        current = key
        for mode, creates in operators:
            kernel = creation_kernel if creates else annihilation_kernel
            hit = kernel(modes, current, mode)
            if hit is None:
                break
            current, factor = hit
            value = value * factor
        else:
            out[current] = out.get(current, 0.0) + value
            hits += 1
    return hits


def reference_matrix(h, total):
    """Oracle: each column from ``reference_apply`` on its basis vector, whose
    dict adds each cell from 0.0 in term order, as ``np.add.at`` would; also
    the counts of the terms that reached a basis vector and of the cells.

    Every term annihilates before it creates, so a term that annihilates
    an empty mode of the key, or creates a fermionic mode that is occupied
    and not annihilated first, cannot reach a basis vector: each key is
    given only the other terms, in term order."""
    reg = h.registry
    occupations = enumerate_sector(reg, total)
    keys = [reg.pack(occ) for occ in occupations]
    index = {k: i for i, k in enumerate(keys)}
    matrix = np.zeros((len(keys), len(keys)), dtype=complex)
    terms = reference_terms(h, 1.0 + 0.0j)

    def mask(modes):
        return sum(1 << mode for mode in set(modes))

    annihilated, created = (
        np.array([mask(m for m, creates in ops if creates == side) for _, ops in terms])
        for side in (False, True)
    )
    created &= mask(m for m, (*_, fermionic) in enumerate(scalar_modes(reg)) if fermionic)
    hits = cells = 0
    for col, (key, occ) in enumerate(zip(keys, occupations)):
        out = {}
        empty = mask(mode for mode, n in enumerate(occ) if not n)
        blocked = (annihilated & empty) | (created & ~(empty | annihilated))
        live = [terms[t] for t in np.flatnonzero(blocked == 0)]
        hits += reference_apply(h, key, 1.0 + 0.0j, out, live)
        cells += len(out)
        for new_key, value in out.items():
            matrix[index[new_key], col] = value
    return tuple(keys), matrix, hits, cells


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
        keys, want, *_ = reference_matrix(h, total)
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
        keys, want, *_ = reference_matrix(h, total)
        sector = hamiltonian_matrix(h, total)
        assert tuple(sector.keys.tolist()) == keys
        assert np.max(np.abs(sector.matrix - want), initial=0.0) <= 1e-14


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
    # a cell takes several terms (the two V entries of a bond, one-body and
    # V terms on the diagonal, ~850 per row in the proper basis): they must
    # be added from 0.0 in term order, as np.add.at and the scalar oracle's
    # dict add them
    h = make()
    hits = cells = 0
    for total in totals:
        keys, want, count, distinct = reference_matrix(h, total)
        sector = hamiltonian_matrix(h, total)
        assert tuple(sector.keys.tolist()) == keys
        np.testing.assert_array_equal(sector.matrix.view(np.uint64), want.view(np.uint64))
        hits, cells = hits + count, cells + distinct
    assert hits > cells


@pytest.mark.parametrize(
    "make, totals",
    [
        (hubbard_dimer, (-1, 0, 1, 2, 3, 4)),
        (lambda: disordered_ring(8, 0.0), (3, 4)),
        (lambda: disordered_ring(8, 0.3), (3, 4)),
        (lambda: check_proper_basis(disordered_ring(10, 0.3)).transformed, (5,)),
        (lambda: load_hamiltonian(BOSON_PAYLOAD), range(-1, 8)),
    ],
    ids=["dimer", "ring-real", "ring-flux", "ring-proper", "mixed-external"],
)
def test_assembly_in_chunks_is_bit_identical_to_one_chunk(monkeypatch, make, totals):
    # entry (row, col) takes all its terms from the source key col, so no
    # sum crosses a chunk; the least budget makes each key a chunk
    h = make()
    for total in totals:
        monkeypatch.setattr(fockent.dynamics, "ASSEMBLY_CELLS", 1)
        *chunked, values = _sector_entries(h, _Sector(h.registry, total))
        monkeypatch.setattr(fockent.dynamics, "ASSEMBLY_CELLS", 2**62)
        *whole, want = _sector_entries(h, _Sector(h.registry, total))
        for got, expected in zip(chunked, whole):
            np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(values.view(np.uint64), want.view(np.uint64))


def test_proper_basis_assembly_memory_is_linear_in_entries():
    # the proper basis makes V dense: on the 10-site ring at N = 5 the
    # kernel makes over six triplets an entry; chunks bound the triplets
    # held at once, so the peak is the entries (32 B each, and their sort)
    # and one chunk's working set, below what the triplets alone would take
    h = check_proper_basis(disordered_ring(10, 0.3)).transformed
    keys, *_ = _sector_entries(h, _Sector(h.registry, 5))
    triplets = len(_operator_triplets(h.registry, keys, _terms(h))[0])
    tracemalloc.start()
    try:
        keys, rows, cols, values = _sector_entries(h, _Sector(h.registry, 5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    entries = len(values)
    assert triplets > 6 * entries
    assert peak <= 128 * entries + 8 * fockent.dynamics.ASSEMBLY_CELLS < 32 * triplets


def test_sector_products_across_sectors_match_scalar_kernels():
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
    # H |state>, sector by sector: every image key lies in a sector of the state
    seen = set()
    for total in state.particle_numbers():
        sector = hamiltonian_matrix(h, total)
        got = sector.matrix @ sector_vector(sector, state)
        expected = [want.get(key, 0.0) for key in sector.keys.tolist()]
        assert np.max(np.abs(got - expected)) <= 1e-14
        seen.update(sector.keys.tolist())
    assert set(want) <= seen


def test_packed_keys_beyond_int64_raise_size_guard():
    def chain(modes):
        reg = registry_create([generic(i) for i in range(modes)])
        one_body = np.zeros((modes, modes))
        one_body[0, modes - 1] = one_body[modes - 1, 0] = -1.0
        return SecondQuantizedHamiltonian(reg, one_body)

    widest = chain(63)
    sector = hamiltonian_matrix(widest, 1)
    keys = sector.keys.tolist()
    assert max(keys) == 2**62
    # H takes the top key 2**62 to key 1 alone, with the hopping -1
    column = sector.matrix[:, keys.index(2**62)]
    assert column[keys.index(1)] == -1.0
    assert np.count_nonzero(column) == 1

    h = chain(64)
    state = basis_state(h.registry, (0,) * 63 + (1,))
    for call in (
        lambda: hamiltonian_matrix(h, 1),
        lambda: evolve_many(state, h, [0.5]),
    ):
        with pytest.raises(SizeGuardError) as info:
            call()
        assert info.value.dimension == 2**64


def test_int64_refusal_comes_before_the_sector_guard():
    # 70 modes at N = 35: C(70, 35) keys, far above the guard, packed beyond int64
    reg = registry_create([generic(i) for i in range(70)])
    h = SecondQuantizedHamiltonian(reg, np.zeros((70, 70)))
    for call in (lambda: hamiltonian_matrix(h, 35), lambda: _sector_entries(h, _Sector(reg, 35))):
        with pytest.raises(SizeGuardError, match="beyond the int64 range") as info:
            call()
        assert info.value.dimension == 2**70
    with pytest.raises(SizeGuardError, match="^sector N=35 dimension "):
        _sector_keys(reg, 35)


# ---------------------------------------------------------------------------
# sparse Chebyshev propagation against dense eigh


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
def test_chebyshev_propagation_matches_eigh(dim):
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
    # one recurrence for every time, unsorted and of either sign
    times = [0.37, 0.0, 40.0, -0.9, 1e-3, 4.0]
    trajectory = _propagate_sparse(operator, psi, times)
    assert trajectory.shape == (len(times), dim)
    assert np.array_equal(trajectory[1], psi)
    for t, got in zip(times, trajectory):
        assert np.max(np.abs(got - exact_evolution(matrix, psi, t))) <= 1e-12


@pytest.mark.parametrize("x", [0.0, 1e-3, 0.5, 62.0, -62.0, 500.0])
def test_bessel_table_matches_mpmath(x):
    degree = _chebyshev_degree(x)
    got = _bessel_table(np.array([x, 0.5, x]), degree)
    want = [float(mpmath.besselj(k, x)) for k in range(degree + 1)]
    assert np.max(np.abs(got[0] - want)) <= 1e-15
    assert np.array_equal(got[0], got[2])
    # the tail bound of the degree: 2 (|x|/2)^(K+1) / (K+1)! is below 2**-53
    assert 2 * mpmath.mpf(abs(x) / 2) ** (degree + 1) / mpmath.factorial(degree + 1) <= 2.0**-53


def test_bessel_table_rescales_tiny_and_mixed_arguments():
    # at x = 1e-30 the backward recurrence grows by about 2**105 an order, so
    # the orders are tested and scaled every few steps; one table holds
    # arguments from below 2**-300 (no recurrence) to 40, of either sign
    x = np.array([1e-200, 2.0**-299, 1e-30, -0.7, 40.0, 1e-3])
    got = _bessel_table(x, 60)
    assert got.shape == (len(x), 61) and np.isfinite(got).all()
    for row, value in zip(got, x):
        want = [float(mpmath.besselj(k, value)) for k in range(61)]
        assert np.max(np.abs(row - want)) <= 1e-15


def test_chebyshev_phases_carry_the_rounding_of_center_times_t():
    # H = diag(1000.3, 1000.7): center t is near 7300, whose rounding alone
    # (an ulp is 9e-13) would move the phase by far more than 1e-14
    operator = padded_operator(np.array([0, 1]), np.array([0, 1]), np.array([1000.3, 1000.7]), 2)
    psi = np.array([0.6, 0.8j])
    times = [7.3, -2.9, 0.0]
    trajectory = _propagate_sparse(operator, psi, times)
    with mpmath.workdps(40):
        for t, got in zip(times, trajectory):
            for energy, start, amplitude in zip((1000.3, 1000.7), psi, got):
                turn = mpmath.mpf(energy) * mpmath.mpf(t)
                want = complex(mpmath.mpc(start) * mpmath.expj(-turn))
                assert abs(amplitude - want) <= 1e-14


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.0**52, -1e300])
def test_chebyshev_degree_refuses_a_non_finite_or_huge_bound(bad):
    with pytest.raises(ValueError):
        _chebyshev_degree(bad)
    operator = padded_operator(np.array([0, 1]), np.array([1, 0]), np.ones(2, complex), 2)
    with pytest.raises(ValueError):
        _propagate_sparse(operator, np.array([1.0, 0.0], complex), [0.0, bad])


def test_chebyshev_table_beyond_guard_squared_is_refused_before_allocating(monkeypatch):
    monkeypatch.setenv("FOCKENT_SIZE_GUARD", "100")
    rng = np.random.default_rng(40)
    matrix = random_sparse_hermitian(40, rng)
    rows, cols = np.nonzero(matrix)
    operator = padded_operator(rows, cols, matrix[rows, cols], 40)
    psi = np.eye(40, dtype=complex)[0]
    assert _propagate_sparse(operator, psi, [0.0, 50.0]).shape == (2, 40)
    degree = _chebyshev_degree(operator.radius * 1e5)
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError) as info:
            _propagate_sparse(operator, psi, [0.0, 1e5])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.dimension, info.value.guard) == (2 * (degree + 1), 10_000)
    assert f"Chebyshev coefficients (2 times x {degree + 1} orders)" in str(info.value)
    assert peak < 2**18  # the table would take about 170 MB


@pytest.mark.parametrize("phase", [0.0, 0.3], ids=["real", "flux"])
def test_matvecs_per_trajectory_on_the_benchmark_ring(monkeypatch, phase):
    # a 12-site disordered ring at half filling, as the dynamics benchmark
    # runs it, at 50 times on [0, 5]
    calls = []
    matvec = _SparseOperator.__matmul__
    monkeypatch.setattr(
        _SparseOperator, "__matmul__", lambda self, v: calls.append(1) or matvec(self, v)
    )
    h = disordered_ring(12, phase)
    start = basis_state(h.registry, [1, 0] * 6)
    trajectory = evolve_many(start, h, np.linspace(0.0, 5.0, 50))
    assert len(trajectory) == 50 and trajectory[0].amplitudes == start.amplitudes
    # the degree at radius x 5: 113 from Gershgorin's radius, 88 or 89 from
    # the Collatz-Wielandt interval (84 or 85 from the true half-width)
    assert 0 < len(calls) <= 100


def test_evolve_many_at_a_vanishing_time_returns_the_start(monkeypatch):
    # ||H|| t far below the rounding unit: on the sparse path, the Chebyshev
    # series of degree 0, which takes no matvec
    calls = []
    matvec = _SparseOperator.__matmul__
    monkeypatch.setattr(
        _SparseOperator, "__matmul__", lambda self, v: calls.append(1) or matvec(self, v)
    )
    h = disordered_ring(12, 0.0)
    assert sector_dimension(h.registry, 6) > DENSE_CROSSOVER
    start = basis_state(h.registry, [1, 0] * 6)
    [state] = evolve_many(start, h, [1e-30])
    assert calls == []
    [(key, amplitude)] = state.amplitudes.items()
    assert key in start.amplitudes and abs(amplitude - 1.0) < 1e-28


def no_diagonal_ring():
    # an on-site energy on mode 0 only: rows whose key leaves mode 0 empty
    # have no diagonal entry
    t = -np.roll(np.eye(7), 1, axis=1) * np.exp(0.4j)
    t = t + t.conj().T
    t[0, 0] = 0.7
    return SecondQuantizedHamiltonian(registry_create([generic(i) for i in range(7)]), t), 3


def disconnected_clusters():
    # two three-mode clusters with no hopping between them: the N = 3 sector
    # splits into blocks by the number in each cluster
    t = np.zeros((6, 6), complex)
    for i, j in ((0, 1), (1, 2), (3, 4), (4, 5), (5, 3)):
        t[i, j], t[j, i] = -np.exp(0.3j * i), -np.exp(-0.3j * i)
    t += np.diag([0.5, -0.2, 0.1, 1.5, 0.0, -0.4])
    reg = registry_create([generic(i) for i in range(6)])
    two_body = {(0, 1, 0, 1): 2.0, (3, 5, 3, 5): -1.0}
    return SecondQuantizedHamiltonian(reg, t, None, two_body), 3


def boson_chain():
    # three bosonic modes, cutoffs 2, 3 and 2: hopping with a phase and an
    # on-site (U/2) n (n - 1)
    reg = registry_create([boson(i) for i in range(3)], cutoffs=[2, 3, 2])
    t = np.diag([0.3, -0.1, 0.2]).astype(complex)
    for i in range(2):
        t[i, i + 1], t[i + 1, i] = -np.exp(0.7j), -np.exp(-0.7j)
    two_body = {(i, i, i, i): 1.5 for i in range(3)}
    return SecondQuantizedHamiltonian(reg, t, None, two_body), 4


@pytest.mark.parametrize(
    "make",
    [
        lambda: (disordered_ring(8, 0.3), 4),
        no_diagonal_ring,
        lambda: (hubbard_dimer(), 4),
        lambda: (disordered_ring(6, 0.0), 0),
        disconnected_clusters,
        boson_chain,
    ],
    ids=["flux", "no-diagonal", "one-key", "no-entries", "disconnected", "bosons"],
)
def test_spectral_interval_holds_the_spectrum_inside_gershgorin(make):
    h, total = make()
    keys, rows, cols, values = _sector_entries(h, _Sector(h.registry, total))
    dim = len(keys)
    operator = _SparseOperator.from_entries(rows, cols, values, dim)
    low = operator.center - operator.radius
    high = operator.center + operator.radius
    matrix = np.zeros((dim, dim), complex)
    matrix[rows, cols] = values
    energies = np.linalg.eigvalsh(matrix)
    assert low <= energies[0] and energies[-1] <= high
    diagonal = matrix.diagonal().real
    off = np.abs(matrix).sum(axis=1) - np.abs(diagonal)
    gershgorin = (diagonal - off).min(), (diagonal + off).max()
    slack = 1e-12 * (1.0 + np.abs(gershgorin).max())
    assert gershgorin[0] - slack <= low and high <= gershgorin[1] + slack
    if len(rows) > dim:  # off-diagonal entries: the power steps narrow it
        assert high - low < gershgorin[1] - gershgorin[0] - 0.05


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


def test_sector_keys_are_guarded_before_allocation(monkeypatch):
    monkeypatch.delenv("FOCKENT_SIZE_GUARD", raising=False)
    reg = registry_create([generic(i) for i in range(40)])
    # C(40, 20) keys would take 1.1 TB
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError) as raised:
            enumerate_sector(reg, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    keys = math.comb(40, 20)
    assert (raised.value.dimension, raised.value.guard) == (keys, 5000)
    assert str(raised.value) == f"sector N=20 dimension {keys} exceeds guard 5000"
    assert peak < 100_000
    monkeypatch.setenv("FOCKENT_SIZE_GUARD", "780")
    assert len(_sector_keys(reg, 2)) == 780
    monkeypatch.setenv("FOCKENT_SIZE_GUARD", "779")
    with pytest.raises(SizeGuardError):
        _sector_keys(reg, 2)


def test_proper_basis_tensor_is_guarded_before_allocation(monkeypatch):
    h = disordered_ring(40, 0.0)
    monkeypatch.setenv("FOCKENT_SIZE_GUARD", "10")
    # the dense 40**4 tensor would take 41 MB, and einsum as much again
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError) as raised:
            check_proper_basis(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (raised.value.dimension, raised.value.guard) == (40**4, 100)
    assert peak < 100_000


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


def disordered_ring(sites, phase, seed=1, repulsion=2.0):
    rng = np.random.default_rng(seed)
    reg = registry_create([generic(i) for i in range(sites)])
    one_body = np.diag(rng.uniform(-0.2, 0.2, sites)).astype(complex)
    two_body = {}
    for i in range(sites):
        j = (i + 1) % sites
        one_body[i, j] = -np.exp(1j * phase)
        one_body[j, i] = np.conj(one_body[i, j])
        two_body[(i, j, i, j)] = two_body[(j, i, j, i)] = repulsion
    return SecondQuantizedHamiltonian(reg, one_body, None, two_body)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_evolve_many_refuses_a_non_finite_time_on_either_path(bad):
    # the dense path used to return zero states at such a time
    h = disordered_ring(11, 0.0)
    reg = h.registry
    dense = basis_state(reg, (0,) * 10 + (1,))
    sparse = basis_state(reg, (1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0))
    assert sector_dimension(reg, 4) > DENSE_CROSSOVER >= sector_dimension(reg, 1)
    for state in (dense, sparse):
        with pytest.raises(ValueError, match=f"^cannot propagate to the time {bad}, "):
            evolve_many(state, h, [0.5, bad])


def test_evolve_many_refuses_a_trajectory_that_is_not_finite(monkeypatch):
    # E t overflows on the dense path; on the sparse path one amplitude is
    # made NaN: either way the whole trajectory is refused
    reg = registry_create([generic(0), generic(1)])
    h = SecondQuantizedHamiltonian(reg, np.diag([1e308, 0.0]))
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="is not finite"):
        evolve_many(basis_state(reg, (1, 0)), h, [1.0, 10.0])
    propagate = dynamics._propagate_sparse

    def spoiled(*args):
        trajectory = propagate(*args)
        trajectory[-1, 3] = complex(math.nan, 0.0)
        return trajectory

    monkeypatch.setattr(dynamics, "_propagate_sparse", spoiled)
    h = disordered_ring(11, 0.3)
    with pytest.raises(ValueError, match=r"^amplitude \(nan\+0j\) is not finite$"):
        evolve_many(basis_state(h.registry, (1, 0) * 5 + (0,)), h, [0.0, 0.5])


@pytest.mark.parametrize("phase", [0.0, 0.3], ids=["real", "flux"])
def test_evolve_many_above_crossover_matches_eigh(phase):
    h = disordered_ring(11, phase)
    reg = h.registry
    assert sector_dimension(reg, 4) > DENSE_CROSSOVER >= sector_dimension(reg, 1)
    # a sparse sector (N=4) and a dense one (N=1) in one state
    start = superpose(
        [
            (0.8, basis_state(reg, (1, 0, 1, 0, 1, 0, 1, 0, 0, 0, 0))),
            (0.6j, basis_state(reg, (0,) * 10 + (1,))),
        ]
    )
    times = [2.0, -1.5, 0.0, 0.25, 2.0, -0.1]
    trajectory = evolve_many(start, h, times)

    sectors = [hamiltonian_matrix(h, total) for total in (1, 4)]
    energy = sector_energy(sectors, start)
    for t, state in zip(times, trajectory):
        for sector in sectors:
            want = exact_evolution(sector.matrix, sector_vector(sector, start), t)
            got = sector_vector(sector, state)
            assert np.max(np.abs(got - want)) <= 1e-12
        assert state.particle_numbers() == {1, 4}
        assert state.norm() == pytest.approx(1.0, abs=1e-12)
        assert sector_energy(sectors, state) == pytest.approx(energy, abs=1e-11)

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
