"""Engine tests against an independent dense-matrix oracle.

Every ladder operator is rebuilt here as an explicit Kronecker product
(raising matrix on the target mode, parity factors on lower fermionic
modes, identities elsewhere) and compared element by element with the
sparse kernels.
"""

import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest

from fockent import (
    DuplicateModeError,
    ManyBodyState,
    NormalizationError,
    RegistryMismatchError,
    SecondQuantizedHamiltonian,
    Spin,
    apply_annihilation,
    apply_creation,
    basis_state,
    boson,
    electron,
    enumerate_sector,
    evolve_many,
    generic,
    hole,
    inner_product,
    number_expectation,
    project_particle_number,
    registry_create,
    sector_dimension,
    superpose,
    vacuum_state,
)
from fockent.fock_core import (
    PRUNE_TOL,
    ModeLabel,
    ModeRegistry,
    Species,
    _grouped,
    _occupations,
    _running_sum,
    _Sector,
    _sector_keys,
)


def mixed_registry():
    # two fermions, one boson (cutoff 3), one more fermion: exercises
    # parity hopping across a bosonic mode
    labels = [electron(0), electron(1), boson(0), generic(5)]
    return registry_create(labels, cutoffs=3)


def fermion_registry(n=4):
    return registry_create([generic(i) for i in range(n)])


def dense_index(radices, occupations):
    # mode 0 least significant, matching the packing contract
    idx = 0
    stride = 1
    for n, r in zip(occupations, radices):
        idx += n * stride
        stride *= r
    return idx


def dense_creation(registry, mode):
    """a^dagger_mode as an explicit matrix on the full packed space."""
    radices = [registry.radix(i) for i in range(len(registry))]
    op = np.eye(1)
    for i in range(len(registry)):
        r = radices[i]
        if i == mode:
            block = np.zeros((r, r))
            for n in range(r - 1):
                block[n + 1, n] = math.sqrt(n + 1)
        elif registry.modes[i].fermionic and i < mode and registry.modes[mode].fermionic:
            block = np.diag([1.0, -1.0])
        else:
            block = np.eye(r)
        # prepend: higher modes take larger strides
        op = np.kron(block, op)
    return op


def state_vector(state):
    v = np.zeros(state.registry.full_dimension(), dtype=complex)
    for occ, amp in state.items():
        v[state.registry.pack(occ)] = amp
    return v


def random_state(registry, rng, normalize=True):
    dim = registry.full_dimension()
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amps = {}
    for key in range(dim):
        amps[registry.unpack(key)] = v[key]
    return ManyBodyState.from_amplitudes(registry, amps, normalize=normalize)


def test_pack_unpack_roundtrip():
    reg = mixed_registry()
    radices = [reg.radix(i) for i in range(len(reg))]
    for occ in itertools.product(*[range(r) for r in radices]):
        key = reg.pack(occ)
        assert key == dense_index(radices, occ)
        assert reg.unpack(key) == occ


def test_pack_rejects_out_of_range():
    reg = mixed_registry()
    with pytest.raises(ValueError):
        reg.pack((2, 0, 0, 0))
    with pytest.raises(ValueError):
        reg.pack((0, 0, 4, 0))
    with pytest.raises(ValueError):
        reg.pack((0, 0, 0))


def test_registry_rejects_duplicates_and_bad_cutoffs():
    with pytest.raises(DuplicateModeError):
        registry_create([electron(0), electron(0)])
    with pytest.raises(ValueError):
        registry_create([boson(0)])  # bosonic mode needs a cutoff
    with pytest.raises(ValueError):
        registry_create([boson(0)], cutoffs=0)


def test_spin_distinguishes_modes():
    reg = registry_create([electron(0, Spin.UP), electron(0, Spin.DOWN)])
    assert len(reg) == 2
    assert reg.index_of(electron(0, Spin.DOWN)) == 1
    with pytest.raises(KeyError):
        reg.index_of(hole(0))


@pytest.mark.parametrize("mode", range(4))
def test_creation_matches_dense_oracle(mode):
    reg = mixed_registry()
    rng = np.random.default_rng(101 + mode)
    op = dense_creation(reg, mode)
    for _ in range(5):
        state = random_state(reg, rng)
        got = state_vector(apply_creation(state, mode))
        want = op @ state_vector(state)
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("mode", range(4))
def test_annihilation_matches_dense_oracle(mode):
    reg = mixed_registry()
    rng = np.random.default_rng(202 + mode)
    op = dense_creation(reg, mode).conj().T
    for _ in range(5):
        state = random_state(reg, rng)
        got = state_vector(apply_annihilation(state, mode))
        want = op @ state_vector(state)
        assert np.max(np.abs(got - want)) < 1e-12


def test_fermionic_anticommutation_dense():
    reg = fermion_registry(4)
    dim = reg.full_dimension()
    ops = [dense_creation(reg, i) for i in range(4)]
    for i in range(4):
        for j in range(4):
            anti = ops[i].conj().T @ ops[j] + ops[j] @ ops[i].conj().T
            want = np.eye(dim) if i == j else np.zeros((dim, dim))
            assert np.max(np.abs(anti - want)) < 1e-12
            # creation pairs anticommute to zero
            cc = ops[i] @ ops[j] + ops[j] @ ops[i]
            if i != j:
                assert np.max(np.abs(cc)) < 1e-12


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ModeRegistry((generic(0),), (1, 1)), "modes and cutoffs length mismatch"),
        (lambda: ModeRegistry((electron(0),), (2,)), "must have cutoff 1"),
        (lambda: registry_create([boson(0), boson(1)], [2]), "2 bosonic modes but 1 cutoffs"),
    ],
)
def test_registry_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_label_text_names_spin_and_extra_tag():
    assert str(ModeLabel(Species.ELECTRON, (1, 2), Spin.UP, 3)) == "electron:1,2:up:x3"


def test_bosonic_commutator_below_cutoff():
    # [a, a^dagger] = 1 holds on every level except the top of the ladder
    reg = registry_create([boson(0)], cutoffs=5)
    op = dense_creation(reg, 0)
    comm = op.conj().T @ op - op @ op.conj().T
    assert np.allclose(np.diag(comm)[:-1], 1.0)
    assert comm[5, 5] == pytest.approx(-5.0)  # truncation artifact


def test_fermionic_sign_orientation():
    # basis vectors are oriented as the operator product with the lowest
    # mode index leftmost, i.e. applied last
    reg = fermion_registry(3)
    vac = vacuum_state(reg)
    asc = apply_creation(apply_creation(vac, 1), 0)  # adag_0 adag_1 |vac>
    assert asc.amplitude((1, 1, 0)) == pytest.approx(1.0)
    desc = apply_creation(apply_creation(vac, 0), 1)  # adag_1 adag_0 |vac>
    assert desc.amplitude((1, 1, 0)) == pytest.approx(-1.0)
    # parity string counts only occupied modes in between
    hop = apply_creation(apply_creation(vac, 2), 0)
    assert hop.amplitude((1, 0, 1)) == pytest.approx(1.0)


def test_ladders_beyond_int64_match_exact_keys_and_factors():
    # 64 fermionic modes and a boson of cutoff 3 pack into keys up to 2**66 - 1,
    # held as Python ints; the expected keys, signs and sqrt factors come from
    # integer bit arithmetic on those keys
    reg = registry_create([generic(i) for i in range(64)] + [boson(0)], cutoffs=3)
    rng = np.random.default_rng(11)
    patterns = [0, 1, 2**63, 2**64 - 1] + [3 * int(x) for x in rng.integers(0, 2**62, 8)]
    amps = {
        pattern + n * 2**64: complex(rng.normal(), rng.normal())
        for i, pattern in enumerate(patterns)
        for n in ((i % 4), (i + 1) % 4)
    }
    state = ManyBodyState._from_keys(reg, list(amps), list(amps.values()))
    for mode in (0, 1, 31, 62, 63):
        stride = 2**mode
        sign = {k: -1.0 if bin(k % stride).count("1") % 2 else 1.0 for k in amps}
        created = apply_creation(state, mode)
        want = [(k + stride, a * sign[k]) for k, a in amps.items() if not k & stride]
        assert list(created.amplitudes.items()) == want
        assert not created.truncated
        annihilated = apply_annihilation(state, mode)
        want = [(k - stride, a * sign[k]) for k, a in amps.items() if k & stride]
        assert list(annihilated.amplitudes.items()) == want
        assert all(type(k) is int for k in (*created.amplitudes, *annihilated.amplitudes))
    top = 2**64
    created = apply_creation(state, 64)
    want = [(k + top, a * math.sqrt(k // top + 1)) for k, a in amps.items() if k // top < 3]
    assert list(created.amplitudes.items()) == want
    assert created.truncated  # the n = 3 branches were dropped at the cutoff
    kept = [k for k in amps if k // top < 3]
    below = ManyBodyState._from_keys(reg, kept, [amps[k] for k in kept])
    assert not apply_creation(below, 64).truncated
    annihilated = apply_annihilation(state, 64)
    want = [(k - top, a * math.sqrt(k // top)) for k, a in amps.items() if k // top > 0]
    assert list(annihilated.amplitudes.items()) == want
    assert not annihilated.truncated
    assert apply_annihilation(created, 64).truncated


def test_pauli_exclusion_and_empty_annihilation():
    reg = fermion_registry(2)
    occupied = basis_state(reg, (1, 0))
    assert apply_creation(occupied, 0).is_zero
    assert apply_annihilation(occupied, 1).is_zero


def test_bosonic_ladder_factors():
    reg = registry_create([boson(0)], cutoffs=4)
    state = basis_state(reg, (2,))
    up = apply_creation(state, 0)
    assert up.amplitude((3,)) == pytest.approx(math.sqrt(3))
    down = apply_annihilation(state, 0)
    assert down.amplitude((1,)) == pytest.approx(math.sqrt(2))


def test_bosonic_truncation_flag():
    reg = registry_create([boson(0)], cutoffs=2)
    top = basis_state(reg, (2,))
    pushed = apply_creation(top, 0)
    assert pushed.is_zero
    assert pushed.truncated
    # flag is sticky through later operations
    assert apply_annihilation(pushed, 0).truncated
    below = apply_creation(basis_state(reg, (0,)), 0)
    assert not below.truncated


def test_inner_product_and_registry_mismatch():
    reg = fermion_registry(3)
    rng = np.random.default_rng(7)
    a = random_state(reg, rng)
    b = random_state(reg, rng)
    va, vb = state_vector(a), state_vector(b)
    assert inner_product(a, b) == pytest.approx(np.vdot(va, vb))
    assert inner_product(a, a) == pytest.approx(1.0)
    other = fermion_registry(4)
    with pytest.raises(RegistryMismatchError):
        inner_product(a, vacuum_state(other))


def test_number_expectation_matches_vector():
    reg = mixed_registry()
    rng = np.random.default_rng(11)
    state = random_state(reg, rng)
    v = state_vector(state)
    for mode in range(len(reg)):
        adag = dense_creation(reg, mode)
        n_op = adag @ adag.conj().T
        assert number_expectation(state, mode) == pytest.approx(
            np.vdot(v, n_op @ v).real, abs=1e-12
        )


def test_superpose_prunes_and_checks_registry():
    reg = fermion_registry(2)
    a = basis_state(reg, (1, 0))
    b = basis_state(reg, (0, 1))
    combo = superpose([(0.5, a), (0.5, b), (-0.5, b)])
    assert combo.amplitude((1, 0)) == pytest.approx(0.5)
    assert combo.amplitude((0, 1)) == 0.0
    assert combo.num_terms == 1
    cancelled = superpose([(1.0, a), (-1.0, a)])
    assert cancelled.is_zero
    with pytest.raises(RegistryMismatchError):
        superpose([(1.0, a), (1.0, vacuum_state(fermion_registry(3)))])
    with pytest.raises(ValueError):
        superpose([])
    # a state evolved under a Hamiltonian on another registry, as above
    h = SecondQuantizedHamiltonian(fermion_registry(3), np.eye(3))
    with pytest.raises(RegistryMismatchError, match="different registries"):
        evolve_many(a, h, [0.0])


def test_normalize_zero_state_raises():
    reg = fermion_registry(2)
    zero = ManyBodyState._from_keys(reg, [], [])
    with pytest.raises(NormalizationError):
        zero.normalize()


def test_from_amplitudes_merges_duplicate_keys():
    reg = fermion_registry(2)
    state = ManyBodyState.from_amplitudes(reg, {(1, 0): 1.0})
    merged = superpose([(1.0, state), (1.0, state)])
    assert merged.amplitude((1, 0)) == pytest.approx(2.0)


def test_from_keys_prunes_keeps_order_and_refuses_repeats():
    reg = fermion_registry(2)
    state = ManyBodyState._from_keys(reg, [3, 0, 1], [-0.0 - 0.5j, 1e-16, 0.5])
    assert list(state.amplitudes) == [3, 1]
    assert repr(state.amplitudes[3]) == repr(0.0 - 0.5j)
    with pytest.raises(ValueError):
        ManyBodyState._from_keys(reg, [1, 1], [0.5, 0.5])


def test_from_amplitudes_refuses_nan():
    # NaN used to be pruned as if it were small, leaving {(0, 1): 1}
    reg = fermion_registry(2)
    with pytest.raises(ValueError, match=r"amplitude \(nan\+0j\) is not finite"):
        ManyBodyState.from_amplitudes(reg, {(1, 0): math.nan, (0, 1): 1.0}, normalize=True)


def test_superpose_refuses_a_nan_coefficient():
    # the NaN term used to vanish, and the entropy of the rest read -0.0
    reg = fermion_registry(2)
    a, b = basis_state(reg, (1, 0)), basis_state(reg, (0, 1))
    with pytest.raises(ValueError, match="is not finite"):
        superpose([(math.nan, a), (1.0, b)])


def test_normalize_refuses_an_overflowing_norm():
    # the squared norm 2e400 overflows; 1 / inf used to prune every term
    reg = fermion_registry(2)
    state = ManyBodyState._from_keys(reg, [1, 2], [1e200, 1e200])
    with pytest.raises(NormalizationError, match="norm is inf"):
        state.normalize()


@pytest.mark.parametrize(
    "bad",
    [-1, -4, 4, True, np.True_, 1.0, "1", None],
    ids=["-1", "-4", "4", "True", "numpy-True", "1.0", "str", "None"],
)
def test_ladders_and_number_refuse_bad_mode_indices(bad):
    # negative indices used to wrap to the last modes, and True, 1.0 and 4
    # raised IndexError
    state = random_state(fermion_registry(4), np.random.default_rng(23))
    for call in (apply_creation, apply_annihilation, number_expectation):
        with pytest.raises(ValueError, match=f"^mode index {re.escape(repr(bad))} "):
            call(state, bad)
    for index in (np.int64(3), np.uint8(3)):
        assert apply_creation(state, index).amplitudes == apply_creation(state, 3).amplitudes
        assert apply_annihilation(state, index).amplitudes == apply_annihilation(state, 3).amplitudes
        assert number_expectation(state, index) == number_expectation(state, 3)


def test_enumerate_sector_matches_bruteforce():
    reg = mixed_registry()
    radices = [reg.radix(i) for i in range(len(reg))]
    for total in range(0, 7):
        brute = [
            occ
            for occ in itertools.product(*[range(r) for r in radices])
            if sum(occ) == total
        ]
        brute.sort()
        got = enumerate_sector(reg, total)
        assert got == brute
        assert sector_dimension(reg, total) == len(brute)


def recurrence_dimension(registry, total):
    """Sector dimension by the mode-by-mode recurrence over totals."""
    if total < 0:
        return 0
    ways = [1] + [0] * total
    for c in registry.cutoffs:
        new = [0] * (total + 1)
        for r in range(total + 1):
            for n in range(min(c, total - r) + 1):
                new[r + n] += ways[r]
        ways = new
    return ways[total]


RANK_REGISTRIES = {
    # one group (a full dimension of at most 256), two, three and six
    "fermions7": registry_create([generic(i) for i in range(7)]),
    "fermions12": registry_create([generic(i) for i in range(12)]),
    "fermions30": registry_create([generic(i) for i in range(30)]),
    "fermions63": registry_create([generic(i) for i in range(63)]),
    "bosons": registry_create([boson(i) for i in range(3)], cutoffs=[2, 4, 1]),
    "bosons10": registry_create([boson(i) for i in range(10)], cutoffs=3),
    # each group's last mode is cut at N + 1 occupations
    "bosons_wide": registry_create([boson(i) for i in range(4)], cutoffs=[1, 30, 2, 40]),
    "mixed": registry_create(
        [electron(0), boson(0), hole(1), boson(1), electron(2)], cutoffs=[2, 3]
    ),
    "mixed9": registry_create(
        [electron(k) for k in range(3)]
        + [boson(k) for k in range(3)]
        + [hole(k) for k in range(3)],
        cutoffs=4,
    ),
}


@pytest.mark.parametrize("name", list(RANK_REGISTRIES))
def test_sector_rank_matches_a_sorted_search(name):
    # the empty (negative and over-full) sectors, the one-key sectors N = 0
    # and N = capacity, and the sectors next to them that the guard admits
    reg = RANK_REGISTRIES[name]
    top = sum(reg.cutoffs)
    rng = np.random.default_rng(len(reg))
    totals = {-2, -1, 0, 1, 2, 3, top - 2, top - 1, top, top + 1}
    for total in sorted(t for t in totals if recurrence_dimension(reg, t) <= 5000):
        sector = _Sector(reg, total)
        assert sector.dimension == recurrence_dimension(reg, total) == sector_dimension(reg, total)
        keys = _sector_keys(reg, total)
        assert keys.tolist() == sorted(keys.tolist(), key=reg.unpack)
        assert len(keys) == sector.dimension and len(set(keys.tolist())) == len(keys)
        targets = keys[rng.integers(0, len(keys), 3 * len(keys))] if len(keys) else keys
        order = np.argsort(keys)
        want = order[np.searchsorted(keys[order], targets)]
        got = sector.rank(targets)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got.astype(np.uint64), want.astype(np.uint64))
        np.testing.assert_array_equal(sector.rank(keys), np.arange(len(keys)))


def test_sector_rank_tables_hold_what_the_sector_reaches():
    # a Bose dimer of cutoff 10**4 at N = 1000 (dimension 1001) is two
    # groups of one mode and 1001 patterns each: a table over every
    # (particles left, digits) would hold 1001**2 entries a group
    reg = registry_create([boson(0), boson(1)], cutoffs=10**4)
    sector = _Sector(reg, 1000)
    keys = sector.keys
    tracemalloc.start()
    try:
        got = sector.rank(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(got, np.arange(1001))
    assert sum(len(table) for _, _, table, _ in sector._tables) == 2 * 1001
    assert peak < 2**20


def test_sector_of_no_modes():
    reg = registry_create([])
    for total in (-1, 0, 1):
        sector = _Sector(reg, total)
        assert sector.keys.tolist() == ([0] if total == 0 else [])
        assert sector.rank(sector.keys).tolist() == sector.keys.tolist()
        assert sector.dimension == recurrence_dimension(reg, total)


def test_particle_numbers_and_vacuum():
    reg = mixed_registry()
    vac = vacuum_state(reg)
    assert vac.particle_numbers() == {0}
    assert vac.norm() == pytest.approx(1.0)
    mixed = superpose(
        [(1.0, basis_state(reg, (1, 0, 0, 0))), (1.0, basis_state(reg, (0, 0, 2, 0)))]
    )
    assert mixed.particle_numbers() == {1, 2}


# ---------------------------------------------------------------------------
# the array-backed state against the dict implementation it replaced


def left_sum(values):
    """0 + v0 + v1 + ..., left to right, as Python 3.11's ``sum`` adds
    (from 3.12 on, ``sum`` compensates float rounding)."""
    total = 0
    for v in values:
        total = total + v
    return total


def dict_pruned(amps):
    return {k: a for k, a in amps.items() if abs(a) > PRUNE_TOL}


def dict_norm(amps):
    return math.sqrt(left_sum(a.real * a.real + a.imag * a.imag for a in amps.values()))


def dict_normalize(amps):
    inv = 1.0 / dict_norm(amps)
    return dict_pruned({k: a * inv for k, a in amps.items()})


def dict_number_expectation(reg, amps, mode):
    return left_sum(
        reg.unpack(k)[mode] * (a.real * a.real + a.imag * a.imag) for k, a in amps.items()
    )


def dict_inner_product(bra, ket):
    if len(bra) <= len(ket):
        return left_sum(a.conjugate() * ket[k] for k, a in bra.items() if k in ket)
    return left_sum(bra[k].conjugate() * a for k, a in ket.items() if k in bra)


def dict_superpose(terms):
    out = {}
    for coef, amps in terms:
        for key, amp in amps.items():
            out[key] = out.get(key, 0.0) + coef * amp
    return dict_pruned(out)


def dict_particle_numbers(reg, amps):
    return {sum(reg.unpack(k)) for k in amps}


def dict_project(reg, amps, total):
    return dict_normalize({k: a for k, a in amps.items() if sum(reg.unpack(k)) == total})


ORACLE_REGISTRIES = {
    "fermions": lambda: fermion_registry(6),
    "mixed": lambda: registry_create(
        [electron(0), boson(0), generic(1), boson(1), generic(2)], cutoffs=3
    ),
    # keys up to 2**66 - 1, held as Python ints in object arrays
    "wide": lambda: registry_create([generic(i) for i in range(64)] + [boson(0)], cutoffs=3),
}


def random_keys(reg, rng, count):
    keys = {}
    while len(keys) < count:
        keys[reg.pack([int(rng.integers(0, c + 1)) for c in reg.cutoffs])] = None
    return list(keys)


def sparse_random_state(reg, rng, keys):
    """Random amplitudes on ``keys``, with exact zero parts, a term pruned at
    construction and one pruned by ``normalize``."""
    values = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    values[:4] = [values[0].real, 1j * values[1].imag, 3e-16, 2e-15j]
    return ManyBodyState._from_keys(reg, keys, values)


def items_repr(amps):
    return repr(list(amps.items()))


@pytest.mark.parametrize("name", sorted(ORACLE_REGISTRIES))
def test_array_state_matches_dict_oracle(name):
    reg = ORACLE_REGISTRIES[name]()
    rng = np.random.default_rng(8)
    pool = random_keys(reg, rng, 60)
    # overlapping key sets, in different orders
    psi, phi, chi = (
        sparse_random_state(reg, rng, keys) for keys in (pool[:40], pool[:19:-1], pool[::-3])
    )
    amps = psi.amplitudes
    assert all(type(k) is int and type(a) is complex for k, a in amps.items())
    assert len(amps) == psi.num_terms == 39
    assert repr(psi.norm()) == repr(dict_norm(amps))
    unit = psi.normalize()
    assert items_repr(unit.amplitudes) == items_repr(dict_normalize(amps))
    assert unit.num_terms == 38
    for mode in range(len(reg)):
        got = number_expectation(unit, mode)
        assert repr(got) == repr(dict_number_expectation(reg, unit.amplitudes, mode))
    numbers = unit.particle_numbers()
    assert numbers == dict_particle_numbers(reg, unit.amplitudes)
    for total in numbers:
        got = project_particle_number(unit, total).amplitudes
        assert items_repr(got) == items_repr(dict_project(reg, unit.amplitudes, total))
    # equal term counts walk the bra; otherwise the smaller state
    for bra, ket in ((psi, phi), (phi, psi), (psi, chi), (chi, psi), (unit, psi)):
        want = dict_inner_product(bra.amplitudes, ket.amplitudes)
        assert repr(inner_product(bra, ket)) == repr(complex(want))
    terms = [(0.5, psi), (-1j, phi), (2, chi), (-0.5, psi), (0.25 + 3j, unit)]
    want = dict_superpose([(c, s.amplitudes) for c, s in terms])
    assert items_repr(superpose(terms).amplitudes) == items_repr(want)
    assert superpose([(1.0, psi), (-1.0, psi)]).is_zero


NUMBER_REGISTRIES = {
    "bosons": lambda: registry_create([boson(i) for i in range(4)], cutoffs=[2, 5, 1, 3]),
    "mixed": ORACLE_REGISTRIES["mixed"],
    "wide": ORACLE_REGISTRIES["wide"],
}


@pytest.mark.parametrize("name", sorted(NUMBER_REGISTRIES))
def test_number_expectation_reads_one_digit_bit_for_bit(name):
    # the one mode's digit gives the same float as the occupation table of
    # every mode did, keys beyond int64 (object arrays) included
    reg = NUMBER_REGISTRIES[name]()
    rng = np.random.default_rng(5)
    state = sparse_random_state(reg, rng, random_keys(reg, rng, 50)).normalize()
    v = state.values
    weights = v.real * v.real + v.imag * v.imag
    table = _occupations(reg, state.keys)
    for mode in range(len(reg)):
        want = float(_running_sum(table[:, mode] * weights))
        assert repr(number_expectation(state, mode)) == repr(want)


def test_from_rows_is_from_keys_row_by_row():
    # distinct keys and a (states x keys) array: rows that prune nothing
    # share one read-only keys array, and every state is bit for bit the
    # state _from_keys builds from its row
    reg = mixed_registry()
    rng = np.random.default_rng(2)
    keys = np.array(random_keys(reg, rng, 12), dtype=np.int64)
    rows = rng.standard_normal((4, 12)) + 1j * rng.standard_normal((4, 12))
    rows[1, [2, 5]] = [3e-16, -2e-16j]  # pruned
    rows[2, 0] = complex(-0.0, 0.5)  # stored as 0.0
    rows[3, 1] = complex(0.25, -0.0)
    states = ManyBodyState._from_rows(reg, keys.copy(), rows.copy(), truncated=True)
    assert [s.num_terms for s in states] == [12, 10, 12, 12]
    assert states[0].keys is states[2].keys is states[3].keys
    for state, row in zip(states, rows):
        want = ManyBodyState._from_keys(reg, keys, row, truncated=True)
        assert state.keys.tolist() == want.keys.tolist() and state.truncated
        np.testing.assert_array_equal(state.values.view(np.int64), want.values.view(np.int64))
        assert not state.keys.flags.writeable and not state.values.flags.writeable
    assert repr(complex(states[2].values[0])) == repr(0.5j)
    assert repr(complex(states[3].values[1])) == repr(0.25 + 0j)
    rows[3, 7] = complex(1.0, math.nan)
    with pytest.raises(ValueError, match=r"amplitude \(1\+nanj\) is not finite"):
        ManyBodyState._from_rows(reg, keys.copy(), rows)


def test_from_rows_takes_its_rows_over_without_a_copy():
    # each state's values are a row of the given array, its -0.0 parts made
    # 0.0 in place
    reg = mixed_registry()
    keys = np.array([0, 1, 3], dtype=np.int64)
    rows = np.array([[complex(-0.0, 0.5), 0.25, 0.5j], [0.6, complex(0.8, -0.0), 0.0]])
    first, second = ManyBodyState._from_rows(reg, keys, rows)
    assert np.shares_memory(first.values, rows) and np.shares_memory(first.keys, keys)
    assert not np.signbit(rows.view(float)).any()
    assert repr(complex(first.values[0])) == repr(0.5j) and second.num_terms == 2


def test_from_rows_prunes_row_by_row():
    # a 14-site half-filled trajectory of 400 states (22 MB) that prunes
    # nothing: the finiteness check holds 1 B a cell, and the prune only
    # one row's modulus and mask, not 9 B a cell for the whole array
    reg = registry_create([generic(i) for i in range(14)])
    keys = _sector_keys(reg, 7)
    rng = np.random.default_rng(14)
    rows = np.exp(2j * np.pi * rng.random((400, len(keys)))) / np.sqrt(len(keys))
    tracemalloc.start()
    try:
        states = ManyBodyState._from_rows(reg, keys, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(state.num_terms == len(keys) for state in states)
    assert peak <= rows.nbytes / 8 + 2**20


def test_from_keys_copies_its_amplitudes_and_leaves_them_as_they_were():
    reg = mixed_registry()
    values = np.array([complex(-0.0, 0.5), complex(0.6, -0.0)])
    values.flags.writeable = False
    state = ManyBodyState._from_keys(reg, [3, 1], values)
    assert np.signbit(values.view(float)).tolist() == [True, False, False, True]
    assert not np.signbit(state.values.view(float)).any()
    writable = values.copy()
    state = ManyBodyState._from_keys(reg, [3, 1], writable)
    assert not np.shares_memory(state.values, writable)
    writable[:] = 7.0
    assert state.amplitudes == {3: 0.5j, 1: 0.6 + 0j}


def test_state_arrays_are_read_only():
    reg = mixed_registry()
    keys, values = np.array([3, 0, 1]), np.array([0.6, 0.0, 0.8j])
    state = ManyBodyState._from_keys(reg, keys, values)
    with pytest.raises(ValueError):
        state.keys[0] = 2
    with pytest.raises(ValueError):
        state.values[0] = 1.0
    # the caller's arrays stay writable, and a dict view is a copy
    keys[0], values[0] = 2, 1.0
    state.amplitudes.clear()
    assert state.amplitudes == {3: 0.6 + 0j, 1: 0.8j}


@pytest.mark.parametrize("size", [0, 1, 8, 64, 5000])
def test_grouped_matches_unique(size):
    rng = np.random.default_rng(size)
    values = rng.integers(-3, size // 4 + 2, size)
    distinct, slot = _grouped(values)
    want, inverse = np.unique(values, return_inverse=True)
    assert distinct.dtype == want.dtype and slot.dtype == inverse.dtype
    assert distinct.tolist() == want.tolist() and slot.tolist() == inverse.tolist()
    wide = np.array([2**70, 5, 2**70, -(2**65), 5], dtype=object)
    assert [a.tolist() for a in _grouped(wide)] == [[-(2**65), 5, 2**70], [2, 1, 2, 0, 1]]
