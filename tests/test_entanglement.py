"""Reduced density matrix and entropy tests against two oracles.

The reshape oracle builds the full state vector, reshapes it into one
tensor axis per mode, moves the subset axes to the front and contracts
the environment; no sparse grouping, no pattern bookkeeping shared with
the implementation.  The loop oracle is the former scalar kernel: it
unpacks every key in Python and sums one dense outer product per
environment pattern.
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
import fockent.entanglement as entanglement
from fockent import (
    ManyBodyState,
    NormalizationError,
    NumericalInvariantError,
    PairAmplitudeTable,
    ReducedDensityMatrix,
    SizeGuardError,
    TableKind,
    basis_state,
    bcs_registry,
    bcs_unprojected,
    bogoliubov_registry,
    bogoliubov_unprojected,
    boson,
    diagonal_distribution,
    electron,
    enumerate_sector,
    generic,
    mode_entanglement,
    normalize_subset,
    random_bcs_table,
    reduced_density_matrix,
    registry_create,
    subset_entropies,
    superpose,
    uniform_registry,
    von_neumann_entropy,
)
from fockent.fock_core import _sector_keys


def mixed_registry():
    return registry_create([electron(0), electron(1), boson(0), generic(9)], cutoffs=2)


def random_state(registry, rng):
    dim = registry.full_dimension()
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amps = {registry.unpack(k): v[k] for k in range(dim)}
    return ManyBodyState.from_amplitudes(registry, amps, normalize=True)


def rdm_oracle(state, subset):
    reg = state.registry
    m = len(reg)
    radices = [reg.radix(i) for i in range(m)]
    v = np.zeros(reg.full_dimension(), dtype=complex)
    for occ, amp in state.items():
        v[reg.pack(occ)] = amp
    # mode 0 is least significant, so C-order axes come out reversed
    tensor = v.reshape(list(reversed(radices)))
    subset = sorted(subset)
    sub_axes = [m - 1 - i for i in subset]
    env_axes = [ax for ax in range(m) if ax not in sub_axes]
    moved = np.transpose(tensor, sub_axes + env_axes)
    d_sub = int(np.prod([radices[i] for i in subset]))
    block = moved.reshape(d_sub, -1)
    rho = block.conj() @ block.T
    return rho / np.trace(rho).real


def loop_rdm(state, subset):
    """The former kernel: terms grouped by environment pattern in Python,
    one dense outer product per group, then divided by the trace."""
    registry = state.registry
    sub = tuple(sorted(subset))
    patterns = tuple(itertools.product(*[range(registry.radix(i)) for i in sub]))
    index = {p: i for i, p in enumerate(patterns)}
    dim = len(patterns)
    env_modes = [i for i in range(len(registry)) if i not in sub]
    groups = {}
    for key, amp in state.amplitudes.items():
        occ = registry.unpack(key)
        p = tuple(occ[i] for i in sub)
        e = tuple(occ[j] for j in env_modes)
        groups.setdefault(e, []).append((index[p], amp))
    matrix = np.zeros((dim, dim), dtype=complex)
    for entries in groups.values():
        v = np.zeros(dim, dtype=complex)
        for i, amp in entries:
            v[i] += amp
        matrix += np.outer(v.conj(), v)
    return matrix / float(np.trace(matrix).real)


def spectrum_entropy(matrix):
    lam = np.clip(np.linalg.eigvalsh(matrix), 0.0, 1.0)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log(lam)))


def random_sector_state(registry, total, rng):
    sector = enumerate_sector(registry, total)
    v = rng.standard_normal(len(sector)) + 1j * rng.standard_normal(len(sector))
    return ManyBodyState.from_amplitudes(registry, dict(zip(sector, v)), normalize=True)


def oracle_states():
    rng = np.random.default_rng(61)
    fermions = registry_create([generic(i) for i in range(6)])
    bosons = registry_create([boson(i) for i in range(3)], cutoffs=3)
    momenta = [(k,) for k in range(1, 4)]
    uv = {}
    for q, r in (((1,), 0.5), ((2,), 0.3)):
        u = 1.0 / math.sqrt(1.0 - r * r)
        uv[q] = (u, r * u * complex(math.cos(1.0 + q[0]), math.sin(1.0 + q[0])))
    condensate = bogoliubov_registry([1, 2], condensate_cutoff=2, pair_cutoff=3)
    return {
        "fermions_fixed_n": random_sector_state(fermions, 3, rng),
        "fermions_random": random_state(fermions, rng),
        "bosons_fixed_n": random_sector_state(bosons, 4, rng),
        "bosons_random": random_state(bosons, rng),
        "mixed_fixed_n": random_sector_state(mixed_registry(), 2, rng),
        "mixed_random": random_state(mixed_registry(), rng),
        "bcs_unprojected": bcs_unprojected(
            bcs_registry(momenta), random_bcs_table(momenta, rng)
        ),
        "bogoliubov_unprojected": bogoliubov_unprojected(
            condensate, PairAmplitudeTable(TableKind.BOGOLIUBOV_UV, uv), cutoff=3
        ),
    }


def oracle_subsets(size):
    """Single modes, contiguous and strided runs, their complements, everything."""
    half = size // 2
    parts = [(i,) for i in range(size)]
    parts += [tuple(range(half)), tuple(range(1, half + 1)), tuple(range(0, size, 2))]
    parts += [tuple(i for i in range(size) if i not in part) for part in list(parts)]
    return parts + [tuple(range(size))]


def entropy_oracle(probabilities):
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for p in probabilities:
            p = mpmath.mpf(p)
            if p > 0:
                total -= p * mpmath.log(p)
        return float(total)


def all_subsets(size, max_len=3):
    for r in range(1, max_len + 1):
        yield from itertools.combinations(range(size), r)


def test_rdm_matches_reshape_oracle():
    reg = mixed_registry()
    rng = np.random.default_rng(31)
    for _ in range(4):
        state = random_state(reg, rng)
        for subset in all_subsets(len(reg)):
            got = reduced_density_matrix(state, subset)
            want = rdm_oracle(state, subset)
            assert np.max(np.abs(got.matrix - want)) < 1e-12


def test_rdm_pattern_order_is_lexicographic():
    reg = mixed_registry()
    state = random_state(reg, np.random.default_rng(5))
    rdm = reduced_density_matrix(state, (1, 2))
    assert rdm.subset == (1, 2)
    assert rdm.patterns == tuple(itertools.product(range(2), range(3)))
    assert rdm.dimension == 6


def test_subset_order_is_irrelevant():
    reg = mixed_registry()
    state = random_state(reg, np.random.default_rng(17))
    a = reduced_density_matrix(state, (2, 0))
    b = reduced_density_matrix(state, (0, 2))
    assert a.subset == b.subset == (0, 2)
    assert np.array_equal(a.matrix, b.matrix)


def test_purity_complement_symmetry():
    reg = mixed_registry()
    rng = np.random.default_rng(23)
    for _ in range(5):
        state = random_state(reg, rng)
        subset = (0, 2)
        rest = (1, 3)
        assert mode_entanglement(state, subset) == pytest.approx(
            mode_entanglement(state, rest), abs=1e-10
        )


def test_entropy_against_high_precision_oracle():
    reg = registry_create([generic(0), generic(1)])
    rng = np.random.default_rng(41)
    for _ in range(20):
        p = rng.uniform(1e-6, 1.0 - 1e-6)
        state = ManyBodyState.from_amplitudes(
            reg,
            {(1, 0): math.sqrt(p), (0, 1): math.sqrt(1.0 - p) * 1j},
        )
        got = mode_entanglement(state, (0,))
        assert got == pytest.approx(entropy_oracle([p, 1.0 - p]), abs=1e-12)


def test_entropy_of_product_state_is_zero():
    reg = mixed_registry()
    state = basis_state(reg, (1, 0, 2, 1))
    for subset in all_subsets(len(reg)):
        assert mode_entanglement(state, subset) == 0.0


def test_local_phase_leaves_entropy_invariant():
    reg = registry_create([generic(i) for i in range(4)])
    rng = np.random.default_rng(47)
    state = random_state(reg, rng)
    phase = complex(math.cos(0.7), math.sin(0.7))
    # phase on mode 2's occupied branch only
    rotated = ManyBodyState.from_amplitudes(
        reg,
        {occ: amp * (phase if occ[2] else 1.0) for occ, amp in state.items()},
    )
    for subset in [(0,), (2,), (1, 3), (0, 2)]:
        assert mode_entanglement(rotated, subset) == pytest.approx(
            mode_entanglement(state, subset), abs=1e-12
        )


def test_entropy_leaves_the_state_unchanged():
    state = random_state(mixed_registry(), np.random.default_rng(12))
    before = repr(list(state.amplitudes.items()))
    for subset in ((0,), (1, 2), (0, 3), (2,)):
        mode_entanglement(state, subset)
        reduced_density_matrix(state, subset)
    assert repr(list(state.amplitudes.items())) == before


def test_norm_gate_rejects_unnormalized_state():
    reg = registry_create([generic(0)])
    state = ManyBodyState._from_keys(reg, [0], [0.5])
    with pytest.raises(NormalizationError):
        reduced_density_matrix(state, (0,))


def test_subset_validation():
    with pytest.raises(ValueError):
        normalize_subset(4, ())
    with pytest.raises(ValueError):
        normalize_subset(4, (1, 1))
    with pytest.raises(ValueError):
        normalize_subset(4, (4,))
    with pytest.raises(ValueError):
        normalize_subset(4, (-1,))
    assert normalize_subset(4, (3, 0)) == (0, 3)
    assert normalize_subset(4, (np.int64(3), np.uint8(0))) == (0, 3)


@pytest.mark.parametrize(
    "subset",
    [[0.9], ["1", 2.7], "01", [1.5], [True], [np.float64(1.0)], [np.True_], [None]],
    ids=["0.9", "str-and-float", "str", "1.5", "bool", "float64", "numpy-bool", "none"],
)
def test_non_integral_mode_indices_are_refused(subset):
    # int() used to truncate them: [0.9] traced mode 0, "01" modes (0, 1)
    state = random_state(mixed_registry(), np.random.default_rng(37))
    calls = [
        lambda: mode_entanglement(state, subset),
        lambda: subset_entropies(state, [(0,), subset]),
        lambda: reduced_density_matrix(state, subset),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="is not an integer"):
            call()


def test_entropy_floor_rejects_large_negative_eigenvalue():
    patterns = ((0,), (1,))
    slight = ReducedDensityMatrix(
        (0,), patterns, np.diag([1.0 + 1e-12, -1e-12]).astype(complex)
    )
    # tiny negatives are clipped, not fatal
    assert von_neumann_entropy(slight) == pytest.approx(0.0, abs=1e-10)
    broken = ReducedDensityMatrix(
        (0,), patterns, np.diag([1.0 + 1e-6, -1e-6]).astype(complex)
    )
    with pytest.raises(NumericalInvariantError):
        von_neumann_entropy(broken)


def test_diagonal_helpers():
    reg = registry_create([generic(0), generic(1)])
    bell = superpose(
        [
            (1.0 / math.sqrt(2), basis_state(reg, (1, 0))),
            (1.0 / math.sqrt(2), basis_state(reg, (0, 1))),
        ]
    )
    rdm = reduced_density_matrix(bell, (0,))
    dist = diagonal_distribution(rdm)
    assert dist == pytest.approx([0.5, 0.5])
    assert rdm.matrix == pytest.approx(np.diag(dist), abs=1e-15)
    # a same-sector coherence shows up off the diagonal
    plus = superpose(
        [
            (1.0 / math.sqrt(2), basis_state(reg, (1, 0))),
            (1.0 / math.sqrt(2), basis_state(reg, (1, 1))),
        ]
    )
    rdm2 = reduced_density_matrix(plus, (1,))
    assert abs(rdm2.matrix[0, 1]) == pytest.approx(0.5)


def test_rdm_of_full_registry_is_pure_projector():
    reg = registry_create([generic(0), generic(1)])
    state = random_state(reg, np.random.default_rng(53))
    rdm = reduced_density_matrix(state, (0, 1))
    assert np.allclose(rdm.matrix @ rdm.matrix, rdm.matrix, atol=1e-12)
    assert von_neumann_entropy(rdm) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("name", list(oracle_states()))
def test_kernel_matches_loop_oracle(name):
    state = oracle_states()[name]
    size = len(state.registry)
    for subset in oracle_subsets(size):
        want = loop_rdm(state, subset)
        got = reduced_density_matrix(state, subset)
        assert got.matrix.shape == want.shape
        assert np.max(np.abs(got.matrix - want)) <= 1e-12, subset
        entropy = mode_entanglement(state, subset)
        assert abs(entropy - spectrum_entropy(want)) <= 1e-12, subset
        assert abs(von_neumann_entropy(got) - entropy) <= 1e-12, subset
        complement = tuple(i for i in range(size) if i not in subset)
        if complement:
            assert abs(mode_entanglement(state, complement) - entropy) <= 1e-12, subset


def block_states():
    """Number-definite states whose Gram matrices exceed BLOCK_CROSSOVER, and
    an indefinite-number state with as many terms as the fermionic one."""
    rng = np.random.default_rng(83)
    fermions = registry_create([generic(i) for i in range(12)])
    bosons = registry_create([boson(i) for i in range(6)], cutoffs=3)
    fixed = random_sector_state(fermions, 6, rng)
    keys = rng.choice(fermions.full_dimension(), size=len(fixed.keys), replace=False)
    values = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    return {
        "fermions_fixed_n": fixed,
        "bosons_fixed_n": random_sector_state(bosons, 6, rng),
        "fermions_indefinite_n": ManyBodyState._from_keys(
            fermions, np.sort(keys), values / np.linalg.norm(values)
        ),
    }


def block_subsets(size):
    """Half chain, strided, interleaved pairs and a single mode."""
    half = tuple(range(size // 2))
    interleaved = tuple(i for i in range(size) if i % 4 < 2)
    return [half, tuple(range(0, size, 2)), interleaved, (size // 2,)]


@pytest.mark.parametrize("name", list(block_states()))
def test_number_blocks_match_reshape_oracle(name, monkeypatch):
    state = block_states()[name]
    size = len(state.registry)
    for subset in block_subsets(size):
        entropy = mode_entanglement(state, subset)
        assert abs(entropy - spectrum_entropy(rdm_oracle(state, subset))) <= 1e-12, subset
        complement = tuple(i for i in range(size) if i not in subset)
        assert abs(mode_entanglement(state, complement) - entropy) <= 1e-12, subset
        if name == "fermions_indefinite_n":
            # one block: the same single eigvalsh as with the blocks switched off
            with monkeypatch.context() as dense:
                dense.setattr(entanglement, "BLOCK_CROSSOVER", math.inf)
                assert mode_entanglement(state, subset) == entropy, subset


def pair_mode_entropy_oracle(state, mode):
    """Entropy of one mode whose occupation fixes the environment's, so
    that its reduced density matrix is diagonal: p_n summed at 40 digits."""
    registry = state.registry
    occupation = state.keys // registry._strides[mode] % registry.radix(mode)
    with mpmath.workdps(40):
        weights = [
            mpmath.fsum(abs(mpmath.mpc(a)) ** 2 for a in state.values[occupation == n].tolist())
            for n in range(registry.radix(mode))
        ]
        total = mpmath.fsum(weights)
        return float(-mpmath.fsum(w / total * mpmath.log(w / total) for w in weights if w > 0))


def counted_eigvalsh(monkeypatch):
    """The shapes passed to eigvalsh, recorded as it is called."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(matrix):
        calls.append(matrix.shape)
        return eigvalsh(matrix)

    monkeypatch.setattr(entanglement.np.linalg, "eigvalsh", counting)
    return calls


def test_eigensolver_calls_follow_number_blocks(monkeypatch):
    calls = counted_eigvalsh(monkeypatch)
    # the half chain of a 12-mode, N = 6 state, as in the dynamics benchmark:
    # Gram side 64 splits into blocks of 1, 6, 15, 20, 15, 6 and 1 patterns
    half_filled = block_states()["fermions_fixed_n"]
    mode_entanglement(half_filled, range(6))
    assert calls == [(2, 6, 6), (2, 15, 15), (1, 20, 20)]

    calls.clear()
    mode_entanglement(half_filled, range(3))
    assert calls == [(1, 8, 8)]

    # a pair mode's occupation fixes its partner's, so every environment
    # holds one term: the Gram matrix is diagonal and needs no eigensolver
    registry = bogoliubov_registry([1, 2], condensate_cutoff=2, pair_cutoff=40)
    uv = {(q,): (1.0 / math.sqrt(1.0 - 0.25), 0.5 / math.sqrt(1.0 - 0.25)) for q in (1, 2)}
    state = bogoliubov_unprojected(
        registry, PairAmplitudeTable(TableKind.BOGOLIUBOV_UV, uv), cutoff=40
    )
    calls.clear()
    entropy = mode_entanglement(state, (1,))
    assert calls == []
    monkeypatch.setattr(entanglement, "BLOCK_CROSSOVER", math.inf)
    dense = mode_entanglement(state, (1,))
    assert calls == [(1, 41, 41)]
    # the diagonal is summed from the terms, the dense path by the Gram
    # product: both within two ulps of the 40-digit entropy
    want = pair_mode_entropy_oracle(state, 1)
    assert abs(entropy - want) <= 2.5e-16
    assert abs(dense - want) <= 2.5e-16


@pytest.fixture
def memo():
    """The layout memo, emptied before and after the test."""
    entanglement._layouts.clear()
    yield entanglement._layouts
    entanglement._layouts.clear()


def fresh_entropy(state, subset):
    """mode_entanglement from a layout built anew: the memo is emptied first."""
    entanglement._layouts.clear()
    return mode_entanglement(state, subset)


def test_memo_reuses_a_layout_only_for_the_same_registry_and_keys(memo):
    state = block_states()["fermions_fixed_n"]
    registry, half = state.registry, tuple(range(6))
    want = mode_entanglement(state, half)
    entry = memo[half]
    # the same keys with other amplitudes: a hit, with the new amplitudes' entropy
    rng = np.random.default_rng(5)
    values = rng.standard_normal(len(state.keys)) + 1j * rng.standard_normal(len(state.keys))
    other = ManyBodyState._from_keys(registry, state.keys, values / np.linalg.norm(values))
    got = mode_entanglement(other, half)
    assert memo[half] is entry
    assert abs(got - want) > 1e-3
    assert got == fresh_entropy(other, half)
    # equal keys in a fresh array: a hit
    assert mode_entanglement(state, half) == want
    entry = memo[half]
    copy = ManyBodyState._from_keys(registry, state.keys.copy(), state.values.copy())
    assert mode_entanglement(copy, half) == want
    assert memo[half] is entry
    # an equal but distinct registry object: a miss
    twin = registry_create(registry.modes)
    assert twin == registry and twin is not registry
    moved = ManyBodyState._from_keys(twin, state.keys, state.values)
    assert mode_entanglement(moved, half) == want
    assert memo[half][0] is twin and memo[half] is not entry
    # a pruned state with fewer keys: a miss, with the pruned state's entropy
    kept = np.abs(state.values) > np.quantile(np.abs(state.values), 0.3)
    pruned = ManyBodyState._from_keys(registry, state.keys[kept], state.values[kept]).normalize()
    got = mode_entanglement(pruned, half)
    assert np.array_equal(memo[half][1], pruned.keys)
    assert abs(got - spectrum_entropy(rdm_oracle(pruned, half))) <= 1e-12
    assert got == fresh_entropy(pruned, half)
    # the complement on the same state: an entry of its own
    assert mode_entanglement(state, half) == want
    rest = tuple(range(6, 12))
    assert abs(mode_entanglement(state, rest) - want) <= 1e-12
    assert list(memo) == [half, rest]


def test_few_term_states_leave_the_kept_layout(memo, monkeypatch):
    # a trajectory from a basis vector: its one-term start, traced between two
    # states on the sector's keys, must not evict their kept layout
    state = block_states()["fermions_fixed_n"]
    registry, half = state.registry, tuple(range(6))
    want = mode_entanglement(state, half)
    entry = memo[half]
    built = []
    number_blocks = entanglement._number_blocks
    monkeypatch.setattr(
        entanglement,
        "_number_blocks",
        lambda *args: built.append(half in memo) or number_blocks(*args),
    )
    one = ManyBodyState._from_keys(registry, state.keys[:1], [1.0])
    assert mode_entanglement(one, half) == 0.0
    # nor may any state of at most BLOCK_CROSSOVER terms, whose Gram side never passes it
    few = ManyBodyState._from_keys(registry, state.keys[:32], state.values[:32]).normalize()
    mode_entanglement(few, half)
    assert memo[half] is entry
    assert mode_entanglement(state, half) == want
    assert memo[half] is entry and built == []
    # a state above BLOCK_CROSSOVER terms on other keys drops the stale
    # layout before its own is built
    kept = np.abs(state.values) > np.quantile(np.abs(state.values), 0.3)
    pruned = ManyBodyState._from_keys(registry, state.keys[kept], state.values[kept]).normalize()
    mode_entanglement(pruned, half)
    assert built == [False]
    assert np.array_equal(memo[half][1], pruned.keys)


def test_memo_hit_rechecks_norm_crossover_and_guard(memo, monkeypatch):
    state = block_states()["fermions_fixed_n"]
    half = tuple(range(6))
    blockwise = mode_entanglement(state, half)
    assert mode_entanglement(state, half) == blockwise
    assert half in memo
    unnormalized = ManyBodyState._from_keys(state.registry, state.keys, 2.0 * state.values)
    with pytest.raises(NormalizationError):
        mode_entanglement(unnormalized, half)
    # after a hit, a raised crossover takes one eigvalsh of the full Gram matrix
    calls = counted_eigvalsh(monkeypatch)
    monkeypatch.setattr(entanglement, "BLOCK_CROSSOVER", math.inf)
    dense = mode_entanglement(state, half)
    assert calls == [(1, 64, 64)]
    assert dense == fresh_entropy(state, half)
    assert abs(dense - blockwise) <= 1e-12
    monkeypatch.setattr(entanglement, "BLOCK_CROSSOVER", 32)
    assert fresh_entropy(state, half) == blockwise
    # and a lowered guard refuses the 64 Gram rows of a kept layout
    monkeypatch.setenv("FOCKENT_SIZE_GUARD", "63")
    with pytest.raises(SizeGuardError):
        mode_entanglement(state, half)
    assert half in memo


def test_memo_stays_within_its_bounds(memo, monkeypatch):
    state = block_states()["fermions_fixed_n"]
    bound = entanglement.MEMO_ENTRIES
    subsets = list(itertools.combinations(range(12), 6))[: 3 * bound]
    for i, subset in enumerate(subsets):
        mode_entanglement(state, subset)
        assert len(memo) == min(i + 1, bound)
    assert list(memo) == subsets[-bound:]
    # a hit is the most recent entry, so the next miss drops the one after it
    mode_entanglement(state, subsets[-bound])
    mode_entanglement(state, subsets[0])
    assert list(memo) == subsets[-bound + 2 :] + [subsets[-bound], subsets[0]]
    # the term budget: two layouts of 924 keys, and none above it
    monkeypatch.setattr(entanglement, "MEMO_TERMS", 2 * 924)
    mode_entanglement(state, subsets[1])
    assert list(memo) == [subsets[0], subsets[1]]
    monkeypatch.setattr(entanglement, "MEMO_TERMS", 923)
    mode_entanglement(state, subsets[2])
    assert list(memo) == [subsets[0], subsets[1]]
    # a layout of at most BLOCK_CROSSOVER Gram rows is not kept
    memo.clear()
    mode_entanglement(state, range(5))
    assert len(memo) == 0


def test_memo_keeps_the_layout_of_python_integer_keys(memo):
    # 70 modes pass the int64 key range, so the keys are Python integers;
    # three particles on 400 random sets of modes give the half chain more
    # than BLOCK_CROSSOVER Gram rows, and the layout is kept all the same
    registry = uniform_registry(70)
    rng = np.random.default_rng(70)
    sets = {tuple(sorted(rng.choice(70, size=3, replace=False).tolist())) for _ in range(400)}
    keys = [sum(1 << i for i in modes) for modes in sorted(sets)]
    values = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    state = ManyBodyState._from_keys(registry, keys, values / np.linalg.norm(values))
    assert state.keys.dtype == object
    half = tuple(range(35))
    first = mode_entanglement(state, half)
    assert half in memo and memo[half][2] > entanglement.BLOCK_CROSSOVER
    assert memo[half][1] is not state.keys and np.array_equal(memo[half][1], state.keys)
    entry = memo[half]
    second = mode_entanglement(state, half)
    assert memo[half] is entry
    want = fresh_entropy(state, half)
    bits = np.array([first, second, want]).view(np.uint64)
    assert bits[0] == bits[1] == bits[2]


def test_mixed_number_subset_leaves_a_full_memo_unchanged(memo):
    # the half chain of an indefinite-number state has 64 Gram rows, above
    # the crossover, but its environments mix subset numbers: it takes the
    # dense path and neither builds nor evicts a kept layout
    states = block_states()
    fixed, mixed = states["fermions_fixed_n"], states["fermions_indefinite_n"]
    half = tuple(range(6))
    subsets = list(itertools.combinations(range(12), 6))[1 : 1 + entanglement.MEMO_ENTRIES]
    for subset in subsets:
        mode_entanglement(fixed, subset)
    before = dict(memo)
    assert list(before) == subsets
    got = mode_entanglement(mixed, half)
    assert list(memo) == subsets
    assert all(memo[subset] is entry for subset, entry in before.items())
    want = fresh_entropy(mixed, half)
    assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))


def sparse_sector_state(sites, total, share, rng):
    """A random state on a random share of the keys of a fixed-N sector."""
    registry = uniform_registry(sites)
    keys = _sector_keys(registry, total)
    keys = np.sort(rng.choice(keys, size=int(share * len(keys)), replace=False))
    values = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    return ManyBodyState._from_keys(registry, keys, values / np.linalg.norm(values))


def test_number_blocks_in_column_chunks_match_one_block(memo, monkeypatch):
    # 24 modes at N = 6 on a tenth of the sector's keys.  The 15-row blocks
    # of the first six modes (n_A = 2 and 4) have about 2,400 and 150
    # columns: they take 15 chunks, and only the wide one reaches past the first
    monkeypatch.setenv("FOCKENT_SIZE_GUARD", "200000")
    state = sparse_sector_state(24, 6, 0.1, np.random.default_rng(89))
    subset, rest = tuple(range(6)), tuple(range(6, 24))
    entropy = mode_entanglement(state, subset)
    groups = {size: chunks for size, _, chunks in memo[subset][3].groups}
    assert [count for _, _, count in groups[15]] == [2] + [1] * 14
    assert abs(mode_entanglement(state, rest) - entropy) <= 1e-12
    monkeypatch.setattr(entanglement, "BLOCK_CROSSOVER", math.inf)
    assert abs(mode_entanglement(state, subset) - entropy) <= 1e-12


def test_run_sums_are_faithfully_rounded():
    rng = np.random.default_rng(3)
    counts = rng.integers(1, 3000, size=200)
    starts = np.cumsum(counts) - counts
    parts = [
        rng.random(counts.sum()) ** 8 * 10.0 ** rng.integers(-30, 0, size=counts.sum())
        for _ in range(2)
    ]
    want = np.array(
        [math.fsum(np.concatenate([x[a : a + n] for x in parts])) for a, n in zip(starts, counts)]
    )
    got = entanglement._run_sums([x.copy() for x in parts], starts, counts)
    assert np.all(np.abs(got - want) <= np.spacing(want))
    # runs of one entry in two parts: one addition
    ones = np.arange(len(parts[0]))
    got = entanglement._run_sums([x.copy() for x in parts], ones, np.ones_like(ones))
    assert np.array_equal(got, parts[0] + parts[1])


def test_one_by_one_blocks_memory_is_linear_in_terms(memo):
    # a pair mode of an unprojected condensate (87,172 terms): 42 blocks of
    # 1 x 1, one per occupation, of 4,470 down to 8 columns
    qs, ratios = [1, 2, 3], [0.45, 0.6, 0.75]
    registry = bogoliubov_registry(qs, condensate_cutoff=2, pair_cutoff=47)
    uv = {(q,): (1 / math.sqrt(1 - r * r), r / math.sqrt(1 - r * r)) for q, r in zip(qs, ratios)}
    state = bogoliubov_unprojected(
        registry, PairAmplitudeTable(TableKind.BOGOLIUBOV_UV, uv), cutoff=47
    )
    term_bytes = state.keys.nbytes + state.values.nbytes
    tracemalloc.start()
    try:
        entropy = mode_entanglement(state, (1,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert memo[(1,)][3].groups == []
    # the layout's key work peaks near 2.7 times the term arrays; padding
    # every block to the widest would add half as much again
    assert peak < 3 * term_bytes
    assert abs(entropy - pair_mode_entropy_oracle(state, 1)) <= 1e-14


def signed_entropy_oracle(state, subset):
    """Entropy of a fermionic state with the subset's modes moved to the front.

    A basis vector is the product of creation operators in ascending mode
    order on the vacuum.  Moving each occupied subset mode past the occupied
    environment modes below it gives a factor -1 per such pair; the signed
    amplitudes then form a (subset pattern x environment pattern) matrix,
    whose squared singular values are the Schmidt spectrum.
    """
    registry = state.registry
    sub = sorted(subset)
    env = [i for i in range(len(registry)) if i not in sub]
    rows, cols, entries = {}, {}, []
    for occ, amp in state.items():
        crossings = sum(occ[a] * occ[b] for a in sub for b in env if b < a)
        row = rows.setdefault(tuple(occ[i] for i in sub), len(rows))
        col = cols.setdefault(tuple(occ[j] for j in env), len(cols))
        entries.append((row, col, (-1) ** crossings * amp))
    matrix = np.zeros((len(rows), len(cols)), dtype=complex)
    for row, col, amp in entries:
        matrix[row, col] += amp
    weights = np.linalg.svd(matrix, compute_uv=False) ** 2
    weights = weights[weights > 0.0]
    return float(-np.sum(weights * np.log(weights)))


# mode_entanglement traces without the reordering sign: 0.7307 against 0.8350
UNSIGNED_TRACE = pytest.mark.xfail(strict=True, reason="trace ignores the fermionic sign")


@pytest.mark.parametrize(
    "subset",
    [
        (0, 1),
        (0, 3),
        (1, 2),
        (2, 3),
        pytest.param((0, 2), marks=UNSIGNED_TRACE),
        pytest.param((1, 3), marks=UNSIGNED_TRACE),
    ],
    ids=["0-1", "0-3", "1-2", "2-3", "0-2", "1-3"],
)
def test_mode_pairs_match_signed_oracle(subset):
    registry = uniform_registry(4)
    keys = _sector_keys(registry, 2)
    values = np.random.default_rng(0).normal(size=len(keys))
    state = ManyBodyState._from_keys(registry, keys, values).normalize()
    want = signed_entropy_oracle(state, subset)
    assert mode_entanglement(state, subset) == pytest.approx(want, abs=1e-12)


def test_dense_rdm_is_guarded_before_allocation(monkeypatch):
    monkeypatch.delenv("FOCKENT_SIZE_GUARD", raising=False)
    reg = registry_create([generic(i) for i in range(16)])
    state = superpose(
        [
            (1.0 / math.sqrt(2), basis_state(reg, [1, 0] * 8)),
            (1.0 / math.sqrt(2), basis_state(reg, [0, 1] * 8)),
        ]
    )
    # a 2**14 x 2**14 complex matrix would take 4.3 GB
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError) as raised:
            reduced_density_matrix(state, range(14))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert raised.value.dimension == 2**14
    assert raised.value.guard == 5000
    assert peak < 100_000
    # the entropy needs no dense matrix: its Gram matrix is 2 x 2
    assert mode_entanglement(state, range(14)) == pytest.approx(math.log(2.0), abs=1e-12)


def test_gram_dimension_is_guarded(monkeypatch):
    reg = registry_create([generic(i) for i in range(4)])
    state = random_state(reg, np.random.default_rng(67))
    monkeypatch.setenv("FOCKENT_SIZE_GUARD", "3")
    with pytest.raises(SizeGuardError):
        mode_entanglement(state, (0, 1))
    assert mode_entanglement(state, (0,)) > 0.0


def wide_state():
    """40 random terms on 70 fermionic modes, whose keys need Python integers."""
    reg = registry_create([generic(i) for i in range(70)])
    rng = np.random.default_rng(71)
    mapping = {}
    for _ in range(40):
        occ = [0] * 70
        for i in rng.choice(70, size=3, replace=False):
            occ[int(i)] = 1
        occ[69] = int(rng.integers(0, 2))
        mapping[tuple(occ)] = complex(*rng.standard_normal(2))
    return ManyBodyState.from_amplitudes(reg, mapping, normalize=True)


def test_keys_beyond_int64():
    state = wide_state()
    reg = state.registry
    assert reg.full_dimension() >= 2**63
    assert max(state.amplitudes) >= 2**63
    for subset in [(69,), (0, 69), (3, 64, 65, 69), tuple(range(1, 70))]:
        entropy = mode_entanglement(state, subset)
        if len(subset) <= 4:
            want = loop_rdm(state, subset)
            assert np.max(np.abs(reduced_density_matrix(state, subset).matrix - want)) <= 1e-12
            assert abs(entropy - spectrum_entropy(want)) <= 1e-12
        complement = tuple(i for i in range(70) if i not in subset)
        assert abs(mode_entanglement(state, complement) - entropy) <= 1e-12
    bell = superpose(
        [
            (1.0 / math.sqrt(2), basis_state(reg, [1] + [0] * 69)),
            (1.0 / math.sqrt(2), basis_state(reg, [0] * 69 + [1])),
        ]
    )
    assert mode_entanglement(bell, (69,)) == pytest.approx(math.log(2.0), abs=1e-15)


def sparse_boson_state(terms, rng):
    """One boson mode (cutoff 63) beside 17 fermionic modes, random keys."""
    reg = registry_create([boson(0)] + [generic(i) for i in range(17)], cutoffs=63)
    keys = rng.choice(reg.full_dimension(), size=terms, replace=False)
    values = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
    values /= np.linalg.norm(values)
    return ManyBodyState._from_keys(reg, keys, values)


def test_entropy_memory_is_linear_in_terms():
    rng = np.random.default_rng(73)
    for terms in (100_000, 200_000):
        state = sparse_boson_state(terms, rng)
        environments = len({key >> 6 for key in state.amplitudes})
        tracemalloc.start()
        try:
            entropy = mode_entanglement(state, (0,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 < entropy <= math.log(64.0)
        # the dense 64 x environments amplitude matrix alone would take
        # about 700 bytes per term at these sizes
        assert peak < 16 * 64 * environments / 2
        assert peak < 256 * terms


def test_no_scipy_after_entropy():
    script = (
        "import sys\n"
        "import fockent.cli\n"
        "from fockent import ManyBodyState, generic, mode_entanglement, registry_create\n"
        "reg = registry_create([generic(i) for i in range(4)])\n"
        "state = ManyBodyState._from_keys(reg, [9, 6], [0.6, 0.8])\n"
        "assert mode_entanglement(state, (0, 2)) > 0.6\n"
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fockent.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env
    )
    assert done.stdout.strip() == "[]"


def assert_batch_matches_one_at_a_time(state, subsets):
    """subset_entropies gives, in input order, the bits of one call a subset."""
    got = subset_entropies(state, subsets)
    want = [mode_entanglement(state, subset) for subset in subsets]
    assert len(got) == len(subsets)
    np.testing.assert_array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))
    return got


def mixed_subsets(size):
    """Every size from one mode to all but one, out of size order, with a repeat."""
    half = tuple(range(size // 2))
    rest = tuple(range(size // 2, size))
    singles = [(i,) for i in range(size)]
    return [half, *singles[::-1], (1, size - 1), rest, (0,), tuple(range(1, size)), half]


@pytest.mark.parametrize(
    "name", ["fermions_fixed_n", "fermions_random", "mixed_random", "bogoliubov_unprojected"]
)
def test_subset_entropies_match_one_at_a_time(name):
    state = oracle_states()[name]
    got = assert_batch_matches_one_at_a_time(state, mixed_subsets(len(state.registry)))
    assert got[0] == got[-1]


@pytest.mark.parametrize("name", list(block_states()))
def test_subset_entropies_match_one_at_a_time_above_crossover(name, memo):
    # the half chains take the block path (or, mixing numbers, one dense
    # Gram matrix of side 64, stacked with the other of its shape); the
    # first batch builds their layouts, the second reuses them
    state = block_states()[name]
    size = len(state.registry)
    subsets = mixed_subsets(size)
    half, rest = tuple(range(size // 2)), tuple(range(size // 2, size))
    fresh = [fresh_entropy(state, subset) for subset in subsets]
    memo.clear()
    for _ in range(2):
        got = subset_entropies(state, subsets)
        assert np.array_equal(np.array(got).view(np.uint64), np.array(fresh).view(np.uint64))
        assert set(memo) == (set() if name == "fermions_indefinite_n" else {half, rest})


def test_subset_entropies_match_one_at_a_time_on_object_keys():
    state = wide_state()
    assert state.keys.dtype == object
    assert_batch_matches_one_at_a_time(state, mixed_subsets(70) + [(3, 64, 65, 69)])


def symmetric_sparse_state(rng):
    """Random terms on 20 fermionic modes, closed under swapping modes 0-4
    with modes 5-9, so that the two blocks' amplitude matrices have one shape."""
    registry = uniform_registry(20)
    keys = rng.choice(2**20, size=2000, replace=False)
    swapped = keys & ~0x3FF | (keys & 0x1F) << 5 | keys >> 5 & 0x1F
    keys = np.union1d(keys, swapped)
    values = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    return ManyBodyState._from_keys(registry, keys, values / np.linalg.norm(values))


def test_same_shape_gram_matrices_take_one_eigvalsh(monkeypatch):
    calls = counted_eigvalsh(monkeypatch)
    # each block's 32 x ~3,900 amplitude matrix is so sparse that its
    # Gram product takes about 30 blocks of columns
    state = symmetric_sparse_state(np.random.default_rng(97))
    blocks = [tuple(range(5)), tuple(range(5, 10))]
    assert_batch_matches_one_at_a_time(state, blocks)
    assert calls == [(2, 32, 32), (1, 32, 32), (1, 32, 32)]
    _, _, n_rows, n_cols, *_ = entanglement._split(state.registry, state.keys, blocks)
    assert n_rows.tolist() == [32, 32] and n_cols[0] == n_cols[1]
    assert n_cols[0] > 10 * max(len(state.keys), entanglement.BLOCK_CELLS) // 32
    # the six single modes of a 6-mode N = 3 state: 2 x 20 each
    calls.clear()
    fixed = random_sector_state(uniform_registry(6), 3, np.random.default_rng(99))
    assert_batch_matches_one_at_a_time(fixed, [(mode,) for mode in range(6)])
    assert calls == [(6, 2, 2)] + [(1, 2, 2)] * 6
    # a 1 x 1 Gram matrix is its own spectrum: no eigvalsh
    calls.clear()
    sea = fockent.fermi_sea(registry_create([electron(k) for k in range(8)]), range(4))
    assert subset_entropies(sea, list(all_subsets(8))) == [0.0] * len(list(all_subsets(8)))
    assert calls == []


def test_subset_entropies_refuse_before_any_eigvalsh(monkeypatch):
    calls = counted_eigvalsh(monkeypatch)
    reg = registry_create([generic(i) for i in range(4)])
    state = random_state(reg, np.random.default_rng(67))
    assert subset_entropies(state, []) == []
    for bad in [(0, 4)], [(1, 1)], [()], [[0.5]]:
        with pytest.raises(ValueError):
            subset_entropies(state, [(0,), (1, 2), *bad, (3,)])
    assert calls == []
    unnormalized = ManyBodyState._from_keys(reg, state.keys, 2.0 * state.values)
    with pytest.raises(NormalizationError):
        subset_entropies(unnormalized, [(0,), (1, 2)])
    assert calls == []
    monkeypatch.setenv("FOCKENT_SIZE_GUARD", "3")
    with pytest.raises(SizeGuardError) as raised:
        subset_entropies(state, [(0,), (0, 1), (2,)])
    assert raised.value.dimension == 4 and raised.value.guard == 3


def test_subset_entropies_memory_follows_one_subset():
    # every key of 18 fermionic modes, 2**18 terms: the split goes one
    # subset at a time, so all 18 single modes peak as one of them does
    registry = uniform_registry(18)
    rng = np.random.default_rng(101)
    values = rng.standard_normal(2**18) + 1j * rng.standard_normal(2**18)
    state = ManyBodyState._from_keys(registry, np.arange(2**18), values / np.linalg.norm(values))
    modes = [(mode,) for mode in range(18)]

    def peak(subsets):
        tracemalloc.start()
        try:
            entropies = subset_entropies(state, subsets)
            return tracemalloc.get_traced_memory()[1], entropies
        finally:
            tracemalloc.stop()

    single = [peak([subset]) for subset in modes[:: 17]]
    batched, entropies = peak(modes)
    assert batched <= max(p for p, _ in single) + 65536
    assert [entropies[0], entropies[-1]] == [e[0] for _, e in single]
