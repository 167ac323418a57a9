"""State constructors, amplitude tables and their invariants."""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from fockent import (
    ExcitonChannel,
    ManyBodyState,
    NormalizationError,
    PairAmplitudeTable,
    SizeGuardError,
    Spin,
    TableKind,
    TruncationError,
    apply_creation,
    bcs_projected,
    bcs_projected_x,
    bcs_registry,
    bcs_unprojected,
    bogoliubov_projected,
    bogoliubov_registry,
    bogoliubov_unprojected,
    boson,
    default_pair_cutoff,
    electron,
    exciton_registry,
    exciton_spinful,
    exciton_spinless,
    fermi_sea,
    hole,
    inner_product,
    load_amplitude_table,
    number_expectation,
    project_particle_number,
    random_bcs_table,
    random_bogoliubov_c_table,
    random_exciton_table,
    random_uv_table,
    registry_create,
    single_particle_superposition,
    superpose,
    table_payload,
    uniform_filling_state,
    uniform_registry,
    vacuum_state,
)
from fockent.fock_core import PRUNE_TOL, negated


# ---------------------------------------------------------------------------
# amplitude tables


def test_exciton_table_requires_unit_norm():
    PairAmplitudeTable(TableKind.EXCITON_A, {((0,), (0,)): 0.6, ((1,), (0,)): 0.8})
    with pytest.raises(NormalizationError):
        PairAmplitudeTable(TableKind.EXCITON_A, {((0,), (0,)): 0.6})


def test_bogoliubov_c_table_requires_subunit_magnitude():
    PairAmplitudeTable(TableKind.BOGOLIUBOV_C, {(1,): 0.99})
    with pytest.raises(ValueError):
        PairAmplitudeTable(TableKind.BOGOLIUBOV_C, {(1,): 1.0})


def test_uv_table_requires_hyperbolic_identity():
    PairAmplitudeTable(TableKind.BOGOLIUBOV_UV, {(1,): (1.25, 0.75)})
    with pytest.raises(ValueError):
        PairAmplitudeTable(TableKind.BOGOLIUBOV_UV, {(1,): (1.0, 0.5)})


def test_table_keys_are_canonicalized_to_tuples():
    table = PairAmplitudeTable(TableKind.BCS_G, {1: 0.5, (2,): 1.5})
    assert set(table.values) == {(1,), (2,)}
    assert table.pair_indices() == [(1,), (2,)]
    assert len(table) == 2


@pytest.mark.parametrize("kind", list(TableKind))
def test_table_round_trip_through_json(kind, tmp_path):
    rng = np.random.default_rng(3)
    if kind is TableKind.EXCITON_A:
        table = random_exciton_table([(0,), (1,)], [(0,), (2,)], rng)
    elif kind is TableKind.BCS_G:
        table = random_bcs_table([(1,), (2,), (3,)], rng)
    elif kind is TableKind.BOGOLIUBOV_C:
        table = random_bogoliubov_c_table([(1,), (2,)], rng)
    else:
        table = random_uv_table([(1,), (2,)], rng)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table_payload(table)))
    loaded = load_amplitude_table(path)
    assert loaded.kind is table.kind
    assert loaded.pair_indices() == table.pair_indices()
    for key, value in table.values.items():
        if kind is TableKind.BOGOLIUBOV_UV:
            assert loaded.values[key][0] == value[0]
            assert loaded.values[key][1] == value[1]
        else:
            assert loaded.values[key] == value
    # payload form loads identically
    again = load_amplitude_table(table_payload(table))
    assert again.values == loaded.values


def test_load_rejects_unknown_kind():
    with pytest.raises(ValueError):
        load_amplitude_table({"kind": "nonsense", "entries": []})


def test_load_reads_plain_numbers_as_real_values():
    pair = {"kind": "bcs_g", "entries": [{"k": [1], "value": [0.5, 0.0]}]}
    plain = {"kind": "bcs_g", "entries": [{"k": [1], "value": 0.5}]}
    assert load_amplitude_table(plain).values == load_amplitude_table(pair).values


@pytest.mark.parametrize("kind", list(TableKind))
def test_load_refuses_a_repeated_key(kind):
    entry = {"k": [1], "kp": [2], "value": 0.6, "u": 1.25, "v": 0.75}
    other = {**entry, "value": 0.8, **({"kp": [3]} if kind is TableKind.EXCITON_A else {"k": [2]})}
    assert len(load_amplitude_table({"kind": kind.value, "entries": [entry, other]}).values) == 2
    with pytest.raises(ValueError, match="entry 2 repeats the key"):
        load_amplitude_table({"kind": kind.value, "entries": [entry, other, entry]})


def test_random_tables_are_seeded_and_valid():
    a = random_exciton_table([(0,)], [(0,), (1,)], np.random.default_rng(9))
    b = random_exciton_table([(0,)], [(0,), (1,)], np.random.default_rng(9))
    assert a.values == b.values
    assert sum(abs(v) ** 2 for v in a.values.values()) == pytest.approx(1.0)
    uv = random_uv_table([(1,)], np.random.default_rng(9))
    u, v = uv.values[(1,)]
    assert abs(u) ** 2 - abs(v) ** 2 == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# registries and simple states


def test_bcs_registry_interleaves_pair_partners():
    reg = bcs_registry([(1,), (2,)])
    assert reg.modes[0] == electron((1,), Spin.UP)
    assert reg.modes[1] == electron((-1,), Spin.DOWN)
    assert reg.modes[2] == electron((2,), Spin.UP)
    assert reg.modes[3] == electron((-2,), Spin.DOWN)


def test_bogoliubov_registry_layout():
    reg = bogoliubov_registry([(1,), (3,)], condensate_cutoff=6, pair_cutoff=3)
    assert reg.modes[0] == boson(0)
    assert reg.modes[1] == boson((1,))
    assert reg.modes[2] == boson((-1,))
    assert reg.cutoffs == (6, 3, 3, 3, 3)


def test_exciton_registry_spinful_layout():
    reg = exciton_registry([(0,)], [(5,)], spinful=True)
    assert reg.modes[0] == electron((0,), Spin.UP)
    assert reg.modes[1] == electron((0,), Spin.DOWN)
    assert reg.modes[2] == hole((5,), Spin.UP)
    assert reg.modes[3] == hole((5,), Spin.DOWN)


def test_fermi_sea_occupies_exactly_the_given_modes():
    reg = registry_create([electron(i) for i in range(5)])
    sea = fermi_sea(reg, [0, 1, 2])
    assert sea.amplitude((1, 1, 1, 0, 0)) == 1.0
    assert sea.num_terms == 1
    bos = registry_create([electron(0), boson(0)], cutoffs=2)
    with pytest.raises(ValueError):
        fermi_sea(bos, [1])
    # each index obeys the one mode-index rule, and none repeats
    four = registry_create([electron(i) for i in range(4)])
    for filled, message in (
        ([-1], "mode index -1 outside registry of size 4"),
        ([4], "mode index 4 outside registry of size 4"),
        ([1.5], "mode index 1.5 is not an integer"),
        ([True], "mode index True is not an integer"),
        ([0, 0], r"filled modes have repeated indices: \[0, 0\]"),
    ):
        with pytest.raises(ValueError, match=message):
            fermi_sea(four, filled)


def test_uniform_filling_state_counts_and_occupations():
    reg = registry_create([electron(i) for i in range(5)])
    state = uniform_filling_state(reg, 5, 2)
    assert state.num_terms == math.comb(5, 2)
    amp = 1.0 / math.sqrt(math.comb(5, 2))
    assert state.amplitude((1, 1, 0, 0, 0)) == pytest.approx(amp)
    for mode in range(5):
        assert number_expectation(state, mode) == pytest.approx(2 / 5)
    with pytest.raises(ValueError):
        uniform_filling_state(reg, 5, 6)


def test_uniform_filling_state_beyond_guard_squared_is_refused(monkeypatch):
    # C(16, 8) = 12,870 fillings, above guard**2 = 10**4
    monkeypatch.setenv("FOCKENT_SIZE_GUARD", "100")
    with pytest.raises(SizeGuardError, match="uniform filling"):
        uniform_filling_state(uniform_registry(16), 16, 8)


# exact amplitudes: powers of two times 1, -1, i or -i, so that no product
# rounds and a builder must equal its apply_creation chain bit for bit
EXACT_G = (1.0, -0.5, 2j, -0.25j)


def creation_chain(registry, branches):
    """The normalized sum of c times the creations at ``modes``, first mode
    first, on the vacuum, over the (c, modes) ``branches``."""
    terms = []
    for c, modes in branches:
        state = vacuum_state(registry)
        for mode in modes:
            state = apply_creation(state, mode)
        terms.append((c, state))
    return superpose(terms).normalize()


def uniform_beyond_int64(num_modes):
    reg = uniform_registry(num_modes)
    one_hot = [tuple(int(i == j) for i in range(num_modes)) for j in range(num_modes)]
    one_hole = [tuple(1 - n for n in occ) for occ in one_hot]
    coefficients = [1 / math.sqrt(num_modes)] * num_modes
    cases = [
        (uniform_filling_state(reg, num_modes, 1), dict.fromkeys(one_hot, 1.0)),
        (uniform_filling_state(reg, num_modes, num_modes - 1), dict.fromkeys(one_hole[::-1], 1.0)),
        (single_particle_superposition(reg, coefficients), dict(zip(one_hot, coefficients))),
    ]
    assert max(cases[1][0].amplitudes) == 2**num_modes - 2
    return [
        (state, ManyBodyState.from_amplitudes(reg, mapping, normalize=True))
        for state, mapping in cases
    ]


def exciton_beyond_int64(channel):
    # 40 electron and 30 hole momenta: 70 modes spinless, 140 spinful
    spinful = channel is not ExcitonChannel.SPINLESS
    reg = exciton_registry(range(40), range(30), spinful)
    amplitudes = {((0,), (29,)): 0.6, ((39,), (0,)): 0.48j, ((39,), (29,)): -0.64}
    table = PairAmplitudeTable(TableKind.EXCITON_A, amplitudes)
    if spinful:
        state = exciton_spinful(reg, table, channel)
        branches = [(Spin.UP, Spin.DOWN), (Spin.DOWN, Spin.UP)]
        weight = 1 / math.sqrt(2)
    else:
        state = exciton_spinless(reg, table)
        branches, weight = [(Spin.NONE, Spin.NONE)], 1.0
    created = [
        (a * weight, [reg.index_of(hole(kp, h)), reg.index_of(electron(k, e))])
        for (k, kp), a in sorted(amplitudes.items())
        for e, h in branches
    ]
    return [(state, creation_chain(reg, created))]


def bcs_unprojected_beyond_int64():
    # 33 pairs, 66 modes: pair k holds (k, up) at 2k and (-k, down) at 2k + 1
    reg = bcs_registry(range(33))
    g = {0: 0.5, 16: -1j, 32: 0.25}
    state = bcs_unprojected(reg, PairAmplitudeTable(TableKind.BCS_G, g))
    branches = [(1.0, [])]
    for k, gk in g.items():
        branches += [(c * gk, modes + [2 * k + 1, 2 * k]) for c, modes in branches]
    return [(state, creation_chain(reg, branches))]


def bcs_projected_beyond_int64():
    reg = bcs_registry(range(33))  # as in bcs_unprojected_beyond_int64
    g = {k: EXACT_G[k % 4] for k in range(33)}
    table = PairAmplitudeTable(TableKind.BCS_G, g)
    cases = []
    for total, unpaired in ((4, None), (3, 32)):
        state = bcs_projected(reg, table, total, unpaired)
        base = [] if unpaired is None else [2 * unpaired]
        available = [k for k in range(33) if k != unpaired]
        branches = []
        for chosen in itertools.combinations(available, total // 2):
            modes = base + [mode for k in chosen for mode in (2 * k + 1, 2 * k)]
            branches.append((math.prod(g[k] for k in chosen), modes))
        cases.append((state, creation_chain(reg, branches)))
    return cases


BEYOND_INT64 = {
    63: lambda: uniform_beyond_int64(63),
    64: lambda: uniform_beyond_int64(64),
    70: lambda: uniform_beyond_int64(70),
    "exciton_spinless": lambda: exciton_beyond_int64(ExcitonChannel.SPINLESS),
    "exciton_singlet": lambda: exciton_beyond_int64(ExcitonChannel.SINGLET),
    "bcs_projected": bcs_projected_beyond_int64,
    "bcs_unprojected": bcs_unprojected_beyond_int64,
}


@pytest.mark.parametrize("case", list(BEYOND_INT64))
def test_builders_keep_exact_keys_beyond_int64(case):
    # 2**63 and above must stay exact Python ints, not int64 or float keys;
    # the signed builders must equal their apply_creation chains
    for state, want in BEYOND_INT64[case]():
        assert list(state.amplitudes.items()) == list(want.amplitudes.items())
        assert all(type(key) is int for key in state.amplitudes)
        if isinstance(case, str):
            assert max(state.amplitudes) >= 2**64


def test_single_particle_superposition_checks_norm():
    reg = registry_create([electron(i) for i in range(3)])
    state = single_particle_superposition(reg, [0.6, 0.0, 0.8j])
    assert state.amplitude((0, 0, 1)) == 0.8j
    assert state.particle_numbers() == {1}
    with pytest.raises(NormalizationError):
        single_particle_superposition(reg, [0.5, 0.5, 0.5])


def test_project_particle_number():
    reg = registry_create([electron(0), electron(1)])
    mixed = single_particle_superposition(reg, [1.0, 0.0])
    from fockent import superpose, basis_state

    lopsided = superpose(
        [(0.6, basis_state(reg, (1, 0))), (0.8, basis_state(reg, (1, 1)))]
    )
    only_two = project_particle_number(lopsided, 2)
    assert only_two.amplitude((1, 1)) == pytest.approx(1.0)
    with pytest.raises(NormalizationError):
        project_particle_number(mixed, 3)


# ---------------------------------------------------------------------------
# exciton states


def test_exciton_spinless_amplitudes_follow_table():
    reg = exciton_registry([(0,), (1,)], [(5,)])
    table = PairAmplitudeTable(
        TableKind.EXCITON_A, {((0,), (5,)): 0.6, ((1,), (5,)): 0.8j}
    )
    state = exciton_spinless(reg, table)
    assert state.amplitude((1, 0, 1)) == pytest.approx(0.6)
    assert state.amplitude((0, 1, 1)) == pytest.approx(0.8j)
    assert state.norm() == pytest.approx(1.0)


def test_exciton_channels_spin_content():
    reg = exciton_registry([(0,)], [(5,)], spinful=True)
    table = PairAmplitudeTable(TableKind.EXCITON_A, {((0,), (5,)): 1.0})
    # registry order: electron up, electron down, hole up, hole down
    up = exciton_spinful(reg, table, ExcitonChannel.TRIPLET_UP)
    assert dict(up.items()) == {(1, 0, 1, 0): pytest.approx(1.0)}
    down = exciton_spinful(reg, table, ExcitonChannel.TRIPLET_DOWN)
    assert dict(down.items()) == {(0, 1, 0, 1): pytest.approx(1.0)}
    zero = exciton_spinful(reg, table, ExcitonChannel.TRIPLET_ZERO)
    singlet = exciton_spinful(reg, table, ExcitonChannel.SINGLET)
    assert zero.num_terms == singlet.num_terms == 2
    # mixed channels differ by the relative sign of the two branches
    s = 1.0 / math.sqrt(2.0)
    assert zero.amplitude((1, 0, 0, 1)) == pytest.approx(s)
    assert zero.amplitude((0, 1, 1, 0)) == pytest.approx(-s)
    assert singlet.amplitude((0, 1, 1, 0)) == pytest.approx(s)
    # the two mixed channels are orthogonal
    assert abs(inner_product(zero, singlet)) < 1e-12


def test_exciton_rejects_wrong_table_kind():
    reg = exciton_registry([(0,)], [(0,)])
    table = PairAmplitudeTable(TableKind.BCS_G, {(0,): 1.0})
    with pytest.raises(ValueError):
        exciton_spinless(reg, table)


# ---------------------------------------------------------------------------
# creation-product signs on hand-built mode orders


def explicit_state(registry, terms):
    """Normalized sum of coefficient times apply_creation over ``modes`` in order."""
    out = {}
    for coefficient, modes in terms:
        ket = vacuum_state(registry)
        for mode in modes:
            ket = apply_creation(ket, mode)
        for key, amp in ket.amplitudes.items():
            out[key] = out.get(key, 0.0) + coefficient * amp
    return ManyBodyState._from_keys(registry, list(out), list(out.values())).normalize()


def assert_same_amplitudes(got, want):
    assert set(got.amplitudes) == set(want.amplitudes)
    for key, amp in want.amplitudes.items():
        assert abs(got.amplitudes[key] - amp) <= 1e-14


def shuffled(labels, seed):
    order = np.random.default_rng(seed).permutation(len(labels))
    return registry_create([labels[i] for i in order])


def exciton_terms(reg, table, spins):
    """(A * weight, (hole, electron)) per table entry and (e spin, h spin, weight)."""
    return [
        (a * w, (reg.index_of(hole(kp, hs)), reg.index_of(electron(k, es))))
        for (k, kp), a in table.values.items()
        for es, hs, w in spins
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exciton_signs_follow_apply_creation_on_interleaved_registries(seed):
    e_momenta, h_momenta = [(0,), (1,), (2,)], [(10,), (11,)]
    table = random_exciton_table(e_momenta, h_momenta, np.random.default_rng(seed))
    # holes before and between the electrons, so that some products carry -1
    for reg in (
        registry_create([hole(10), electron(0), hole(11), electron(1), electron(2)]),
        shuffled(exciton_registry(e_momenta, h_momenta).modes, seed),
    ):
        want = explicit_state(reg, exciton_terms(reg, table, [(Spin.NONE, Spin.NONE, 1.0)]))
        assert_same_amplitudes(exciton_spinless(reg, table), want)
    reg = shuffled(exciton_registry(e_momenta, h_momenta, spinful=True).modes, seed)
    s = 1.0 / math.sqrt(2.0)
    branches = {
        ExcitonChannel.TRIPLET_UP: [(Spin.UP, Spin.UP, 1.0)],
        ExcitonChannel.TRIPLET_DOWN: [(Spin.DOWN, Spin.DOWN, 1.0)],
        ExcitonChannel.TRIPLET_ZERO: [(Spin.UP, Spin.DOWN, s), (Spin.DOWN, Spin.UP, -s)],
        ExcitonChannel.SINGLET: [(Spin.UP, Spin.DOWN, s), (Spin.DOWN, Spin.UP, s)],
    }
    for channel, spins in branches.items():
        want = explicit_state(reg, exciton_terms(reg, table, spins))
        assert_same_amplitudes(exciton_spinful(reg, table, channel), want)


def bcs_terms(reg, g, subsets, first=()):
    """(prod g, modes) per pair subset: ``first``, then down and up of each pair."""
    terms = []
    for chosen in subsets:
        modes = list(first)
        for k in chosen:
            down = reg.index_of(electron(negated(k), Spin.DOWN))
            modes += [down, reg.index_of(electron(k, Spin.UP))]
        terms.append((math.prod(g[k] for k in chosen), modes))
    return terms


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bcs_signs_follow_apply_creation_on_hand_built_registries(seed):
    momenta = [(1,), (2,), (3,), (4,)]
    g = random_bcs_table(momenta, np.random.default_rng(seed)).values
    table = PairAmplitudeTable(TableKind.BCS_G, g)
    # each pair's down member first, so every pair product carries -1
    descending = registry_create(
        [m for k in momenta for m in (electron(negated(k), Spin.DOWN), electron(k, Spin.UP))]
    )
    # partners apart, with members of other pairs between them
    interleaved = shuffled(bcs_registry(momenta).modes, seed)
    for reg in (descending, interleaved):
        every = [c for n in range(5) for c in itertools.combinations(momenta, n)]
        want = explicit_state(reg, bcs_terms(reg, g, every))
        assert_same_amplitudes(bcs_unprojected(reg, table), want)
        for n in (2, 4, 6):
            subsets = itertools.combinations(momenta, n // 2)
            want = explicit_state(reg, bcs_terms(reg, g, subsets))
            assert_same_amplitudes(bcs_projected(reg, table, n), want)
        up = reg.index_of(electron((2,), Spin.UP))
        rest = [k for k in momenta if k != (2,)]
        for n in (1, 3, 5):
            subsets = itertools.combinations(rest, n // 2)
            want = explicit_state(reg, bcs_terms(reg, g, subsets, first=(up,)))
            assert_same_amplitudes(bcs_projected(reg, table, n, unpaired=(2,)), want)


# ---------------------------------------------------------------------------
# coherent and projected pair states


def test_bcs_unprojected_amplitudes_are_subset_products():
    momenta = [(1,), (2,)]
    reg = bcs_registry(momenta)
    g = {(1,): 0.5, (2,): 1.5j}
    table = PairAmplitudeTable(TableKind.BCS_G, g)
    state = bcs_unprojected(reg, table)
    z = math.sqrt((1 + abs(g[(1,)]) ** 2) * (1 + abs(g[(2,)]) ** 2))
    assert state.amplitude((0, 0, 0, 0)) == pytest.approx(1 / z)
    assert state.amplitude((1, 1, 0, 0)) == pytest.approx(g[(1,)] / z)
    assert state.amplitude((0, 0, 1, 1)) == pytest.approx(g[(2,)] / z)
    assert state.amplitude((1, 1, 1, 1)) == pytest.approx(g[(1,)] * g[(2,)] / z)
    # no broken-pair components
    assert state.amplitude((1, 0, 0, 1)) == 0.0


@pytest.mark.parametrize("num_pairs,total", [(3, 2), (3, 4), (4, 4), (4, 6)])
def test_bcs_projection_consistency(num_pairs, total):
    momenta = [(k,) for k in range(1, num_pairs + 1)]
    reg = bcs_registry(momenta)
    table = random_bcs_table(momenta, np.random.default_rng(num_pairs * 10 + total))
    direct = bcs_projected(reg, table, total)
    via_projection = project_particle_number(bcs_unprojected(reg, table), total)
    assert abs(inner_product(direct, via_projection)) == pytest.approx(1.0, abs=1e-12)
    assert direct.particle_numbers() == {total}


def test_bcs_projected_odd_number_with_unpaired_mode():
    momenta = [(1,), (2,), (3,)]
    reg = bcs_registry(momenta)
    table = random_bcs_table(momenta, np.random.default_rng(77))
    state = bcs_projected(reg, table, 3, unpaired=(2,))
    assert state.particle_numbers() == {3}
    # the unpaired (2, up) mode is occupied in every branch, its partner empty
    up_idx = reg.index_of(electron((2,), Spin.UP))
    down_idx = reg.index_of(electron((-2,), Spin.DOWN))
    assert number_expectation(state, up_idx) == pytest.approx(1.0)
    assert number_expectation(state, down_idx) == 0.0
    # remaining single pair spreads over the other two momenta
    g = table.values
    w1 = abs(g[(1,)]) ** 2
    w3 = abs(g[(3,)]) ** 2
    assert number_expectation(state, 0) == pytest.approx(w1 / (w1 + w3))


def test_bcs_projected_argument_validation():
    momenta = [(1,), (2,)]
    reg = bcs_registry(momenta)
    table = random_bcs_table(momenta, np.random.default_rng(1))
    with pytest.raises(ValueError):
        bcs_projected(reg, table, 3)  # odd without unpaired
    with pytest.raises(ValueError):
        bcs_projected(reg, table, 2, unpaired=(1,))  # even with unpaired
    with pytest.raises(ValueError):
        bcs_projected(reg, table, 6)  # more pairs than modes
    zero = PairAmplitudeTable(TableKind.BCS_G, {(1,): 0.0, (2,): 0.0})
    with pytest.raises(NormalizationError):
        bcs_projected(reg, zero, 2)


def test_bcs_step_function_table_gives_single_determinant():
    momenta = [(k,) for k in range(1, 5)]
    reg = bcs_registry(momenta)
    table = PairAmplitudeTable(
        TableKind.BCS_G, {k: (1.0 if k[0] <= 2 else 0.0) for k in momenta}
    )
    state = bcs_projected(reg, table, 4)
    assert state.num_terms == 1
    assert abs(state.amplitude((1, 1, 1, 1, 0, 0, 0, 0))) == pytest.approx(1.0)


def test_bcs_builders_prune_relative_to_the_largest_term():
    momenta = [(k,) for k in range(1, 8)]
    reg = bcs_registry(momenta)
    # one large g among unit ones: subsets without the large pair keep their
    # weight, x_1 = 0.9999998 rather than 1
    g = {k: (1000.0 if k == (1,) else 1.0) for k in momenta[:6]}
    state = bcs_projected(reg, PairAmplitudeTable(TableKind.BCS_G, g), 10)
    assert state.num_terms == 6
    x1 = bcs_projected_x(g, 10, 1)
    assert x1 < 1.0
    assert number_expectation(state, 0) == pytest.approx(x1, abs=1e-15)
    # every raw product of the tiny table is 1e-20, and the mixed table's
    # products, scaled by its largest g alone, would all fall below 1e-30
    tiny = {k: 1e-4 for k in momenta[:6]}
    mixed = {k: (1e6 if k == (1,) else 1.0) for k in momenta}
    for values in (tiny, mixed):
        table = PairAmplitudeTable(TableKind.BCS_G, values)
        assert bcs_projected(reg, table, 2 * len(values) - 2).num_terms == len(values)
    # five pairs at g = 2**24: relative to the fully paired term, two empty
    # pairs weigh 2**-48 > PRUNE_TOL (kept), three weigh 2**-72 (dropped)
    table = PairAmplitudeTable(TableKind.BCS_G, {k: 2.0**24 for k in momenta[:5]})
    assert bcs_unprojected(reg, table).num_terms == 1 + 5 + 10


# ---------------------------------------------------------------------------
# condensate states


def test_default_pair_cutoff_controls_geometric_tail():
    def search(r, tol=1e-14):
        # the smallest n >= 1 with r^(2n) / (1 - r^2) below tol, step by step
        n, scale = 1, 1.0 / (1.0 - r * r)
        while (r ** (2 * n)) * scale >= tol:
            n += 1
        return n

    near_one = [1.0 - 10.0**-k for k in range(1, 5)]
    drawn = np.random.default_rng(11).uniform(0.0, 1.0, 1000).tolist()
    for r in [0.1, 0.5, 0.9, *near_one, *drawn]:
        n = default_pair_cutoff(r)
        assert n == search(r), r
        assert (r ** (2 * n)) / (1 - r * r) < 1e-14
        assert n == 1 or (r ** (2 * (n - 1))) / (1 - r * r) >= 1e-14
    # |v/u| = 1 - 2**-53 needs ~3e17 steps of the search; the cutoff is its
    # answer all the same: the tail is below tol at n and not at n - 1
    r = 1.0 - 2.0**-53
    n = default_pair_cutoff(r)
    scale = 1.0 / (1.0 - r * r)
    assert (r ** (2 * n)) * scale < 1e-14 <= (r ** (2 * (n - 1))) * scale
    assert default_pair_cutoff(0.0) == 1
    with pytest.raises(ValueError):
        default_pair_cutoff(1.0)


def test_bogoliubov_unprojected_pair_amplitudes_are_geometric():
    reg = bogoliubov_registry([(1,)], condensate_cutoff=8, pair_cutoff=4)
    table = PairAmplitudeTable(TableKind.BOGOLIUBOV_UV, {(1,): (1.25, 0.75)})
    state = bogoliubov_unprojected(reg, table, cutoff=4)
    ratio = -0.75 / 1.25
    base = state.amplitude((0, 0, 0))
    for n in range(5):
        assert state.amplitude((0, n, n)) == pytest.approx(base * ratio**n)
    # condensate factor is even and flat
    assert state.amplitude((2, 0, 0)) == pytest.approx(base)
    assert state.amplitude((1, 0, 0)) == 0.0
    assert state.particle_numbers() == {n for n in range(0, 17, 2)}


def tuple_reference(registry, table, cutoff):
    """Unprojected condensate state built from occupation tuples, pair by pair."""
    condensate = registry.index_of(boson(0))
    pairs = [
        (registry.index_of(boson(q)), registry.index_of(boson(negated(q))), -v / u)
        for q, (u, v) in sorted(table.values.items())
    ]
    amplitudes = {}
    for n0 in range(0, registry.cutoffs[condensate] + 1, 2):
        for ns in itertools.product(range(cutoff + 1), repeat=len(pairs)):
            occupations = [0] * len(registry)
            occupations[condensate] = n0
            amp = 1.0 + 0.0j
            for (q_idx, nq_idx, ratio), n in zip(pairs, ns):
                occupations[q_idx] = occupations[nq_idx] = n
                amp *= ratio**n
            if abs(amp) > PRUNE_TOL:
                amplitudes[tuple(occupations)] = amp
    return ManyBodyState.from_amplitudes(registry, amplitudes, normalize=True)


def test_bogoliubov_unprojected_matches_tuple_reference():
    # at cutoff 20 some raw products of the two pairs fall below PRUNE_TOL
    qs = [(1,), (2,)]
    values = {}
    for q, r, phase in zip(qs, (0.3, 0.45), (1.3, -2.2)):
        u = 1 / math.sqrt(1 - r * r)
        values[q] = (u, r * u * complex(math.cos(phase), math.sin(phase)))
    table = PairAmplitudeTable(TableKind.BOGOLIUBOV_UV, values)
    reg = bogoliubov_registry(qs, condensate_cutoff=5, pair_cutoff=20)
    state = bogoliubov_unprojected(reg, table, cutoff=20)
    want = tuple_reference(reg, table, 20)
    assert 0 < want.num_terms < 3 * 21**2
    assert list(state.amplitudes) == list(want.amplitudes)
    # repr tells apart every bit pattern, signed zeros included
    assert [repr(a) for a in state.amplitudes.values()] == [
        repr(a) for a in want.amplitudes.values()
    ]


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: bogoliubov_registry([0], 2, 1), "pair momenta must be nonzero"),
        (lambda: uniform_filling_state(uniform_registry(4), 5, 2), "registry has only 4 modes"),
        (
            lambda: uniform_filling_state(registry_create([boson(0), electron(0)], 2), 2, 1),
            "mode 0 is bosonic",
        ),
        (
            lambda: single_particle_superposition(uniform_registry(3), [0.6, 0.8]),
            "2 coefficients for registry of size 3",
        ),
        (
            lambda: load_amplitude_table(
                {"kind": "bcs_g", "entries": [{"k": [1], "value": 10**400}]}
            ),
            "entry 0 value .* is beyond the float range",
        ),
        (
            lambda: exciton_spinful(
                exciton_registry([0], [0], spinful=True),
                PairAmplitudeTable(TableKind.EXCITON_A, {((0,), (0,)): 1.0}),
                "singlet",
            ),
            "unknown exciton channel singlet",
        ),
    ],
)
def test_state_builder_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


SHORT_PAIR = r"^pair cutoff 2 at \(1,\) below required 3$"


def test_bogoliubov_unprojected_cutoff_must_fit_registry():
    reg = bogoliubov_registry([(1,)], condensate_cutoff=4, pair_cutoff=2)
    table = PairAmplitudeTable(TableKind.BOGOLIUBOV_UV, {(1,): (1.25, 0.75)})
    with pytest.raises(TruncationError, match=SHORT_PAIR):
        bogoliubov_unprojected(reg, table, cutoff=3)


def test_bogoliubov_projected_cutoff_must_fit_registry():
    # the same refusal, worded alike, where N/2 = 3 pair quanta need room
    reg = bogoliubov_registry([(1,)], condensate_cutoff=6, pair_cutoff=2)
    table = PairAmplitudeTable(TableKind.BOGOLIUBOV_C, {(1,): 0.5})
    with pytest.raises(TruncationError, match=SHORT_PAIR):
        bogoliubov_projected(reg, table, 6)


def test_bogoliubov_builders_refuse_pairs_sharing_modes():
    # q = 1 and q = -1 would both occupy the modes 1 and -1 of this registry,
    # so their pair grids repeat packed keys
    reg = registry_create([boson(0), boson(1), boson(-1)], cutoffs=[2, 2, 2])
    uv = {}
    for q, r in ((1, 0.5), (-1, 0.3)):
        u = 1 / math.sqrt(1 - r * r)
        uv[(q,)] = (u, r * u)
    with pytest.raises(ValueError, match="packed keys repeat"):
        bogoliubov_unprojected(
            reg, PairAmplitudeTable(TableKind.BOGOLIUBOV_UV, uv), cutoff=1
        )
    c = PairAmplitudeTable(TableKind.BOGOLIUBOV_C, {(1,): 0.5, (-1,): 0.3})
    with pytest.raises(ValueError, match="packed keys repeat"):
        bogoliubov_projected(reg, c, 2)


def test_bogoliubov_projected_multinomial_amplitudes():
    # N=4, one pair mode: patterns (2,0), (1,1), (0,2) weigh 1, -2c, c^2
    c = 0.4j
    reg = bogoliubov_registry([(1,)], condensate_cutoff=4, pair_cutoff=2)
    table = PairAmplitudeTable(TableKind.BOGOLIUBOV_C, {(1,): c})
    state = bogoliubov_projected(reg, table, 4)
    norm = math.sqrt(1 + 4 * abs(c) ** 2 + abs(c) ** 4)
    assert state.amplitude((4, 0, 0)) == pytest.approx(1 / norm)
    assert state.amplitude((2, 1, 1)) == pytest.approx(-2 * c / norm)
    assert state.amplitude((0, 2, 2)) == pytest.approx(c**2 / norm)


def test_bogoliubov_projected_matches_projected_unprojected_at_two_particles():
    qs = [(1,), (2,)]
    rng = np.random.default_rng(15)
    uv = random_uv_table(qs, rng)
    c_values = {q: v / u for q, (u, v) in uv.values.items()}
    reg = bogoliubov_registry(qs, condensate_cutoff=2, pair_cutoff=1)
    unproj = bogoliubov_unprojected(reg, uv, cutoff=1)
    via = project_particle_number(unproj, 2)
    direct = bogoliubov_projected(
        reg, PairAmplitudeTable(TableKind.BOGOLIUBOV_C, c_values), 2
    )
    assert abs(inner_product(via, direct)) == pytest.approx(1.0, abs=1e-12)


def test_bogoliubov_projected_zero_table_is_pure_condensate():
    reg = bogoliubov_registry([(1,)], condensate_cutoff=6, pair_cutoff=3)
    table = PairAmplitudeTable(TableKind.BOGOLIUBOV_C, {(1,): 0.0})
    state = bogoliubov_projected(reg, table, 6)
    assert state.num_terms == 1
    assert abs(state.amplitude((6, 0, 0))) == pytest.approx(1.0)


def test_bogoliubov_projected_requires_sufficient_cutoffs():
    table = PairAmplitudeTable(TableKind.BOGOLIUBOV_C, {(1,): 0.3})
    small_condensate = bogoliubov_registry([(1,)], condensate_cutoff=3, pair_cutoff=2)
    with pytest.raises(TruncationError):
        bogoliubov_projected(small_condensate, table, 4)
    small_pairs = bogoliubov_registry([(1,)], condensate_cutoff=4, pair_cutoff=1)
    with pytest.raises(TruncationError):
        bogoliubov_projected(small_pairs, table, 4)
    with pytest.raises(ValueError):
        bogoliubov_projected(small_pairs, table, 3)


def test_vacuum_projection_of_pair_states():
    momenta = [(1,), (2,)]
    reg = bcs_registry(momenta)
    table = random_bcs_table(momenta, np.random.default_rng(2))
    empty = bcs_projected(reg, table, 0)
    assert abs(inner_product(empty, vacuum_state(reg))) == pytest.approx(1.0)


def oversized_builds():
    """(builder, arguments, count refused at guard**2 = 100) for each state
    builder, on instances that would take gigabytes or hours unguarded."""
    pairs = [(k,) for k in range(1, 41)]
    g = PairAmplitudeTable(TableKind.BCS_G, dict.fromkeys(pairs, 1.0))
    g30 = PairAmplitudeTable(TableKind.BCS_G, dict.fromkeys(pairs[:30], 1.0))
    u, v = 2 / math.sqrt(3), 1 / math.sqrt(3)
    uv = PairAmplitudeTable(TableKind.BOGOLIUBOV_UV, dict.fromkeys(pairs[:10], (u, v)))
    c = PairAmplitudeTable(TableKind.BOGOLIUBOV_C, dict.fromkeys(pairs[:10], 0.1))
    return {
        # 2**30 terms; the pair that would double 64 terms to 128 is refused
        "bcs_unprojected": (bcs_unprojected, (bcs_registry(pairs[:30]), g30), 128),
        # C(40, 20) pair subsets
        "bcs_projected": (bcs_projected, (bcs_registry(pairs), g, 40), math.comb(40, 20)),
        # 7**10 pair occupations times 7 even condensate occupations
        "bogoliubov_unprojected": (
            bogoliubov_unprojected,
            (bogoliubov_registry(pairs[:10], 12, 6), uv, 6),
            7**11,
        ),
        # C(20 + 10, 10) patterns
        "bogoliubov_projected": (
            bogoliubov_projected,
            (bogoliubov_registry(pairs[:10], 40, 20), c, 40),
            math.comb(30, 10),
        ),
    }


@pytest.mark.parametrize(
    "name", ["bcs_unprojected", "bcs_projected", "bogoliubov_unprojected", "bogoliubov_projected"]
)
def test_state_builders_are_guarded_before_allocation(name, monkeypatch):
    build, args, count = oversized_builds()[name]
    monkeypatch.setenv("FOCKENT_SIZE_GUARD", "10")
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError) as raised:
            build(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (raised.value.dimension, raised.value.guard) == (count, 100)
    assert peak < 100_000
