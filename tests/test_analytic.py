"""Closed-form entropy and distribution formulas against exact oracles.

Combinatorial quantities are re-derived with Fractions and explicit
subset enumeration; distribution claims are cross-checked against
brute-force reduced density matrices of the corresponding states.
"""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from fockent import (
    ApproximateDistribution,
    ExcitonChannel,
    PairAmplitudeTable,
    SizeGuardError,
    TableKind,
    bcs_pair_entropy,
    bcs_projected,
    bcs_projected_x,
    bcs_registry,
    binary_entropy,
    bogoliubov_approx,
    bogoliubov_exact,
    bogoliubov_projected,
    bogoliubov_registry,
    compositions,
    diagonal_distribution,
    distribution_entropy,
    elementary_symmetric,
    exciton_marginals,
    exciton_registry,
    exciton_spinful,
    exciton_spinless,
    geometric_pair_distribution,
    mode_entanglement,
    multinomial,
    qh_entropy,
    random_bogoliubov_c_table,
    random_exciton_table,
    reduced_density_matrix,
    total_variation,
)


def entropy_oracle(probabilities):
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for p in probabilities:
            if isinstance(p, Fraction):
                p = mpmath.mpf(p.numerator) / p.denominator
            else:
                p = mpmath.mpf(p)
            if p > 0:
                total -= p * mpmath.log(p)
        return float(total)


# ---------------------------------------------------------------------------
# scalar entropy helpers


def test_binary_entropy_against_mpmath():
    rng = np.random.default_rng(61)
    for p in rng.uniform(1e-9, 1.0 - 1e-9, size=30):
        assert binary_entropy(p) == pytest.approx(entropy_oracle([p, 1 - p]), abs=1e-13)
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(math.log(2.0))
    with pytest.raises(ValueError):
        binary_entropy(1.5)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)


def test_distribution_entropy_and_total_variation():
    p = [0.5, 0.25, 0.25, 0.0]
    assert distribution_entropy(p) == pytest.approx(entropy_oracle(p))
    assert total_variation(p, p) == 0.0
    assert total_variation([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert total_variation([0.7, 0.3], [0.4, 0.6]) == pytest.approx(0.3)
    with pytest.raises(ValueError):
        total_variation([1.0], [0.5, 0.5])
    with pytest.raises(ValueError):
        distribution_entropy([-0.2, 1.2])


def test_filling_factor_entropy():
    assert qh_entropy(Fraction(7, 3)) == pytest.approx(
        entropy_oracle([Fraction(1, 3), Fraction(2, 3)]), abs=1e-14
    )
    assert qh_entropy(Fraction(1, 2)) == pytest.approx(math.log(2.0))
    assert qh_entropy(Fraction(5, 1)) == 0.0
    assert qh_entropy(0.25) == pytest.approx(binary_entropy(0.25))
    assert qh_entropy(2.25) == pytest.approx(binary_entropy(0.25))
    with pytest.raises(ValueError):
        qh_entropy(Fraction(-1, 3))


def test_coherent_pair_entropy_symmetry():
    # g and 1/g give the same entropy; the formula peaks at |g| = 1
    for g in [0.3, 0.7 + 0.2j, 2.5]:
        inv = 1.0 / g
        assert bcs_pair_entropy(g) == pytest.approx(bcs_pair_entropy(inv))
    assert bcs_pair_entropy(1.0) == pytest.approx(math.log(2.0))
    assert bcs_pair_entropy(0.0) == 0.0


# ---------------------------------------------------------------------------
# elementary symmetric polynomials and projected pair occupations


def brute_esp(values, order):
    return sum(
        math.prod(combo) for combo in itertools.combinations(values, order)
    ) if order else 1


def test_elementary_symmetric_matches_subset_enumeration():
    rng = np.random.default_rng(67)
    values = [Fraction(int(a), int(b)) for a, b in rng.integers(1, 40, size=(6, 2))]
    esp = elementary_symmetric(values, 6)
    for order in range(7):
        assert esp[order] == brute_esp(values, order)
    with pytest.raises(ValueError):
        elementary_symmetric(values, -1)


def test_projected_pair_occupation_exact_fractions():
    # with Fraction inputs the whole computation stays exact
    g = {(1,): Fraction(1, 2), (2,): Fraction(3, 4), (3,): Fraction(2, 1)}
    mags = {k: v * v for k, v in g.items()}
    for total in (2, 4):
        m = total // 2
        denom = brute_esp(list(mags.values()), m)
        for k in g:
            num = mags[k] * brute_esp([v for j, v in mags.items() if j != k], m - 1)
            assert bcs_projected_x(g, total, k) == num / denom
        assert sum(bcs_projected_x(g, total, k) for k in g) == m


def test_projected_pair_occupation_errors():
    g = {(1,): 0.5, (2,): 1.5}
    with pytest.raises(ValueError):
        bcs_projected_x(g, 3, (1,))
    with pytest.raises(KeyError):
        bcs_projected_x(g, 2, (9,))
    with pytest.raises(ValueError):
        bcs_projected_x(g, 6, (1,))
    with pytest.raises(ValueError):
        bcs_projected_x({(1,): 0.0, (2,): 0.0}, 2, (1,))


# ---------------------------------------------------------------------------
# combinatorial helpers


def test_compositions_enumerate_simplex_points():
    pts = list(compositions(3, 2))
    assert pts == [(0, 3), (1, 2), (2, 1), (3, 0)]
    assert len(list(compositions(5, 3))) == math.comb(7, 2)
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(2, 0)) == []
    # the sum-filtered product, in its (lexicographic) order
    for total, boxes in itertools.product(range(7), range(5)):
        grid = itertools.product(range(total + 1), repeat=boxes)
        assert list(compositions(total, boxes)) == [p for p in grid if sum(p) == total]


def test_multinomial_values():
    assert multinomial(4, (2, 1, 1)) == 12
    assert multinomial(6, (3, 3)) == math.comb(6, 3)
    assert multinomial(0, ()) == 1
    for k in (0, 1, 2, 1717, 2499, 4998, 4999):
        want = math.factorial(4999) // (math.factorial(k) * math.factorial(4999 - k))
        assert multinomial(4999, (k, 4999 - k)) == want


# ---------------------------------------------------------------------------
# condensate occupation distributions


def test_condensate_distribution_two_particles_single_pair():
    m = 0.35
    c = {(1,): math.sqrt(m)}
    x0 = bogoliubov_exact(c, 2)
    assert x0 == pytest.approx([m / (1 + m), 1 / (1 + m)])
    x1 = bogoliubov_exact(c, 2, (1,))
    assert x1 == pytest.approx([1 / (1 + m), m / (1 + m)])


def test_condensate_distribution_four_particles_single_pair():
    # hand count: patterns (n0, n1) = (2,0), (1,1), (0,2) with squared
    # multinomial weights 1, 4, 1
    m = 0.2
    c = {(1,): math.sqrt(m)}
    x0 = bogoliubov_exact(c, 4)
    want = np.array([m * m, 4 * m, 1.0])
    assert x0 == pytest.approx(want / want.sum())
    x1 = bogoliubov_exact(c, 4, (1,))
    want1 = np.array([1.0, 4 * m, m * m])
    assert x1 == pytest.approx(want1 / want1.sum())


def test_condensate_distributions_are_phase_insensitive():
    rng = np.random.default_rng(71)
    mags = rng.uniform(0.1, 0.6, size=3)
    phases = rng.uniform(0, 2 * math.pi, size=3)
    plain = {(q,): mags[q - 1] for q in (1, 2, 3)}
    rotated = {
        (q,): mags[q - 1] * complex(math.cos(phases[q - 1]), math.sin(phases[q - 1]))
        for q in (1, 2, 3)
    }
    assert bogoliubov_exact(plain, 6) == pytest.approx(
        bogoliubov_exact(rotated, 6), abs=1e-14
    )
    assert bogoliubov_exact(plain, 6, (2,)) == pytest.approx(
        bogoliubov_exact(rotated, 6, (2,)), abs=1e-14
    )


def test_zero_amplitudes_concentrate_on_full_condensate():
    x0 = bogoliubov_exact({(1,): 0.0, (2,): 0.0}, 6)
    assert x0 == pytest.approx([0.0, 0.0, 0.0, 1.0])


def test_condensate_distributions_match_bruteforce_state():
    # cross-check against the actual projected state: the condensate
    # marginal over occupation 2*n0 must equal x0, the pair marginal x1
    total = 4
    qs = [(1,), (2,)]
    rng = np.random.default_rng(73)
    table = random_bogoliubov_c_table(qs, rng)
    reg = bogoliubov_registry(qs, condensate_cutoff=total, pair_cutoff=total // 2)
    state = bogoliubov_projected(reg, table, total)

    x0 = bogoliubov_exact(table.values, total)
    dist0 = diagonal_distribution(reduced_density_matrix(state, (0,)))
    assert dist0[0::2] == pytest.approx(x0, abs=1e-12)
    assert dist0[1::2] == pytest.approx(np.zeros(total // 2), abs=1e-15)

    for q_idx, q in [(1, (1,)), (3, (2,))]:
        x1 = bogoliubov_exact(table.values, total, q)
        dist1 = diagonal_distribution(reduced_density_matrix(state, (q_idx,)))
        assert dist1 == pytest.approx(x1, abs=1e-12)


def test_condensate_guard_rejects_large_instances(monkeypatch):
    # the oracle walks C(N/2 + M, M) patterns, refused above size_guard()
    monkeypatch.delenv("FOCKENT_SIZE_GUARD", raising=False)
    c = {(q,): 0.1 for q in range(1, 8)}
    with pytest.raises(SizeGuardError) as info:
        bogoliubov_exact(c, 20)
    assert (info.value.dimension, info.value.guard) == (19448, 5000)
    # 36 patterns (7 pairs at N = 4), and 3,003 (6 pairs at N = 16)
    assert bogoliubov_exact(c, 4).sum() == pytest.approx(1.0)
    assert len(bogoliubov_exact({(q,): 0.1 for q in range(1, 7)}, 16)) == 9
    monkeypatch.setenv("FOCKENT_SIZE_GUARD", "35")
    with pytest.raises(SizeGuardError) as info:
        bogoliubov_exact(c, 4)
    assert (info.value.dimension, info.value.guard) == (36, 35)
    monkeypatch.setenv("FOCKENT_SIZE_GUARD", "36")
    assert bogoliubov_exact(c, 4).sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        bogoliubov_exact({(1,): 0.1}, 3)


@pytest.mark.parametrize("c", [{}, {(1,): 0.1}, {(1,): 0.1, (2,): 0.2j}])
@pytest.mark.parametrize("total", [-2, -4, -3])
def test_negative_particle_number_is_refused(c, total):
    message = f"total particle number {total} is negative"
    for oracle in (bogoliubov_exact, bogoliubov_approx):
        with pytest.raises(ValueError, match=message):
            oracle(c, total)
        if c:
            with pytest.raises(ValueError, match=message):
                oracle(c, total, (1,))
    # the projected states and the pair occupation x_k state the same rule,
    # the projected pair state too, though it allows an odd N
    registry = bogoliubov_registry(c, condensate_cutoff=4, pair_cutoff=2)
    table = PairAmplitudeTable(TableKind.BOGOLIUBOV_C, c)
    with pytest.raises(ValueError, match=message):
        bogoliubov_projected(registry, table, total)
    with pytest.raises(ValueError, match=message):
        bcs_projected_x(c, total, (1,))
    pairs = PairAmplitudeTable(TableKind.BCS_G, c)
    with pytest.raises(ValueError, match=message):
        bcs_projected(bcs_registry(pairs.pair_indices()), pairs, total)


def exact_condensate_entropy(c, total_number):
    """Entropy of one pair mode's distribution at N: p(k) proportional to
    C(N/2, k)^2 w^k, with w = |c|^2 the float ``bogoliubov_exact`` takes,
    summed as exact integers and taken at 40 digits."""
    half, w = total_number // 2, Fraction(abs(c) ** 2)
    terms = [
        math.comb(half, k) ** 2 * w.numerator**k * w.denominator ** (half - k)
        for k in range(half + 1)
    ]
    total = sum(terms)
    shift = max(total.bit_length() - 256, 0)
    return entropy_oracle([Fraction(t >> shift, total >> shift) for t in terms])


@pytest.mark.parametrize("total_number", [1100, 2000])
def test_large_condensate_stays_in_the_float_range(total_number):
    # the largest multinomial^2 leaves the float range from N = 1,034 on, and
    # so does the unscaled state's norm at N = 2,000; both scale by exact
    # powers of two instead
    c = 0.45 * complex(math.cos(0.7), math.sin(0.7))
    table = PairAmplitudeTable(TableKind.BOGOLIUBOV_C, {(1,): c})
    want = exact_condensate_entropy(c, total_number)
    for q in (None, (1,)):
        exact = bogoliubov_exact(table.values, total_number, q)
        assert distribution_entropy(exact) == pytest.approx(want, abs=1e-14)
    registry = bogoliubov_registry(
        [(1,)], condensate_cutoff=total_number, pair_cutoff=total_number // 2
    )
    state = bogoliubov_projected(registry, table, total_number)
    for mode in (0, 1):
        assert mode_entanglement(state, (mode,)) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: qh_entropy(-0.5), ValueError, "filling factor -0.5 is negative"),
        (lambda: bogoliubov_exact({(1,): 0.1}, 4, (2,)), KeyError, r"pair index \(2,\)"),
    ],
)
def test_analytic_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_approximate_forms_reduce_to_exact_for_minimal_case():
    # N=2 with a single pair mode: both shortcuts are exact and the
    # residual vanishes
    c = {(1,): 0.4 * complex(math.cos(1.1), math.sin(1.1))}
    x0 = bogoliubov_approx(c, 2)
    assert isinstance(x0, ApproximateDistribution)
    assert x0.residual == pytest.approx(0.0, abs=1e-15)
    assert x0.probabilities == pytest.approx(bogoliubov_exact(c, 2), abs=1e-14)
    x1 = bogoliubov_approx(c, 2, (1,))
    assert x1.residual == 0.0
    assert x1.probabilities == pytest.approx(bogoliubov_exact(c, 2, (1,)), abs=1e-14)


def test_approximate_forms_report_cross_term_residual():
    c = {(1,): 0.3, (2,): 0.3}
    x0 = bogoliubov_approx(c, 4)
    # |c1 + c2|^2 - (|c1|^2 + |c2|^2) = 2 Re(conj(c1) c2)
    assert x0.residual == pytest.approx(2 * 0.09)
    assert x0.probabilities.sum() == pytest.approx(1.0)
    assert len(x0.probabilities) == 3
    # orthogonal phases kill the cross term entirely
    balanced = bogoliubov_approx({(1,): 0.3, (2,): 0.3j}, 4)
    assert balanced.residual == pytest.approx(0.0, abs=1e-15)
    x1 = bogoliubov_approx(c, 4, (1,))
    assert x1.residual == pytest.approx(0.0, abs=1e-15)  # one remaining mode
    assert x1.probabilities.sum() == pytest.approx(1.0)


def test_approximate_x1_weights_are_geometric_in_suppressed_regime():
    # with the coherent sum of the other modes suppressed, successive
    # weight ratios are dominated by |c_q1|^2
    c = {(1,): 0.5, (2,): 0.3, (3,): -0.3}
    x1 = bogoliubov_approx(c, 6, (1,))
    assert x1.residual == pytest.approx(0.18)
    ratios = x1.probabilities[1:] / x1.probabilities[:-1]
    assert np.all(ratios >= 0.25 - 1e-12)


def test_geometric_pair_distribution():
    dist = geometric_pair_distribution(0.5, 3)
    want = np.array([1.0, 0.25, 0.0625, 0.015625])
    assert dist == pytest.approx(want / want.sum())
    with pytest.raises(ValueError):
        geometric_pair_distribution(1.0, 3)


# ---------------------------------------------------------------------------
# electron-hole marginals


def test_exciton_marginals_match_row_and_column_sums():
    rng = np.random.default_rng(79)
    e_momenta = [(0,), (1,), (2,)]
    h_momenta = [(5,), (6,)]
    table = random_exciton_table(e_momenta, h_momenta, rng)
    marg = exciton_marginals(table.values)
    grid = np.array(
        [[abs(table.values[(k, kp)]) ** 2 for kp in h_momenta] for k in e_momenta]
    )
    for i, k in enumerate(e_momenta):
        assert marg.electron_entropy(k) == pytest.approx(
            binary_entropy(grid[i].sum())
        )
    for j, kp in enumerate(h_momenta):
        assert marg.hole_entropy(kp) == pytest.approx(binary_entropy(grid[:, j].sum()))
        ge, gh = marg.gamma(e_momenta[0], kp)
        assert ge == pytest.approx(grid[0].sum() - grid[0, j])
        assert gh == pytest.approx(grid[:, j].sum() - grid[0, j])
    with pytest.raises(ValueError):
        exciton_marginals({((0,), (0,)): 0.5})


def test_exciton_marginal_entropies_match_bruteforce_rdm():
    rng = np.random.default_rng(83)
    e_momenta = [(0,), (1,)]
    h_momenta = [(5,), (6,)]
    table = random_exciton_table(e_momenta, h_momenta, rng)
    marg = exciton_marginals(table.values)
    reg = exciton_registry(e_momenta, h_momenta)
    state = exciton_spinless(reg, table)
    for i, k in enumerate(e_momenta):
        assert marg.electron_entropy(k) == pytest.approx(
            mode_entanglement(state, (i,)), abs=1e-12
        )
    for j, kp in enumerate(h_momenta):
        assert marg.hole_entropy(kp) == pytest.approx(
            mode_entanglement(state, (2 + j,)), abs=1e-12
        )
    for i, k in enumerate(e_momenta):
        for j, kp in enumerate(h_momenta):
            assert marg.joint_entropy(k, kp) == pytest.approx(
                mode_entanglement(state, (i, 2 + j)), abs=1e-12
            )


def test_spinful_exciton_entropies_match_bruteforce_rdm():
    rng = np.random.default_rng(89)
    e_momenta = [(0,), (1,)]
    h_momenta = [(5,), (6,)]
    table = random_exciton_table(e_momenta, h_momenta, rng)
    marg = exciton_marginals(table.values)
    reg = exciton_registry(e_momenta, h_momenta, spinful=True)
    for channel in (ExcitonChannel.TRIPLET_ZERO, ExcitonChannel.SINGLET):
        state = exciton_spinful(reg, table, channel)
        for i, k in enumerate(e_momenta):
            assert marg.spinful_electron_entropy(k) == pytest.approx(
                mode_entanglement(state, (2 * i,)), abs=1e-12
            )
        for j, kp in enumerate(h_momenta):
            assert marg.spinful_hole_entropy(kp) == pytest.approx(
                mode_entanglement(state, (4 + 2 * j,)), abs=1e-12
            )
        for i, k in enumerate(e_momenta):
            for j, kp in enumerate(h_momenta):
                opposite = (2 * i, 4 + 2 * j + 1)  # e up with h down
                assert marg.spinful_opposite_entropy(k, kp) == pytest.approx(
                    mode_entanglement(state, opposite), abs=1e-12
                )
                same = (2 * i, 4 + 2 * j)  # e up with h up
                assert marg.spinful_same_entropy(k, kp) == pytest.approx(
                    mode_entanglement(state, same), abs=1e-12
                )


def test_one_hot_exciton_table_is_separable():
    table = PairAmplitudeTable(TableKind.EXCITON_A, {((0,), (5,)): 1.0})
    marg = exciton_marginals(table.values)
    assert marg.electron_entropy((0,)) == 0.0
    assert marg.hole_entropy((5,)) == 0.0
    assert marg.joint_entropy((0,), (5,)) == 0.0
