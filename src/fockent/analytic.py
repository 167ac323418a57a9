"""Closed-form entanglement expressions for the model states.

Everything here is independent of the brute-force engine: the functions
evaluate combinatorial formulas only, so tests can cross-check them
against enumeration.  All entropies use the natural logarithm.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .fock_core import Momentum, _as_momentum, _check_guard

BOUNDS_TOL = 1e-12


def binary_entropy(p: float) -> float:
    """h(p) = -p ln p - (1-p) ln(1-p), defined as 0 at the endpoints."""
    p = float(p)
    if p < -BOUNDS_TOL or p > 1.0 + BOUNDS_TOL:
        raise ValueError(f"probability {p} outside [0, 1]")
    p = min(1.0, max(0.0, p))
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def distribution_entropy(probabilities: Sequence[float]) -> float:
    """-sum(p ln p) over a probability vector, 0 ln 0 = 0."""
    total = 0.0
    for p in probabilities:
        p = float(p)
        if p < -BOUNDS_TOL:
            raise ValueError(f"negative probability {p}")
        if p > 0.0:
            total -= p * math.log(p)
    return total


def total_variation(p: Sequence[float], q: Sequence[float]) -> float:
    """Total-variation distance between two distributions of equal length."""
    if len(p) != len(q):
        raise ValueError("distributions have different lengths")
    return 0.5 * float(sum(abs(float(a) - float(b)) for a, b in zip(p, q)))


def qh_entropy(filling: float | Fraction) -> float:
    """Single-mode entropy at filling factor nu: h(nu - floor(nu)).

    Integer fillings give 0; only the fractional part carries
    occupation uncertainty.
    """
    if isinstance(filling, Fraction):
        if filling < 0:
            raise ValueError(f"filling factor {filling} is negative")
        frac = filling - math.floor(filling)
        return binary_entropy(float(frac))
    nu = float(filling)
    if nu < -BOUNDS_TOL:
        raise ValueError(f"filling factor {nu} is negative")
    nu = max(0.0, nu)
    return binary_entropy(nu - math.floor(nu))


def bcs_pair_entropy(g: complex) -> float:
    """Per-member entropy of one coherent pair amplitude g: h(1/(1+|g|^2))."""
    z = 1.0 / (1.0 + abs(g) ** 2)
    return binary_entropy(z)


def _abs2(value):
    """|value|^2 preserving exact types for real inputs."""
    if isinstance(value, complex):
        return value.real * value.real + value.imag * value.imag
    return value * value


def elementary_symmetric(values: Sequence, order: int) -> list:
    """e_0 .. e_order of the given values, by the stable DP recurrence.

    Works with floats, Fractions or ints alike; for nonnegative inputs
    every update adds nonnegative terms, so no cancellation occurs.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    e: list = [0] * (order + 1)
    e[0] = 1
    for v in values:
        for j in range(order, 0, -1):
            e[j] = e[j] + v * e[j - 1]
    return e


def bcs_projected_x(
    g: Mapping[Momentum, complex], total_number: int, k: int | Sequence[int]
):
    """Occupation probability x_k of one pair in the number-projected pair state.

    x_k = |g_k|^2 e_{m-1}(|g|^2 without k) / e_m(|g|^2), with m = N/2.
    The x_k sum to N/2.
    """
    _check_pair_number(total_number)
    m = total_number // 2
    key = _as_momentum(k)
    if key not in g:
        raise KeyError(f"pair index {key} not in amplitude mapping")
    if m > len(g):
        raise ValueError(f"cannot place {m} pairs into {len(g)} pair modes")
    mags = {idx: _abs2(v) for idx, v in g.items()}
    if any(isinstance(w, float) for w in mags.values()):
        # one power of two keeps e_m finite for large |g| and cancels exactly
        shift = math.frexp(max(mags.values()))[1]
        mags = {idx: math.ldexp(w, -shift) for idx, w in mags.items()}
    full = elementary_symmetric(list(mags.values()), m)[m]
    if full == 0:
        raise ValueError("projected pair state vanishes for this amplitude table")
    rest = [v for idx, v in mags.items() if idx != key]
    without = elementary_symmetric(rest, m - 1)[m - 1]
    return mags[key] * without / full


def compositions(total: int, boxes: int) -> Iterator[tuple[int, ...]]:
    """All tuples of ``boxes`` nonnegative ints summing to ``total``, in
    lexicographic order: stars and bars, with the cuts between boxes at
    each nondecreasing choice of ``boxes - 1`` places in 0 .. total."""
    if boxes <= 1:
        if boxes or total == 0:
            yield (total,) * boxes
        return
    for cuts in itertools.combinations_with_replacement(range(total + 1), boxes - 1):
        yield tuple(map(operator.sub, cuts + (total,), (0,) + cuts))


def multinomial(total: int, parts: Sequence[int]) -> int:
    """total! / prod(p!) for parts summing to ``total``, as a product of binomials."""
    out = 1
    for p in parts:
        out *= math.comb(total, p)
        total -= p
    return out


def _ldexp(x, e: int):
    """x * 2**e for a float or complex x, exactly while its parts stay normal."""
    if isinstance(x, complex):
        return complex(math.ldexp(x.real, e), math.ldexp(x.imag, e))
    return math.ldexp(x, e)


def _frexp(x) -> tuple:
    """(m, e) with x = m * 2**e, |m| in [0.5, 1] (or m = 0): exact for a float
    or complex x while its parts stay normal, correctly rounded for an int."""
    if isinstance(x, float):
        return math.frexp(x)
    if isinstance(x, int):
        e = x.bit_length()
        return x / (1 << e), e
    e = math.frexp(abs(x))[1]
    return _ldexp(x, -e), e


def _shifted(terms) -> list:
    """Values of (m, e) terms, each m * 2**e, by one exact shift that puts the
    largest in [0.5, 1); all 0 if every m is 0."""
    top = max((math.frexp(abs(m))[1] + e for m, e in terms if m), default=0)
    return [_ldexp(m, e - top) for m, e in terms]


def _powers(x, top: int) -> list:
    """x**k for k = 0 .. top as (m, e) pairs of ``_frexp``: Python's own x**k
    while |x|**top stays well inside the float range, else x**k by squaring
    x**(k // 2), rescaled at every step."""
    e = math.frexp(abs(x))[1]
    if -1000 < (e - 1) * top and e * top < 1000:
        return [_frexp(x**k) for k in range(top + 1)]
    powers = [(1.0, 0)]
    for k in range(1, top + 1):
        root, f = powers[k // 2]
        m, g = _frexp(root * root * (_ldexp(x, -e) if k % 2 else 1))
        powers.append((m, 2 * f + g + (e if k % 2 else 0)))
    return powers


def _boxes(c: Mapping[Momentum, complex], q) -> tuple[list[complex], int]:
    """Box amplitudes, 1.0 for the condensate and then c_j in momentum
    order, and the target box: 0 for ``q`` None, else that of pair mode q."""
    keys = sorted(c.keys())
    if q is not None and _as_momentum(q) not in keys:
        raise KeyError(f"pair index {_as_momentum(q)} not in amplitude mapping")
    pos = 0 if q is None else 1 + keys.index(_as_momentum(q))
    return [1.0] + [complex(c[k]) for k in keys], pos


def _check_nonnegative_number(total_number: int) -> None:
    """Refuse a negative total particle number N."""
    if total_number < 0:
        raise ValueError(f"total particle number {total_number} is negative")


def _check_pair_number(total_number: int) -> None:
    """Refuse a negative or odd total particle number N."""
    _check_nonnegative_number(total_number)
    if total_number % 2 != 0:
        raise ValueError("total particle number must be even")


def _guard_condensate(total_number: int, num_pairs: int) -> None:
    """Refuse negative or odd N, and more than ``size_guard()`` patterns:
    the C(N/2 + M, M) ways to put N/2 pair quanta into the condensate and
    M pair modes, which ``bogoliubov_exact`` walks."""
    _check_pair_number(total_number)
    half = total_number // 2
    patterns = math.comb(half + num_pairs, num_pairs)
    _check_guard(f"exact condensate enumeration (N/2={half}, {num_pairs} pairs)", patterns)


def bogoliubov_exact(
    c: Mapping[Momentum, complex],
    total_number: int,
    q: int | Sequence[int] | None = None,
) -> np.ndarray:
    """Occupation distribution of the condensate (``q`` None) or of pair
    mode q in the number-projected pair state.

    The N/2 pair quanta fill M+1 boxes: the condensate, box 0 with weight
    1.0, and one box per pair mode with weight |c_j|^2.  Entry n of the
    target box is proportional to weight^n times the sum over the other
    boxes' occupations summing to N/2 - n of multinomial(N/2; pattern)^2
    * prod weight_j^(n_j).  For the condensate, entry n0 is the
    probability of occupation 2*n0.
    """
    _guard_condensate(total_number, len(c))
    half = total_number // 2
    amplitudes, pos = _boxes(c, q)
    boxes = [abs(a) ** 2 for a in amplitudes]
    # each term and each entry as a mantissa and a power of two (``_frexp``), so
    # none leaves the float range; exact shifts put the terms of an entry, and
    # then the entries, on one scale, where the sums round as unscaled ones do
    powers = [_powers(w, half) for w in boxes]
    rest = powers[:pos] + powers[pos + 1 :]
    entries = []
    lead = 1  # C(N/2, n), each from the last by one exact division
    for n in range(half + 1):
        acc, top = 0.0, 0
        for pattern in compositions(half - n, len(rest)):
            term, e = _frexp((lead * multinomial(half - n, pattern)) ** 2)
            for power, count in zip(rest, pattern):
                if count:  # weight**0 is 1
                    mantissa, f = power[count]
                    term *= mantissa
                    e += f
            if not term:
                continue
            if not acc:
                top = e
            elif e > top:  # the sum so far moves to the new scale
                acc, top = math.ldexp(acc, top - e), e
            acc += math.ldexp(term, e - top)
        entries.append((acc * powers[pos][n][0], top + powers[pos][n][1]))
        lead = lead * (half - n) // (n + 1)
    weights = np.array(_shifted(entries))
    return weights / weights.sum()


class ApproximateDistribution(NamedTuple):
    """Distribution from a closed-form shortcut plus its assumption residual.

    ``residual`` is the magnitude of the dropped cross-term sum among the
    pair modes other than the target, so it is 0 whenever at most one is
    left, whatever the shortcut's error; the shortcut's measured error is
    the total variation to the exact distribution (``tv_approx``).
    """

    probabilities: np.ndarray
    residual: float


def bogoliubov_approx(
    c: Mapping[Momentum, complex],
    total_number: int,
    q: int | Sequence[int] | None = None,
) -> ApproximateDistribution:
    """Geometric-form distribution of the condensate (``q`` None) or of pair
    mode q, valid when the pair amplitudes have uncorrelated phases.

    The target box has weight 1 (condensate) or |c_q|^2, and the other pair
    modes enter through their coherent sum C = |sum c|.  Condensate: entry
    n0 is proportional to C^(N - 2 n0).  Pair mode q: entry n is
    proportional to |c_q|^(2n) * sum over condensate occupations
    n0 <= N/2 - n of C^(N - 2 n0 - 2 n).  The residual
    |C^2 - sum |c|^2| over those other modes measures the neglected cross
    terms.
    """
    _check_pair_number(total_number)
    half = total_number // 2
    amplitudes, pos = _boxes(c, q)
    weight = abs(amplitudes[pos]) ** 2
    rest = [a for i, a in enumerate(amplitudes) if i not in (0, pos)]
    coherent = abs(sum(rest)) if rest else 0.0
    incoherent = sum(abs(v) ** 2 for v in rest)
    residual = abs(coherent**2 - incoherent)
    weights = np.zeros(half + 1)
    for n in range(half + 1):
        geo = 0.0
        # the condensate is summed over only when it is not the target
        for n0 in range(half - n + 1 if q is not None else 1):
            exponent = total_number - 2 * n0 - 2 * n
            geo += 1.0 if exponent == 0 else coherent**exponent
        weights[n] = (weight**n) * geo
    return ApproximateDistribution(weights / weights.sum(), float(residual))


def geometric_pair_distribution(ratio_magnitude: float, cutoff: int) -> np.ndarray:
    """Occupation distribution x_i proportional to r^(2i), i = 0..cutoff."""
    r2 = float(ratio_magnitude) ** 2
    if not 0.0 <= r2 < 1.0:
        raise ValueError(f"|v/u| must lie in [0, 1), got {ratio_magnitude}")
    weights = np.array([r2**i for i in range(cutoff + 1)])
    return weights / weights.sum()


@dataclass(frozen=True)
class ExcitonMarginals:
    """Row and column weights of a normalized pair-amplitude matrix A.

    alpha_electron[k] = sum_{k'} |A(k,k')|^2 and alpha_hole[k'] is the
    column analogue.  gamma values subtract the shared element:
    gamma_electron = alpha_k - |A(k,k')|^2 for the chosen (k, k').
    """

    alpha_electron: Mapping[Momentum, float]
    alpha_hole: Mapping[Momentum, float]
    weights: Mapping[tuple[Momentum, Momentum], float]

    def pair_weight(self, k: Momentum, kp: Momentum) -> float:
        return self.weights.get((k, kp), 0.0)

    def gamma(self, k: Momentum, kp: Momentum) -> tuple[float, float]:
        w = self.pair_weight(k, kp)
        return self.alpha_electron[k] - w, self.alpha_hole[kp] - w

    def electron_entropy(self, k: Momentum) -> float:
        return binary_entropy(self.alpha_electron[k])

    def hole_entropy(self, kp: Momentum) -> float:
        return binary_entropy(self.alpha_hole[kp])

    def joint_entropy(self, k: Momentum, kp: Momentum) -> float:
        """Entropy of the mode pair {electron k, hole k'} for one spinless pair."""
        w = self.pair_weight(k, kp)
        ge, gh = self.gamma(k, kp)
        return distribution_entropy([w, ge, gh, 1.0 - w - ge - gh])

    def spinful_electron_entropy(self, k: Momentum) -> float:
        """Single spin-resolved electron mode in a spin-mixed channel: h(alpha/2)."""
        return binary_entropy(0.5 * self.alpha_electron[k])

    def spinful_hole_entropy(self, kp: Momentum) -> float:
        return binary_entropy(0.5 * self.alpha_hole[kp])

    def spinful_opposite_entropy(self, k: Momentum, kp: Momentum) -> float:
        """{electron(k, up), hole(k', down)} in a spin-mixed channel.

        Same four-term structure as ``joint_entropy`` with every
        argument halved, since each spin branch carries weight 1/2.
        """
        w = 0.5 * self.pair_weight(k, kp)
        ge, gh = self.gamma(k, kp)
        ge, gh = 0.5 * ge, 0.5 * gh
        return distribution_entropy([w, ge, gh, 1.0 - w - ge - gh])

    def spinful_same_entropy(self, k: Momentum, kp: Momentum) -> float:
        """{electron(k, up), hole(k', up)} in a spin-mixed channel.

        The two modes are never jointly occupied, leaving three terms
        with halved marginals.
        """
        ae = 0.5 * self.alpha_electron[k]
        ah = 0.5 * self.alpha_hole[kp]
        return distribution_entropy([ae, ah, 1.0 - ae - ah])


def exciton_marginals(amplitudes: Mapping[tuple, complex]) -> ExcitonMarginals:
    """Marginals of an electron-hole amplitude table keyed by (k, k')."""
    weights: dict[tuple[Momentum, Momentum], float] = {}
    alpha_e: dict[Momentum, float] = {}
    alpha_h: dict[Momentum, float] = {}
    total = 0.0
    for (k, kp), a in amplitudes.items():
        k, kp = _as_momentum(k), _as_momentum(kp)
        w = abs(complex(a)) ** 2
        weights[(k, kp)] = weights.get((k, kp), 0.0) + w
        alpha_e[k] = alpha_e.get(k, 0.0) + w
        alpha_h[kp] = alpha_h.get(kp, 0.0) + w
        total += w
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"amplitude table has squared sum {total}, expected 1")
    return ExcitonMarginals(alpha_e, alpha_h, weights)
