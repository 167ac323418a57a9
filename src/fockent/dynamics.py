"""Number-conserving second-quantized Hamiltonians on fixed-N sectors.

H = sum_ij T_ij a^dagger_i a_j
    + (1/2) sum_ijlm V_ijlm a^dagger_i a^dagger_j a_m a_l

with T the one single-particle matrix (an external field given apart is
added into it once, at construction, so the proper basis is T's
eigenbasis) and V the two-body tensor stored sparsely as <ij|V|lm>
entries (Hermiticity pairs are completed at load).

The terms of H, as one term table (``_terms``), go through the batched
operator kernel of ``fock_core``, which owns the sign rule and the sector
order.  ``_sector_entries`` is the one sector product: it runs the kernel
on chunks of source keys, every term on each chunk and at most
``ASSEMBLY_CELLS`` (terms x keys) cells a chunk, takes each target key's
row from its rank in the sector (``fock_core._Sector.rank``, table
gathers and no search), adds up each (row, col) of a chunk's triplets
with ``fock_core._summed``, the one sum by key, and sorts the entries
into row-major order.  ``hamiltonian_matrix`` scatters them into a
dense matrix; ``evolve_many`` builds each sector's index and entries
once, for either solver, scatters them too or splits them into the
sparse operator, and ranks the state's keys on the same index.  There
is no full-space matrix, and no other product of H with a state.
Sectors up to ``DENSE_CROSSOVER`` basis vectors are diagonalised
densely, larger ones are propagated by one numpy-only Chebyshev
recurrence for all times (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
(1984)), its Bessel coefficients from Miller's backward recurrence.  Its
degree grows with the spectral radius times the largest |t|, and the
radius is a guaranteed one: one-sided Collatz-Wielandt bounds on the
largest eigenvalues of H and -H, Gershgorin's ends narrowed by a few
power steps on D +- |E| (``_spectral_interval``; on the 12-site
benchmark rings the degree at t = 5 falls from 113 to 88).  The
sparse operator keeps the diagonal of H apart, one entry a row, and pads
every row of the rest to the longest (ELLPACK): a (width, dimension)
array of columns and one of values, 24 bytes a cell, so that a matvec
of the off-diagonal part is one gather, one product and one sum down the
columns, and the recurrence adds the diagonal less the center.  The
size guard of ``fock_core`` bounds the sector dimension and, squared,
the amplitudes of a trajectory, the cells of a padded operator, the
Chebyshev coefficients of a trajectory and the dense two-body tensor of
``check_proper_basis``; registries whose keys are not int64 are refused.
States are read as their key and amplitude arrays and split into sectors
by the particle number of each key.  A trajectory is one (times x keys)
array, allocated once: each sector writes its own columns in place, and
``ManyBodyState._from_rows`` takes the array over, with no copy, every
time at once on the sectors' keys.  Eigenstates go through
``ManyBodyState._from_keys``.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import RegistryMismatchError
from .fock_core import (
    ManyBodyState,
    ModeLabel,
    ModeRegistry,
    Species,
    Spin,
    registry_create,
    _Sector,
    _check_elements,
    _check_int64_keys,
    _check_trajectory,
    _json_complex,
    _json_expect,
    _json_int,
    _json_ints,
    _json_payload,
    _mode_index,
    _occupations,
    _operator_triplets,
    _summed,
    _term_run,
)

HERMITICITY_TOL = 1e-12
DEGENERACY_RTOL = 1e-10
PROPER_TOL = 1e-12
TENSOR_PRUNE = 1e-14

# Sectors above this dimension are propagated by the sparse Chebyshev
# recurrence, smaller ones by dense eigh.  On disordered interacting flux
# rings at 50 times on [0, 5], one BLAS thread, best of 7 on a 2-core host,
# two rounds (dense against Chebyshev): 1.3-1.4 ms against 1.6 ms at
# dimension 56, 1.7 against 1.8 at 70, 2.0-2.1 against 1.7 at 78, 2.1
# against 1.8-1.9 at 84, 3.2 against 1.9 at 105, 3.7 against 2.0 at 120,
# 10-11 against 2.5-2.7 at 210.  The two break even between 70 and 78, so
# the sectors from there to 100 take the slower path; the value stays,
# because moving it changes the last bits of those sectors' trajectories.
DENSE_CROSSOVER = 100

# Miller's backward recurrence for J_k starts this many orders above the
# Chebyshev degree.  It leaves an error of about J_{start+1}(x) in each order;
# the degree's tail bound alone keeps that below the roundoff, and the margin
# keeps it so for any degree a caller asks for.
MILLER_MARGIN = 20

# _spectral_interval narrows Gershgorin's ends by this many power steps, each
# about one matvec (1.0-1.4 of them at dimension 924 to 48,620).  On a
# 12-site disordered ring at half filling (dimension 924), the degree at
# t = 5 is 113 at 0 steps, 101 at 2, 94 at 4, 91 at 6, 89 at 8, 88 at 10 and
# 87 at 15, and at t = 50 875, 750, 690, 660, 644, 635 and 623.  The
# benchmark's two rings at 50 times on [0, 5], and the flux ring back, took
# 25.8 ms at 0 steps, 23.4 at 4 and 6, 22.5 at 10 and 23.0 at 16, median of
# 15 on a 2-core host, one BLAS thread; at 50 times on [0, 50], 150, 118,
# 111, 108 and 109 ms.
INTERVAL_STEPS = 10

# The sparse propagator adds its recurrence vectors into the trajectory this
# many at a time, with one matrix product per block.  One at a time (rank-1
# updates), evolve_many on a 12-site ring at 50 times took 52 ms against 23.
CHEBYSHEV_BLOCK = 16

# _sector_entries runs the operator kernel on chunks of source keys of at
# most this many (terms x keys) cells, one key at least.  Smaller chunks pay
# a per-chunk cost on every term, larger ones hold more triplets at once.
# On proper-basis flux rings at half filling (dense V), one call, best of 3
# on a 2-core host, with its tracemalloc peak, at 2**16 / 2**18 / 2**20 cells:
# 10 sites (10,010 terms, 252 keys) 64 / 40 / 38 ms and 3.9 / 4.8 / 14.3 MB;
# 12 sites (20,880 terms, 924 keys) 0.74 / 0.34 / 0.28 s and 23-25 MB, most
# of it the 242,088 entries.  The 12-site benchmark rings (60 terms) take
# one chunk.
ASSEMBLY_CELLS = 2**18

TwoBodyKey = tuple[int, int, int, int]


@dataclass
class SecondQuantizedHamiltonian:
    """The single-particle matrix T + T' and a sparse Hermitian two-body tensor.

    ``external`` (T') is an init-only argument: it is checked like
    ``one_body`` and added into it once, so ``one_body`` holds T + T'.
    A NaN or infinite entry of T, T' or V, or of T + T', raises ValueError.
    """

    registry: ModeRegistry
    one_body: np.ndarray
    external: InitVar[np.ndarray | None] = None
    two_body: dict = field(default_factory=dict)

    def __post_init__(self, external: np.ndarray | None) -> None:
        m = len(self.registry)
        external = np.zeros((m, m)) if external is None else external
        one_body, external = (np.asarray(x, dtype=complex) for x in (self.one_body, external))
        for name, mat in (("one_body", one_body), ("external", external)):
            if mat.shape != (m, m):
                raise ValueError(f"{name} must be {m}x{m}")
            if not np.isfinite(mat).all():
                raise ValueError(f"{name} matrix has a non-finite entry")
            if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
                raise ValueError(f"{name} matrix is not Hermitian")
        with np.errstate(over="ignore"):
            self.one_body = one_body + external
        if not np.isfinite(self.one_body).all():
            raise ValueError("one_body + external overflows the float range")
        self.two_body = _complete_two_body(self.two_body, m)


def _complete_two_body(entries: Mapping, num_modes: int) -> dict:
    """Check each index by ``_mode_index`` and enforce <ij|V|lm> = conj(<lm|V|ij>)."""
    completed: dict[TwoBodyKey, complex] = {}
    for key, value in entries.items():
        if len(key) != 4:
            raise ValueError(f"two-body key {key} does not have four mode indices")
        key = tuple(_mode_index(num_modes, x) for x in key)
        value = complex(value)
        if not np.isfinite(value):
            raise ValueError(f"two-body entry at {key} is not finite: {value}")
        if value == 0:
            continue
        if key in completed and abs(completed[key] - value) > HERMITICITY_TOL:
            raise ValueError(f"conflicting two-body entries at {key}")
        completed[key] = value
    for (i, j, l, m), value in list(completed.items()):
        partner = (l, m, i, j)
        expected = value.conjugate()
        if partner in completed:
            if abs(completed[partner] - expected) > HERMITICITY_TOL:
                raise ValueError(
                    f"two-body entries at {(i, j, l, m)} and {partner} break Hermiticity"
                )
        else:
            completed[partner] = expected
    return completed


@dataclass
class SectorMatrix:
    """Dense Hamiltonian block on one total-number sector."""

    registry: ModeRegistry
    keys: np.ndarray
    matrix: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.keys)


def _terms(h: SecondQuantizedHamiltonian) -> list:
    """The term table of H: runs of ``fock_core._term_run``.

    One-body terms come first, nonzero entries of T row by row, a_j then
    a^dagger_i; then the two-body entries in dict order, a_l, a_m,
    a^dagger_j, a^dagger_i (operators in the order they act on a ket).
    The coefficient is the unit amplitude of a basis vector times t, or
    times 0.5 and v.
    """
    unit = 1.0 + 0.0j
    t = h.one_body
    rows, cols = np.nonzero(t)
    ijlm = np.array(list(h.two_body), dtype=np.intp).reshape(-1, 4)
    v = np.array(list(h.two_body.values()), dtype=complex)
    runs = [
        (unit * t[rows, cols], (cols, rows), (False, True)),
        (unit * 0.5 * v, ijlm.T[[2, 3, 1, 0]], (False, False, True, True)),
    ]
    return [_term_run(h.registry, *run) for run in runs if len(run[0])]


def _sector_entries(h: SecondQuantizedHamiltonian, sector: _Sector):
    """The one sector product: ``(keys, rows, cols, values)``, the distinct
    entries of H on the sector in row-major order, each 0.0 plus its terms
    in term order.  The int64 check comes first, then the size guard of
    ``_Sector.keys``.

    The kernel runs on chunks of source keys, every term on each chunk,
    with at most ``ASSEMBLY_CELLS`` (terms x keys) cells a chunk (one key
    at least).  Each target key's row is its rank in the sector
    (``_Sector.rank``), found from its digits with no search.  Entry
    (row, col) takes all its terms from the source key col, so no sum
    crosses a chunk: each chunk is summed by itself with ``_summed``, and
    the entries, not the triplets, are then sorted into row-major order.
    """
    registry = h.registry
    _check_int64_keys(registry)
    keys = sector.keys
    dim = len(keys)
    table = _terms(h)
    chunk = max(1, ASSEMBLY_CELLS // max(sum(len(run[0]) for run in table), 1))
    # empty first blocks, so that an empty sector gives no entries
    flats, sums = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=complex)]
    for start in range(0, dim, chunk):
        source, target, value = _operator_triplets(registry, keys[start : start + chunk], table)
        flat, summed, _ = _summed(sector.rank(target) * dim + (source + start), value)
        flats.append(flat)
        sums.append(summed)
    flat = np.concatenate(flats)
    order = np.argsort(flat, kind="stable")  # merges the chunks' ascending runs
    flat = flat[order]
    return keys, flat // dim, flat % dim, np.concatenate(sums)[order]


def hamiltonian_matrix(h: SecondQuantizedHamiltonian, total: int) -> SectorMatrix:
    """Dense matrix of H on the fixed-N sector; a negative total is an
    empty sector."""
    keys, *entries = _sector_entries(h, _Sector(h.registry, total))
    return SectorMatrix(h.registry, keys, _scattered(*entries, len(keys)))


def _scattered(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, dimension: int
) -> np.ndarray:
    """The dense (dimension x dimension) matrix of distinct entries."""
    matrix = np.zeros((dimension, dimension), dtype=complex)
    matrix[rows, cols] = values
    return matrix


def _canonicalize_cluster(block: np.ndarray) -> np.ndarray:
    """Rotate a degenerate eigenspace toward occupation-sparse vectors.

    Greedy on the block B of orthonormal columns, whose projector B B^dagger
    is never built: take the basis direction b of largest weight (squared
    row norm of B), normalise its projection B B[b]^dagger, deflate B by it.
    When the subspace is spanned by occupation vectors this returns exactly
    those vectors.
    """
    vectors = []
    for _ in range(block.shape[1]):
        b = int(np.argmax(np.sum(np.abs(block) ** 2, axis=1)))
        v = block @ block[b].conj()
        v /= np.linalg.norm(v)
        vectors.append(v)
        block = block - np.outer(v, v.conj() @ block)
    return np.column_stack(vectors)


def eigenstates(h: SecondQuantizedHamiltonian, total: int) -> list[tuple[float, ManyBodyState]]:
    """Eigenpairs of the sector matrix, energies ascending.

    Near-degenerate clusters (gap below 1e-10 times the spectral
    spread) are re-mixed toward occupation-sparse combinations so that
    a Hamiltonian diagonal in the registry basis yields occupation
    eigenvectors even inside degeneracies.  An empty sector has none.
    """
    sector = hamiltonian_matrix(h, total)
    if sector.dimension == 0:
        return []
    energies, vectors = np.linalg.eigh(sector.matrix)
    scale = max(1.0, float(energies[-1] - energies[0]))
    threshold = DEGENERACY_RTOL * scale

    gaps = np.flatnonzero(np.diff(energies) >= threshold) + 1
    for cluster in np.split(np.arange(len(energies)), gaps):
        if len(cluster) > 1:
            vectors[:, cluster] = _canonicalize_cluster(vectors[:, cluster])

    return [
        (float(energy), ManyBodyState._from_keys(h.registry, sector.keys, vector).normalize())
        for energy, vector in zip(energies, vectors.T)
    ]


def _spectral_interval(
    diagonal: np.ndarray, cols: np.ndarray, values: np.ndarray, width: int
) -> tuple[float, float]:
    """Center c and radius r with every eigenvalue of H in [c - r, c + r]:
    one-sided Collatz-Wielandt bounds, from the diagonal of H, the padded
    rows of its off-diagonal cells and w = ``width``, the longest row of H.

    Write H = D + E, with D the real diagonal and E the rest.  For a unit
    x, x*Hx <= |x|^T (D + |E|) |x|, and D + |E| + sI is entrywise
    nonnegative once s >= -min d, so for every positive x
    lambda_max(H) <= max_i ((D + |E|) x)_i / x_i (Horn & Johnson, *Matrix
    Analysis*, 2nd ed., 8.1); on -H, lambda_min(H) >= min_i ((D - |E|) x)_i / x_i.
    x = 1 gives Gershgorin's ends.  ``INTERVAL_STEPS`` power steps with
    +-D + |E| + sI, s one more than -min(+-d), move x toward that
    matrix's Perron vector, and the bound with it.  Every positive x gives
    a valid bound, so each end is the narrower of Gershgorin's and the last
    iterate's.  The two sides share one product: |E| is stored once, real
    (8 B a cell), and x has one row a side.  Each step scales x by its
    largest entry and lifts entries below 2**-300 to it, so x stays
    positive and in range; above a scale of 2**500 (below) a step could
    overflow and Gershgorin's ends stand alone.

    Rounding: each end is max_i (+-d_i + y_i / x_i), y = |E| x summed
    over the off-diagonal cells of a row, at most w of them, so it is off
    by at most (w + 2) 2**-53 (2 |end| + max|d|), to first order, plus
    w 2**-775 from products that underflow.  The radius is widened by the
    relative margin (w + 8) 2**-52 of the scale max|d| + 2 max(|low|, |high|),
    held at 2**-700 or more, which covers that twice over and the
    rounding of c and r.  w counts the diagonal too, so that the margin
    does not depend on how D is stored: a row with a diagonal entry sums
    at most w - 1 cells, which the margin bounds all the more.
    """
    diagonal = diagonal.real
    largest = float(np.abs(diagonal).max())
    magnitudes = np.abs(values)
    # the two sides, one row each: H, then -H, and their diagonals shifted by
    # one more than -min(+-d)
    signed = np.stack([diagonal, -diagonal])
    shifted = np.stack([diagonal + (1.0 - diagonal.min()), (1.0 + diagonal.max()) - diagonal])

    def product(x: np.ndarray) -> np.ndarray:
        gathered = np.take(x, cols, axis=1)
        return np.multiply(magnitudes, gathered, out=gathered).sum(axis=1)

    x = np.ones((2, len(diagonal)))
    image = product(x)
    best = (signed + image / x).max(axis=1)  # Gershgorin's
    if largest + 2 * np.abs(best).max() <= 2.0**500:
        for _ in range(INTERVAL_STEPS):
            x = shifted * x + image
            x /= x.max()
            np.maximum(x, 2.0**-300, out=x)
            image = product(x)
        best = np.minimum(best, (signed + image / x).max(axis=1))
    high, low = float(best[0]), -float(best[1])
    scale = max(largest + 2 * max(abs(low), abs(high)), 2.0**-700)
    return (low + high) / 2, (high - low) / 2 + (width + 8) * 2.0**-52 * scale


@dataclass(frozen=True)
class _SparseOperator:
    """A sector operator H = D + E: its diagonal apart, and its off-diagonal
    entries in a padded-row (ELLPACK) layout.

    ``diagonal`` is D, one complex entry a row, 0 where H has none.  Row r
    of E is ``values[:, r]`` at the columns ``cols[:, r]``, its elements
    in column order, padded to the longest off-diagonal row, the width,
    with column 0 and value 0.  The two (width, dimension) arrays take 24
    bytes a cell, against 32 bytes an element as (row, col, value)
    triplets.  Cells per element of H: 1.59 on a 12-site ring at half
    filling in real space (rows of 2 to 12 off-diagonal elements), 0.996
    in its proper basis (261 a row).  ``center`` and ``radius`` bound the
    spectrum, rounding included: every eigenvalue lies in
    [center - radius, center + radius] (``_spectral_interval``, one-sided
    Collatz-Wielandt bounds from D and the padded rows of E, never wider
    than Gershgorin's up to a margin of a few units in the last place), so
    that H~ = (H - center) / radius, the argument of the Chebyshev
    recurrence, has ||H~||_2 <= 1.
    """

    diagonal: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    center: float
    radius: float

    @classmethod
    def from_entries(
        cls, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, dimension: int
    ) -> "_SparseOperator":
        """Split distinct entries, given in row-major order, into the
        diagonal (``rows == cols``, whatever the value) and the padded
        off-diagonal rows.

        Each diagonal entry goes to one spare row past the padded ones, which
        is sliced off as the diagonal, and the entries after it in its row
        move up one cell, so the entry arrays are not copied.  The padded
        arrays are refused beyond guard**2 cells before they are allocated.
        """
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        lengths = np.diff(starts, append=len(rows))
        is_diagonal = rows == cols
        has_diagonal = np.zeros(dimension, dtype=bool)
        has_diagonal[rows[is_diagonal]] = True
        width = int((lengths - has_diagonal[rows[starts]]).max(initial=0))
        _check_elements(f"padded operator ({width} entries x {dimension} rows)", width * dimension)
        depth = np.arange(len(rows)) - np.repeat(starts, lengths)
        depth -= has_diagonal[rows] & (cols > rows)
        depth[is_diagonal] = width
        padded_cols = np.zeros((width + 1, dimension), dtype=np.intp)
        padded_values = np.zeros((width + 1, dimension), dtype=complex)
        padded_cols[depth, rows] = cols
        padded_values[depth, rows] = values
        diagonal = padded_values[width]
        padded_cols, padded_values = padded_cols[:width], padded_values[:width]
        longest = int(lengths.max(initial=0))
        interval = _spectral_interval(diagonal, padded_cols, padded_values, longest)
        return cls(diagonal, padded_cols, padded_values, *interval)

    def __matmul__(self, vector: np.ndarray) -> np.ndarray:
        """E vector, the off-diagonal part only: each row's products added
        to 0.0 in column order, the padding last, bit for bit as
        ``np.bincount`` over the off-diagonal triplets."""
        products = np.take(vector, self.cols)
        return np.multiply(self.values, products, out=products).sum(axis=0)


def _chebyshev_degree(x: float) -> int:
    """A degree K with 2 sum_{k>K} (x/2)^k / k! <= 2**-53, the least the
    bound below allows.

    |J_k(x)| <= (|x|/2)^k / k! and ||T_k(H~)||_2 <= 1, so this bounds the
    error of the Chebyshev expansion of exp(-i x H~) cut after T_K by the
    unit roundoff.  Above K = |x|/2 the terms fall faster than a geometric
    series of ratio |x|/(2(K+2)), whose sum bounds the tail; that bound
    decreases with K and is bisected.  Below it one term is at least 1.  A
    non-finite x (a time or a spectral radius that is NaN or infinite) is
    refused, and so is |x| >= 2**52, where the bound's arithmetic would
    round away (its degree would exceed any size guard anyway).
    """
    if not abs(x) < 2.0**52:
        raise ValueError(f"cannot propagate: ||H|| t is {x}, not below 2**52")
    half = abs(x) / 2
    if half == 0.0:
        return 0

    def bounded(degree: int) -> bool:
        log_tail = (
            math.log(2.0)
            + (degree + 1) * math.log(half)
            - math.lgamma(degree + 2)
            - math.log1p(-half / (degree + 2))
        )
        return log_tail <= -53 * math.log(2.0)

    low = math.floor(half)
    if bounded(low):
        return low
    high = 2 * low + 64
    while not bounded(high):
        low, high = high, 2 * high
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (low, middle) if bounded(middle) else (middle, high)
    return high


def _bessel_table(x: np.ndarray, degree: int) -> np.ndarray:
    """J_k(x) for each real x (rows) and k = 0..degree (columns).

    Miller's backward recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, from
    J_{n+1} = 0 and J_n = 1 at n = degree + MILLER_MARGIN, gives a multiple
    of J_0..J_n for every x at once, and J_0 + 2 sum_k J_2k = 1, summed
    pairwise, fixes it.  The factors 2k/x are one outer quotient, and the
    orders are built as contiguous rows, one per order, and transposed at
    the end.  An order grows by at most (max 2k/x + 1) times the larger
    of the two before it, so the orders are tested only every m steps, m
    the most with (max 2k/x + 2)^m <= 2**400, and one at least: an x
    whose last two orders pass 2**500 has all its orders scaled by
    2**-500, so none passes 2**900 and nothing overflows; orders that
    underflow are far below the roundoff.  Below |x| = 2**-300 a factor
    2k/x could overflow; there J_0 = 1, J_1 = x/2 and J_k = 0 beyond, to
    double precision, and the recurrence runs on 1 instead.  It runs on
    |x|, and J_k(-x) = (-1)^k J_k(x).
    """
    size = np.abs(x)
    tiny = size < 2.0**-300
    top = degree + MILLER_MARGIN
    divisors = size.copy()
    divisors[tiny] = 1.0
    factors = np.divide.outer(2.0 * np.arange(top + 1), divisors)
    every = max(1, int(400 / math.log2(factors[top].max(initial=0.0) + 2.0)))
    table = np.zeros((top + 2, len(x)))
    table[top] = 1.0
    for k in range(top, 0, -1):
        np.multiply(factors[k], table[k], out=table[k - 1])
        table[k - 1] -= table[k + 1]
        if k % every == 0:
            large = np.maximum(np.abs(table[k - 1]), np.abs(table[k])) > 2.0**500
            if large.any():
                table[:, large] *= 2.0**-500
    even = np.ascontiguousarray(table[0::2].T)  # J_0, 2 J_2, 2 J_4, ... of each x,
    even[:, 1:] *= 2  # summed pairwise along the rows
    table = table[: degree + 1] / even.sum(axis=1)
    table[:, tiny] = 0.0
    table[0, tiny] = 1.0
    table[1:2, tiny] = size[tiny] / 2
    table[1::2, x < 0] *= -1.0
    return table.T


def _exact_product(a: float, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p = a * b rounded, and its rounding error e, so that a b = p + e
    exactly: Dekker's product from Veltkamp's splits, exact while no part
    overflows or underflows (|a|, |b| and |a b| between 2**-900 and 2**900)."""
    product = a * b
    halves = []
    for x in (a, b):
        lifted = 134217729.0 * x  # 2**27 + 1
        high = lifted - (lifted - x)
        halves.append((high, x - high))
    (a_high, a_low), (b_high, b_low) = halves
    error = ((a_high * b_high - product) + a_high * b_low + a_low * b_high) + a_low * b_low
    return product, error


def _propagate_sparse(
    operator: _SparseOperator,
    psi: np.ndarray,
    times: Sequence[float],
    trajectory: np.ndarray,
) -> np.ndarray:
    """Add psi at each time, from one Chebyshev recurrence, into
    ``trajectory``, a (times x dimension) array or view with one row a
    time, and return it; started from zeros, it holds the states.

    With H~ = (H - center) / radius, ||H~||_2 <= 1 and (Jacobi-Anger)
    exp(-i H t) = exp(-i center t) sum_k (2 - delta_k0) (-i)^k J_k(radius t) T_k(H~)
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)).  The vectors
    v_k = T_k(H~) psi, from v_0 = psi, v_1 = H~ psi and
    v_{k+1} = 2 H~ v_k - v_{k-1}, do not depend on t, so one recurrence of
    ``_chebyshev_degree(radius max|t|)`` matvecs serves every time, of either
    sign.  Every ``CHEBYSHEV_BLOCK`` vectors are added into the given
    trajectory with one matrix product, so none of its own is allocated.
    The table of (times x (degree + 1)) coefficients is refused beyond
    guard**2 entries before it is allocated.

    Two choices keep the rounding down.  The products radius t and
    center t are carried with their rounding errors (``_exact_product``):
    the phase is exp(-i p)(1 - i e), and J_k(p + e) = J_k(p) + e J_k'(p),
    with J_k' = (J_{k-1} - J_{k+1}) / 2.  And H~ is applied as
    ``operator @ v``, the off-diagonal cells, plus (diagonal - center) v,
    so that the center is not taken off a product already rounded; the
    operator keeps its diagonal apart, so no copy of the cells is made.
    On the 11- and 12-site golden rings at 50 times on [0, 5], the worst
    distance of a state from a 60-digit propagation is 1.8e-15 and 1.4e-15
    with them, 3.5e-15 and 3.8e-15 without (2.2e-15 from Gershgorin's
    wider interval).
    """
    times = np.asarray(times, dtype=float)
    center, radius = operator.center, operator.radius
    degree = _chebyshev_degree(radius * float(np.max(np.abs(times), initial=0.0)))
    what = f"Chebyshev coefficients ({len(times)} times x {degree + 1} orders)"
    _check_elements(what, len(times) * (degree + 1))
    orders = np.arange(degree + 1)
    units = np.array([1, -1j, -1, 1j])[orders % 4] * (2 - (orders == 0))
    argument, argument_error = _exact_product(radius, times)
    bessel = _bessel_table(argument, degree)
    ahead = np.zeros_like(bessel)  # J_{k+1}, 0 past the degree
    ahead[:, :-1] = bessel[:, 1:]
    behind = np.concatenate([-ahead[:, :1], bessel[:, :-1]], axis=1)  # J_{k-1}; J_{-1} = -J_1
    bessel += argument_error[:, None] * (behind - ahead) / 2
    turn, turn_error = _exact_product(center, times)
    phases = np.exp(-1j * turn) * (1 - 1j * turn_error)
    coefficients = phases[:, None] * (units * bessel)

    shifted = operator.diagonal - center
    block = np.empty((CHEBYSHEV_BLOCK, len(psi)), dtype=complex)
    previous, current = psi, psi
    for k in range(degree + 1):
        if k > 0:
            image = (operator @ current + shifted * current) / radius
            previous, current = current, image if k == 1 else 2 * image - previous
        row = k % CHEBYSHEV_BLOCK
        block[row] = current
        if row == CHEBYSHEV_BLOCK - 1 or k == degree:
            trajectory += coefficients[:, k - row : k + 1] @ block[: row + 1]
    return trajectory


def _sector_vector(sector: _Sector, present: np.ndarray, values) -> np.ndarray:
    """The amplitudes ``values`` at the keys ``present``, laid out on the
    sector's keys by their rank."""
    psi = np.zeros(sector.dimension, dtype=complex)
    psi[sector.rank(present)] = values
    return psi


def evolve_many(
    state: ManyBodyState, h: SecondQuantizedHamiltonian, times: Sequence[float]
) -> list[ManyBodyState]:
    """exp(-i H t) |state> for each t, sector by sector.

    Each sector's entries come from one sector product.  A sector of
    dimension up to ``DENSE_CROSSOVER`` scatters them into a dense matrix
    and is diagonalised, and each time rotates the phases of its
    eigencoefficients.  A larger sector stays sparse: its entries are
    split into the operator's diagonal and padded rows and then dropped,
    and one Chebyshev recurrence, of a degree set by the largest |t| and a
    bound on the spectrum, gives the state at every time
    (``_propagate_sparse``), so that no dense matrix is built.  Times may
    come in any order and with either sign.

    The refusals come in this order: keys beyond int64, then more than
    guard**2 amplitudes, which needs only the number of times, so a
    refused call converts none of them, then a NaN or infinite time, and
    then every sector's guard, all before either path is taken.  The
    trajectory is one (times x keys) array, the sectors' keys side by
    side.  It is allocated once, after every refusal, so a refused call
    allocates none of it.  Each sector writes its own columns in
    place, and its operator is dropped once they are written;
    ``ManyBodyState._from_rows`` then takes the array over, with no copy.
    """
    if state.registry != h.registry:
        raise RegistryMismatchError("state and Hamiltonian use different registries")
    registry = state.registry
    _check_int64_keys(registry)
    numbers = _occupations(registry, state.keys).sum(axis=1)
    sectors = [_Sector(registry, total) for total in sorted(set(numbers.tolist()))]
    _check_trajectory([sector.dimension for sector in sectors], len(times))
    times = [float(t) for t in times]
    for t in times:
        if not math.isfinite(t):
            raise ValueError(f"cannot propagate to the time {t}, which is not finite")
    # every sector's keys, and so its guard, before the trajectory is allocated;
    # an empty first block, so that a zero state evolves to zero states
    keys = np.concatenate([np.zeros(0, dtype=np.int64), *(sector.keys for sector in sectors)])
    rows = np.zeros((len(times), len(keys)), dtype=complex)
    end = 0
    for sector in sectors:
        start, end = end, end + sector.dimension
        present = numbers == sector.total
        _, *entries = _sector_entries(h, sector)
        psi = _sector_vector(sector, state.keys[present], state.values[present])
        if sector.dimension > DENSE_CROSSOVER:
            operator = _SparseOperator.from_entries(*entries, sector.dimension)
            del entries  # 32 B an entry, which the recurrence does not read
            _propagate_sparse(operator, psi, times, rows[:, start:end])
            del operator
        else:
            energies, vectors = np.linalg.eigh(_scattered(*entries, sector.dimension))
            coefficients = vectors.conj().T @ psi
            for row, t in zip(rows, times):
                row[start:end] = vectors @ (np.exp(-1j * energies * t) * coefficients)
    return ManyBodyState._from_rows(registry, keys, rows, state.truncated)


def _off_diagonal_max(matrix: np.ndarray) -> float:
    """Largest modulus off the diagonal of a square matrix, 0.0 if it is empty."""
    return float(np.max(np.abs(matrix - np.diag(np.diag(matrix))), initial=0.0))


@dataclass
class ProperBasisReport:
    """Whether the one-body part is diagonal, and the fixing rotation if not."""

    proper: bool
    off_diagonal: float
    rotation: np.ndarray | None = None
    transformed: SecondQuantizedHamiltonian | None = None


def check_proper_basis(h: SecondQuantizedHamiltonian) -> ProperBasisReport:
    """Diagonalize one_body and transform the two-body tensor.

    The rotation U satisfies T = U diag(e) U^dagger; new-basis operators
    are a^dagger_mu = sum_i U[i, mu] a^dagger_i, and the transformed
    tensor is V'_abcd = sum conj(U[i,a]) conj(U[j,b]) V_ijlm U[l,c] U[m,d].
    The dense m**4 tensor is refused beyond guard**2 entries before it is
    allocated.
    """
    off_max = _off_diagonal_max(h.one_body)
    if off_max <= PROPER_TOL:
        return ProperBasisReport(True, off_max)

    energies, rotation = np.linalg.eigh(h.one_body)
    m = len(h.registry)
    _check_elements(f"dense two-body tensor ({m}**4 entries)", m**4)
    dense = np.zeros((m, m, m, m), dtype=complex)
    for (i, j, l, mm), v in h.two_body.items():
        dense[i, j, l, mm] = v
    transformed = np.einsum(
        "ia,jb,ijlm,lc,md->abcd",
        rotation.conj(),
        rotation.conj(),
        dense,
        rotation,
        rotation,
        optimize=True,
    )
    # the rotation keeps <ab|V|cd> = conj(<cd|V|ab>) only to rounding, which the
    # completion's absolute check refuses at large entries; this mean holds it exactly
    transformed = (transformed + transformed.transpose(2, 3, 0, 1).conj()) / 2
    sparse: dict[TwoBodyKey, complex] = {}
    for idx in np.argwhere(np.abs(transformed) > TENSOR_PRUNE):
        key = tuple(int(x) for x in idx)
        sparse[key] = complex(transformed[key])
    new_h = SecondQuantizedHamiltonian(
        h.registry, np.diag(energies.astype(complex)), None, sparse
    )
    return ProperBasisReport(False, off_max, rotation, new_h)


# ---------------------------------------------------------------------------
# JSON interface


def _matrix_from_json(rows, m: int, name: str) -> np.ndarray:
    rows = _json_expect(rows, "array", name)
    rows = [_json_expect(row, "array", f"{name} row {i}") for i, row in enumerate(rows)]
    if len(rows) != m or any(len(row) != m for row in rows):
        raise ValueError(f"{name} must be an array of {m} rows of {m} entries")
    entries = [
        [_json_complex(value, f"{name} entry ({i}, {j})") for j, value in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    return np.array(entries, dtype=complex).reshape(m, m)


def load_hamiltonian(source: str | Path | Mapping) -> SecondQuantizedHamiltonian:
    """Build a Hamiltonian (and its registry) from the JSON description.

    Schema: {"modes": [{"species", "momentum", "spin", "extra", "cutoff"}],
    "one_body": [[...]], "external": [[...]],
    "two_body": [{"ijlm": [i,j,l,m], "value": [re,im]}]}.
    Matrix entries and values are finite numbers or [re, im] pairs;
    "external" (added into "one_body") and "two_body" may be omitted.  A
    wrongly shaped or non-finite field, or a repeated "ijlm", raises
    ValueError.
    """
    payload = _json_payload(source, "Hamiltonian")
    labels = []
    cutoffs: dict[int, int] = {}
    for pos, spec in enumerate(_json_expect(payload["modes"], "array", "modes")):
        spec = _json_expect(spec, "object", f"mode {pos}")
        species = Species(spec.get("species", "generic"))
        momentum = _json_ints(spec.get("momentum", []), f"mode {pos} momentum")
        spin = Spin(spec.get("spin", "none"))
        extra = spec.get("extra")
        extra = None if extra is None else _json_int(extra, f"mode {pos} extra")
        labels.append(ModeLabel(species, momentum, spin, extra))
        if species is Species.BOSON:
            cutoffs[pos] = _json_int(spec.get("cutoff", 1), f"mode {pos} cutoff")
    registry = registry_create(labels, cutoffs or None)
    m = len(registry)
    one_body = _matrix_from_json(payload["one_body"], m, "one_body")
    external = payload.get("external")
    if external is not None:
        external = _matrix_from_json(external, m, "external")
    two_body = {}
    for n, entry in enumerate(_json_expect(payload.get("two_body", []), "array", "two_body")):
        entry = _json_expect(entry, "object", f"two_body entry {n}")
        value = _json_complex(entry["value"], f"two_body entry {n} value")
        ijlm = _json_ints(entry["ijlm"], f"two_body entry {n} ijlm")
        if ijlm in two_body:
            raise ValueError(f"two_body entry {n} repeats ijlm {list(ijlm)}")
        two_body[ijlm] = value
    return SecondQuantizedHamiltonian(registry, one_body, external, two_body)
