"""Reduced density matrices over mode subsets and von Neumann entropy.

A pure state's amplitudes, split by subset occupation pattern p and
environment key e, form a sparse matrix M[p, e] = amp(p join e), where
"join" recombines subset and environment occupations back into
registry order.  One vectorised kernel builds M from the key and
amplitude arrays a state stores: subset occupations are read from the
keys as ``(key // stride) % radix``, and one sort per side
(``fock_core._grouped``) groups the terms by pattern and by environment.

The entropy comes from the Schmidt coefficients of M, as the spectrum
of the Gram matrix of its smaller side (M M^dagger over the present
patterns, or M^T M^* over the present environments).  The Gram matrix
is summed over dense blocks of columns whose size follows the number of
terms, so the patterns x environments matrix is never allocated.  Its
dimension, at most the number of terms, must not exceed ``size_guard()``;
the guard and its check live in ``fock_core``.

When every environment key carries a single subset particle number n_A,
as in every state of fixed particle number, M and its Gram matrix are
block-diagonal in n_A (the blocks of symmetry-resolved entanglement;
Goldstein & Sela, PRL 120, 200602 (2018)).  This is checked on the
terms, never assumed.  A Gram matrix larger than ``BLOCK_CROSSOVER``
that passes the check has its spectrum taken one number block at a
time: blocks of one size share one batched ``eigvalsh`` and a 1 x 1
block is its own eigenvalue.  Smaller Gram matrices, and those of states
that mix numbers in one environment (the condensate mode of an
unprojected Bogoliubov state, a random state of indefinite number), take
one ``eigvalsh``.  The guard still applies to the full Gram side, not to
the largest block.

The reduced density matrix is the pattern-side Gram matrix laid out on
every subset pattern, ordered lexicographically (lowest subset mode most
significant); its (p', p) element is

    sum over environment keys e of  conj(amp(p' join e)) * amp(p join e).

It is d x d with d = prod(radix) over the subset, so it is only built on
request, and a d above ``size_guard()`` raises ``SizeGuardError``.

The trace is unsigned: no fermionic reordering sign is applied when
subset and environment modes are interleaved.  Bra and ket share the
environment, so the signs cancel for a subset that precedes every
environment mode and in the number-sector-diagonal blocks of the
paper's states, but for some non-contiguous subsets of fermionic states
(a random two-particle state on four modes, subset (0, 2)) the matrix
and its entropy are wrong.  The sign rule a signed trace needs is
``fock_core._parity_below``.

Entropy is the von Neumann entropy with natural logarithm,
S = -sum(lambda * ln(lambda)), with 0 ln 0 = 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NormalizationError, NumericalInvariantError
from .fock_core import (
    ManyBodyState,
    OccupationVector,
    _check_guard,
    _grouped,
)

NORM_GATE = 1e-9
EIGENVALUE_FLOOR = -1e-9
# Smallest dense block, in cells, that the Gram accumulation works on.
BLOCK_CELLS = 4096

# A Gram matrix of up to this side takes one dense eigvalsh; a larger one
# whose rows each carry one subset particle number takes the number-block
# spectrum.  Spectrum step alone (one eigvalsh against the number check and
# blocks) on random fixed-N states, one BLAS thread, best of 9: 8 against
# 30 us at side 8, 18 against 48 at 16, 59-90 against 61-95 at 32, 101
# against 102 at 33, 146 against 120 at 43, 257 against 115 at 64; on
# diagonal Gram matrices (one boson mode), 11 against 34 at 32, 66 against 40
# at 40.  The two break even near 32.
BLOCK_CROSSOVER = 32

ModeSubset = tuple[int, ...]


def normalize_subset(size: int, subset: Sequence[int]) -> ModeSubset:
    """Sorted, validated tuple of distinct mode indices."""
    indices = tuple(int(i) for i in subset)
    if not indices:
        raise ValueError("subset must contain at least one mode")
    if len(set(indices)) != len(indices):
        raise ValueError(f"subset has repeated indices: {indices}")
    for i in indices:
        if not 0 <= i < size:
            raise ValueError(f"mode index {i} outside registry of size {size}")
    return tuple(sorted(indices))


@dataclass
class ReducedDensityMatrix:
    """Density matrix of a mode subset in the pattern basis.

    ``patterns[i]`` is the subset occupation pattern labelling row and
    column i; the ordering is lexicographic with the lowest subset mode
    most significant.
    """

    subset: ModeSubset
    patterns: tuple[OccupationVector, ...]
    matrix: np.ndarray

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def validate(self, tol: float = 1e-12) -> None:
        """Check trace one, Hermiticity and eigenvalue floor."""
        tr = float(np.trace(self.matrix).real)
        if abs(tr - 1.0) > tol:
            raise NumericalInvariantError(f"trace {tr} deviates from 1 beyond {tol}")
        if np.max(np.abs(self.matrix - self.matrix.conj().T)) > tol:
            raise NumericalInvariantError("matrix is not Hermitian")
        smallest = float(np.linalg.eigvalsh(self.matrix)[0])
        if smallest < -tol:
            raise NumericalInvariantError(f"negative eigenvalue {smallest}")


def _amplitude_matrix(state: ManyBodyState, sub: ModeSubset):
    """Sparse amplitude matrix M[pattern, environment], scaled to unit norm.

    Returns ``(amplitudes, rows, cols, patterns, n_envs, number)``:
    M[rows, cols] = amplitudes, ``patterns`` holds the present subset
    patterns as lexicographic indices in ascending order (rows index into
    it), cols index the ``n_envs`` present environment keys in ascending
    order, and ``number`` is each term's subset particle number.
    """
    registry, keys = state.registry, state.keys
    n = math.sqrt(float(np.vdot(state.values, state.values).real))
    if abs(n - 1.0) > NORM_GATE:
        raise NormalizationError(f"state norm {n} deviates from 1 beyond {NORM_GATE}")
    amplitudes = state.values / n

    pattern = number = 0
    environment = keys
    for i in sub:
        stride, radix = registry._strides[i], registry.radix(i)
        occupation = keys // stride % radix
        pattern = pattern * radix + occupation
        number = number + occupation
        environment = environment - occupation * stride
    patterns, rows = _grouped(pattern)
    envs, cols = _grouped(environment)
    return amplitudes, rows, cols, patterns, len(envs), np.asarray(number, dtype=np.intp)


def _gram(
    amplitudes: np.ndarray, rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int
) -> np.ndarray:
    """G = M M^dagger for the n_rows x n_cols matrix with M[rows, cols] = amplitudes.

    M is made dense one block of columns at a time.  A block holds at most
    max(terms, n_rows**2, BLOCK_CELLS) cells, so memory stays linear in the
    number of terms plus the size of G itself.
    """
    width = max(len(amplitudes), n_rows * n_rows, BLOCK_CELLS) // n_rows
    block_of = cols // width
    gram = np.zeros((n_rows, n_rows), dtype=complex)
    for b, start in enumerate(range(0, n_cols, width)):
        take = block_of == b
        block = np.zeros((n_rows, min(width, n_cols - start)), dtype=complex)
        block[rows[take], cols[take] - start] = amplitudes[take]
        gram += block @ block.conj().T
    return gram


def _number_of(index: np.ndarray, size: int, number: np.ndarray) -> np.ndarray | None:
    """Subset particle number of each of ``size`` rows, where ``index``
    gives each term's row, or None when some row holds terms of two numbers."""
    label = np.empty(size, dtype=number.dtype)
    label[index] = number
    return label if np.array_equal(label[index], number) else None


def _block_spectrum(gram: np.ndarray, label: np.ndarray) -> np.ndarray:
    """Ascending spectrum of a Gram matrix that is block-diagonal in ``label``.

    Blocks of one size share one batched ``eigvalsh``; a 1 x 1 block is
    its own eigenvalue.
    """
    order = np.argsort(label, kind="stable")
    ends = np.cumsum(np.bincount(label)).tolist()
    by_size: dict[int, list[np.ndarray]] = {}
    for start, end in zip([0] + ends, ends):
        if end > start:
            by_size.setdefault(end - start, []).append(order[start:end])
    spectrum = []
    for size, members in by_size.items():
        index = np.array(members)
        if size == 1:
            spectrum.append(gram[index[:, 0], index[:, 0]].real)
        else:
            blocks = gram[index[:, :, None], index[:, None, :]]
            spectrum.append(np.linalg.eigvalsh(blocks).ravel())
    return np.sort(np.concatenate(spectrum))


def _entropy(eigenvalues: np.ndarray) -> float:
    """-sum(lambda ln lambda) over an ascending spectrum, with 0 ln 0 = 0."""
    if float(eigenvalues[0]) < EIGENVALUE_FLOOR:
        raise NumericalInvariantError(
            f"eigenvalue {float(eigenvalues[0])} below floor {EIGENVALUE_FLOOR}"
        )
    lam = np.minimum(eigenvalues[eigenvalues > 0.0], 1.0)
    return -float(np.dot(lam, np.log(lam)))


def reduced_density_matrix(state: ManyBodyState, subset: Sequence[int]) -> ReducedDensityMatrix:
    """Trace out everything except ``subset`` from a normalized pure state.

    Raises SizeGuardError when the subset dimension exceeds ``size_guard()``.
    """
    registry = state.registry
    sub = normalize_subset(len(registry), subset)
    dim = math.prod(registry.radix(i) for i in sub)
    _check_guard("reduced density matrix", dim)

    amplitudes, rows, cols, patterns, n_envs, _ = _amplitude_matrix(state, sub)
    gram = _gram(amplitudes, rows, cols, len(patterns), n_envs)
    present = patterns.astype(np.intp)
    matrix = np.zeros((dim, dim), dtype=complex)
    matrix[np.ix_(present, present)] = gram.conj()
    ranges = [range(registry.radix(i)) for i in sub]
    return ReducedDensityMatrix(sub, tuple(itertools.product(*ranges)), matrix)


def von_neumann_entropy(rdm: ReducedDensityMatrix) -> float:
    """-sum(lambda ln lambda) over the spectrum, natural log."""
    return _entropy(np.linalg.eigvalsh(rdm.matrix))


def mode_entanglement(state: ManyBodyState, subset: Sequence[int]) -> float:
    """Entanglement entropy between ``subset`` and the remaining modes.

    Taken from the Gram matrix of the smaller side of the amplitude
    matrix; raises SizeGuardError when that side exceeds ``size_guard()``.
    Above ``BLOCK_CROSSOVER`` rows, a Gram matrix whose environments each
    carry one subset particle number is diagonalised one number block at
    a time; any other takes one dense ``eigvalsh``.
    """
    sub = normalize_subset(len(state.registry), subset)
    amplitudes, rows, cols, patterns, n_envs, number = _amplitude_matrix(state, sub)
    n_rows, n_cols = len(patterns), n_envs
    if n_rows > n_cols:
        rows, cols, n_rows, n_cols = cols, rows, n_cols, n_rows
    _check_guard("Gram matrix", n_rows)
    gram = _gram(amplitudes, rows, cols, n_rows, n_cols)
    if n_rows > BLOCK_CROSSOVER:
        label = _number_of(rows, n_rows, number)
        if label is not None and _number_of(cols, n_cols, number) is not None:
            return _entropy(_block_spectrum(gram, label))
    return _entropy(np.linalg.eigvalsh(gram))


def diagonal_distribution(rdm: ReducedDensityMatrix) -> np.ndarray:
    """Real diagonal of the matrix, in pattern order."""
    return np.real(np.diag(rdm.matrix)).copy()
