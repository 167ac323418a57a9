"""Reduced density matrices over mode subsets and von Neumann entropy.

A pure state's amplitudes, split by subset occupation pattern p and
environment key e, form a sparse matrix M[p, e] = amp(p join e), where
"join" recombines subset and environment occupations back into
registry order.  ``subset_entropies`` is the one entropy kernel, and
``mode_entanglement`` is its call on one subset.  One vectorised split
(``_split``) places every term of a key array in M for many subsets at
once: patterns, subset particle numbers and environment keys are built
as (subsets x terms) arrays in the key type, each subset padded to the
longest with modes of radix 1, from ``(key // stride) % radix``; one
row-wise sort per side (``fock_core._row_groups``) groups every
subset's terms by pattern and by environment.  A split holds at most
max(terms, ``SUBSET_CELLS``) cells per array, so a state of 2**18 terms
or more goes one subset at a time and its memory does not grow with the
number of subsets.  ``reduced_density_matrix`` takes its split from the
same kernel.

The entropy comes from the Schmidt coefficients of M, as the spectrum
of the Gram matrix of its smaller side (M M^dagger over the present
patterns, or M^T M^* over the present environments).  Its dimension, at
most the number of terms, must not exceed ``size_guard()``; the guard
and its check live in ``fock_core``, and the guard applies to the full
Gram side of every subset on every call.  When every environment key
carries a single subset particle number n_A, as in every state of fixed
particle number, M and its Gram matrix are block-diagonal in n_A (the
blocks of symmetry-resolved entanglement; Goldstein & Sela, PRL 120,
200602 (2018)).  This is checked on the terms, never assumed.  Above
``BLOCK_CROSSOVER`` Gram rows such a Gram matrix is formed one number
block at a time, and a 1 x 1 block is the compensated sum of its row's
|a|^2.  Any other Gram matrix, mixed numbers included, is one block.

One product, ``_grams``, forms every Gram matrix: for each chunk of
columns it scatters the terms at flat positions of a zero (count x size
x width) buffer, a stack of count matrices, and adds the buffer's
batched product to the stack's Gram matrices.  A stack holds the number
blocks of one size, placed by their ``_Blocks`` layout, or the full Gram
matrices of one shape (``_full_grams``).  Chunk widths follow the number
of terms, so memory stays linear in the terms plus the Gram matrices and
the patterns x environments matrix is never allocated.  One batched
``eigvalsh`` then diagonalises a stack; a 1 x 1 Gram matrix skips it, as
LAPACK's ``zheevd`` returns the real part of its one entry.

The key work depends only on the registry, the keys and the subset, and
every state of a trajectory has the same keys.  A small memo keeps the
number-block layouts (``_Blocks``) of the last few subsets that take the
block path, and nothing else: a subset that mixes numbers is never kept.
A layout is kept as built, beside the memo's own copy of the keys, for
keys of either type, and is reused when the registry is the same object
and the keys are equal to the memo's copy.  The memo is looked up before
the split, so a subset whose layout is kept does no key work; a lookup
with other keys drops the stale layout before its successor is built.  A
state of at most ``BLOCK_CROSSOVER`` terms, whose Gram side can never
take the block path, does not look the memo up at all, so the one-term
start of a trajectory leaves the layouts of its later states in place.
Every subset is validated and the norm gate passed once per call, before
any work; the guard and the crossover are checked for every subset, hit
or miss.

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
from typing import NamedTuple, Sequence

import numpy as np

from .errors import NormalizationError, NumericalInvariantError
from .fock_core import (
    ManyBodyState,
    ModeRegistry,
    OccupationVector,
    _check_guard,
    _mode_index,
    _refuse_above,
    _row_groups,
    size_guard,
)

NORM_GATE = 1e-9
EIGENVALUE_FLOOR = -1e-9
# Smallest dense block, in cells, that a Gram product works on.
BLOCK_CELLS = 4096

# A Gram matrix of up to this side is one block: the full Gram matrix and
# one dense eigvalsh.  A larger one whose rows each carry one subset
# particle number is formed and diagonalised one number block at a time,
# and the memo keeps its layout; one that mixes numbers is one block too.
# Whole call with a kept layout on random fixed-N states, one BLAS thread,
# best of 200: 41-49 against 47-67 us at side 16, 89-116 against 63-89 at
# 32, 331-337 against 122 at 64.  The blocks break even below 32, but a lower crossover would change
# the last bits of every Gram matrix of side 17 to 32, the 11-site golden
# ring's among them.
BLOCK_CROSSOVER = 32

# The memo keeps the layouts of at most this many subsets, holding at most
# this many terms together (24 bytes each with int64 keys: key, ``take`` and
# ``positions``); a layout of more terms is not kept.
MEMO_ENTRIES = 8
MEMO_TERMS = 1 << 19

# A split holds at most max(terms, SUBSET_CELLS) (subsets x terms) cells per
# array, so a state of as many terms or more goes one subset at a time; a
# stack of n x n Gram matrices of n x m amplitude matrices holds at most
# SUBSET_CELLS // (n * (n + m)) of them, or one.
SUBSET_CELLS = 1 << 18

ModeSubset = tuple[int, ...]


def normalize_subset(size: int, subset: Sequence[int]) -> ModeSubset:
    """Sorted tuple of distinct mode indices, each checked by ``_mode_index``."""
    indices = tuple(_mode_index(size, i) for i in subset)
    if not indices:
        raise ValueError("subset must contain at least one mode")
    if len(set(indices)) != len(indices):
        raise ValueError(f"subset has repeated indices: {indices}")
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


def _norm(state: ManyBodyState) -> float:
    """The state's norm, behind the norm gate."""
    n = math.sqrt(float(np.vdot(state.values, state.values).real))
    if abs(n - 1.0) > NORM_GATE:
        raise NormalizationError(f"state norm {n} deviates from 1 beyond {NORM_GATE}")
    return n


def _split(registry: ModeRegistry, keys: np.ndarray, subs: list[ModeSubset]) -> tuple:
    """Place each term of ``keys`` in the amplitude matrix of every subset
    of ``subs`` at once, on (subsets x terms) arrays in the key type.

    Returns (rows, cols, n_rows, n_cols, number, pattern): term t sits at
    M_j[rows[j, t], cols[j, t]] of subset j's matrix, whose ``n_rows[j]``
    present patterns and ``n_cols[j]`` present environments are indexed in
    ascending order; ``number[j, t]`` is the term's subset particle number
    and ``pattern[j, t]`` its subset pattern, as a lexicographic index.
    Subset occupations are read from the keys as ``(key // stride) %
    radix``.  A subset shorter than the longest is padded with modes of
    stride 1 and radix 1, whose occupation is always 0 and changes no
    pattern, number or environment.  One row-wise sort per side
    (``fock_core._row_groups``) groups every subset's terms by pattern and
    by environment.
    """
    longest = max(map(len, subs))
    modes = [
        [(registry._strides[i], registry.cutoffs[i] + 1) for i in sub]
        + [(1, 1)] * (longest - len(sub))
        for sub in subs
    ]
    shape = (len(subs), len(keys))
    pattern = np.zeros(shape, dtype=keys.dtype)
    number = np.zeros(shape, dtype=keys.dtype)
    environment = np.repeat(keys[None], len(subs), axis=0)
    strides, radices = np.array(modes, dtype=keys.dtype).T[..., None]
    for stride, radix in zip(strides, radices):
        occupation = keys // stride
        occupation %= radix
        pattern *= radix
        pattern += occupation
        number += occupation
        occupation *= stride
        environment -= occupation
    del occupation
    rows, n_rows = _row_groups(pattern)
    cols, n_cols = _row_groups(environment)
    return rows, cols, n_rows, n_cols, number.astype(np.intp, copy=False), pattern


def _grams(amplitudes: np.ndarray, positions: np.ndarray, size: int, chunks) -> np.ndarray:
    """Stacked size x size Gram matrices B B^dagger, summed over chunks.

    Chunk (part, count, width) scatters ``amplitudes[part]`` at the flat
    ``positions[part]`` of a zero (count x size x width) buffer B, and its
    batched product adds to the first ``count`` Gram matrices; the first
    chunk's product, which spans them all, starts the sum.  Each Gram
    matrix so rounds as one formed alone does.
    """
    for i, (part, count, width) in enumerate(chunks):
        buffer = np.zeros((count, size, width), dtype=complex)
        buffer.reshape(-1)[positions[part]] = amplitudes[part]
        product = buffer @ buffer.conj().transpose(0, 2, 1)
        if i:
            gram[:count] += product
        else:
            gram = product
    return gram


def _full_grams(
    amplitudes: np.ndarray, rows: np.ndarray, cols: np.ndarray, n_rows: int, n_cols: int
) -> np.ndarray:
    """The stacked G_j = M_j M_j^dagger of the n_rows x n_cols matrices
    with M_j[rows[j], cols[j]] = amplitudes, by ``_grams``.

    A chunk holds at most max(terms, n_rows**2, BLOCK_CELLS) cells of each
    matrix and is exactly as wide as the columns it holds, so memory stays
    linear in the number of terms plus the size of G itself.  Matrix j's
    term at (row, col) of a chunk of width w sits at the flat position
    (j * n_rows + row) * w + col.  With one chunk, the (matrices x terms)
    positions take the amplitudes by broadcasting.
    """
    count, terms = rows.shape
    width = max(terms, n_rows * n_rows, BLOCK_CELLS) // n_rows
    first = np.arange(0, count * n_rows, n_rows)[:, None]
    if n_cols <= width:
        positions = (rows + first) * n_cols + cols
        return _grams(amplitudes, positions, n_rows, [(slice(None), count, n_cols)])
    chunk, positions = np.divmod(cols, width)
    widths = np.minimum(width, n_cols - np.arange(0, n_cols, width))
    positions += (rows + first) * widths[chunk]
    order = chunk.argsort(axis=None, kind="stable")
    ends = np.bincount(chunk.ravel(), minlength=len(widths)).cumsum().tolist()
    chunks = [(slice(s, e), count, w) for s, e, w in zip([0, *ends], ends, widths.tolist())]
    return _grams(amplitudes[order % terms], positions.ravel()[order], n_rows, chunks)


def _number_of(index: np.ndarray, size: int, number: np.ndarray) -> np.ndarray | None:
    """Subset particle number of each of ``size`` rows, where ``index``
    gives each term's row, or None when some row holds terms of two numbers."""
    label = np.empty(size, dtype=number.dtype)
    label[index] = number
    return label if (label[index] == number).all() else None


def _ranks(label: np.ndarray) -> np.ndarray:
    """Rank of each entry among the entries of its label, in index order."""
    order = label.argsort(kind="stable")
    counts = np.bincount(label)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(label))
    rank -= (counts.cumsum() - counts)[label]
    return rank


class _Blocks(NamedTuple):
    """Number-block layout of the terms, ordered run by run in ``take``.

    The first ``singles`` terms are the 1 x 1 blocks, one run each, of
    ``counts`` terms from ``starts``.  The others are in ``groups``: each
    (size, width, chunks) holds the blocks of one size, widest first.
    Its chunk (start, end, count) fills a (count x size x width) buffer
    with the terms ``take[singles:][start:end]`` at the flat
    ``positions[start:end]``: the columns [c * width, (c + 1) * width) of
    the first ``count`` blocks, the ones that reach that far.
    """

    take: np.ndarray
    positions: np.ndarray
    singles: int
    starts: np.ndarray
    counts: np.ndarray
    groups: list[tuple[int, int, list[tuple[int, int, int]]]]


def _number_blocks(rows, cols, n_rows, n_cols, number) -> _Blocks | None:
    """Layout of the n_A blocks of M[rows, cols], or None when a row or a
    column holds terms of two subset particle numbers."""
    label = _number_of(rows, n_rows, number)
    col_label = _number_of(cols, n_cols, number)
    if label is None or col_label is None:
        return None
    size = np.bincount(label)
    top = len(size)
    width, terms = (np.bincount(x, minlength=top) for x in (col_label, number))
    # blocks by size, widest first, ties in number order; a 1 x 1 block is one run,
    # and a larger block n has its first run, chunk width and first cell in its size
    absent, ones = np.bincount(size, minlength=2)[:2].tolist()
    order = np.lexsort((-width, size))[absent:]
    first, base, chunk_width = np.zeros(top, np.intp), np.zeros(top, np.intp), width.copy()
    first[order[:ones]] = np.arange(ones)
    runs, groups = ones, []
    for s in sorted(set(size.tolist()) - {0, 1}):
        members = order[size[order] == s]
        widths = width[members]
        count, extent = len(members), int(widths[0])
        cells = max(int(terms[members].sum()), count * s * s, BLOCK_CELLS)
        w = min(cells // (count * s), extent)
        first[members], chunk_width[members], base[members] = runs, w, np.arange(0, count * s, s)
        reach = [int(np.count_nonzero(widths > c)) for c in range(0, extent, w)]
        groups.append((s, w, runs, reach))
        runs += len(reach)
    # with no group every term is in a 1 x 1 block, and no position is read
    run = positions = first[number]
    if groups:
        # ranks among the rows, then among the columns, of each one's block
        rank = _ranks(np.concatenate((label, col_label + top)))
        width_of = chunk_width[number]
        chunk, offset = np.divmod(rank[n_rows:][cols], width_of)
        positions = (base[number] + rank[rows]) * width_of + offset
        run += chunk
    take = run.argsort(kind="stable")
    bounds = [0, *np.bincount(run, minlength=runs).cumsum().tolist()]
    singles = bounds[ones]
    groups = [
        (s, w, [(bounds[r] - singles, bounds[r + 1] - singles, k) for r, k in enumerate(reach, r0)])
        for s, w, r0, reach in groups
    ]
    starts, counts = np.array(bounds[:ones], dtype=np.intp), np.diff(bounds[: ones + 1])
    return _Blocks(take, positions[take[singles:]], singles, starts, counts, groups)


def _run_sums(parts: list[np.ndarray], starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each run of ``counts`` entries from ``starts`` over the
    arrays ``parts`` of nonnegative values, which are overwritten.

    Compensated by an error-free split: each value is cut at the grid
    spacing of a power of two 2**e >= 2 x the run's count of values x its
    largest value, so the high parts sum exactly in any order and only the
    small low parts are rounded.  Runs of one entry in two parts need no
    split: one addition rounds exactly.
    """
    if len(parts) == 2 and len(starts) == len(parts[0]):
        return parts[0] + parts[1]
    top = np.maximum.reduce([np.maximum.reduceat(x, starts) for x in parts])
    _, exponent = np.frexp(2.0 * len(parts) * counts * top)
    grid = np.repeat(np.ldexp(1.0, exponent), counts)
    cut = np.empty_like(grid)
    high = low = 0.0
    for x in parts:
        np.add(grid, x, out=cut)
        cut -= grid
        x -= cut
        high = high + np.add.reduceat(cut, starts)
        low = low + np.add.reduceat(x, starts)
    return high + low


def _blockwise_spectrum(values: np.ndarray, norm: float, blocks: _Blocks) -> np.ndarray:
    """Ascending spectrum of G = M M^dagger for the amplitudes values / norm,
    one number block at a time."""
    take, positions, singles, starts, counts, groups = blocks
    parts = []
    if singles:
        scaled = values[take[:singles]]
        scaled /= norm
        squares = [np.square(scaled.real), np.square(scaled.imag)]
        del scaled
        parts.append(_run_sums(squares, starts, counts))
    amplitudes = values[take[singles:]] / norm
    for size, width, chunks in groups:
        chunks = [(slice(start, end), count, width) for start, end, count in chunks]
        gram = _grams(amplitudes, positions, size, chunks)
        parts.append(np.linalg.eigvalsh(gram).ravel())
    return np.sort(np.concatenate(parts))


# a memo entry: registry, own copy of the keys, Gram rows, number-block layout
_Kept = tuple[ModeRegistry, np.ndarray, int, _Blocks]

# the memo: subset -> entry, least recently used first
_layouts: dict[ModeSubset, _Kept] = {}


def _memo_terms() -> int:
    return sum(len(keys) for _, keys, _, _ in _layouts.values())


def _kept(registry: ModeRegistry, keys: np.ndarray, sub: ModeSubset) -> _Kept | None:
    """The memo's entry for ``sub`` if it was built for this registry object
    and equal keys and its Gram rows are above ``BLOCK_CROSSOVER``, now the
    most recently used, else None; a stale entry is dropped before its
    successor is built."""
    kept = _layouts.pop(sub, None)
    if kept is None or kept[0] is not registry or kept[2] <= BLOCK_CROSSOVER:
        return None
    if np.array_equal(kept[1], keys):
        _layouts[sub] = kept
        return kept
    return None


def _remember(sub: ModeSubset, entry: _Kept) -> None:
    """Keep a memo entry, the layout as built beside the memo's own copy
    of the keys, while the memo's bounds allow; the least recently used
    entries go first."""
    registry, keys, n_rows, blocks = entry
    if len(keys) > MEMO_TERMS:
        return
    _layouts[sub] = (registry, keys.copy(), n_rows, blocks)
    while len(_layouts) > MEMO_ENTRIES or _memo_terms() > MEMO_TERMS:
        del _layouts[next(iter(_layouts))]


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

    norm = _norm(state)
    rows, cols, n_rows, n_cols, _, pattern = _split(registry, state.keys, [sub])
    gram = _full_grams(state.values / norm, rows, cols, int(n_rows[0]), int(n_cols[0]))[0]
    present = np.empty(int(n_rows[0]), dtype=np.intp)
    present[rows[0]] = pattern[0]
    matrix = np.zeros((dim, dim), dtype=complex)
    matrix[np.ix_(present, present)] = gram.conj()
    ranges = [range(registry.radix(i)) for i in sub]
    return ReducedDensityMatrix(sub, tuple(itertools.product(*ranges)), matrix)


def von_neumann_entropy(rdm: ReducedDensityMatrix) -> float:
    """-sum(lambda ln lambda) over the spectrum, natural log."""
    return _entropy(np.linalg.eigvalsh(rdm.matrix))


def subset_entropies(state: ManyBodyState, subsets: Sequence[Sequence[int]]) -> list[float]:
    """Entanglement entropy between each subset and the remaining modes,
    in the order of ``subsets``.

    Each is taken from the Gram matrix of the smaller side of its
    amplitude matrix; raises SizeGuardError when that side exceeds
    ``size_guard()``.  Every subset is validated, and the norm gate
    passed, before any work.  Subsets are split together, at most
    max(terms, SUBSET_CELLS) (subsets x terms) cells at a time, and Gram
    matrices of one shape are formed and diagonalised as one stack.
    Above ``BLOCK_CROSSOVER`` rows, a state whose environments each carry
    one subset particle number has its Gram matrix formed and
    diagonalised one number block at a time, and its number-block layout
    is looked up in, or kept by, the memo; a subset that mixes numbers
    joins the stacked full Gram matrices and is not kept.
    """
    registry, keys, values = state.registry, state.keys, state.values
    subs = [normalize_subset(len(registry), subset) for subset in subsets]
    norm = _norm(state)
    guard = size_guard()
    entropies: dict[ModeSubset, float] = {}
    misses = []
    for sub in dict.fromkeys(subs):
        # no Gram side of a state of at most BLOCK_CROSSOVER terms takes the
        # block path, so such a state leaves the memo as it is
        kept = _kept(registry, keys, sub) if len(keys) > BLOCK_CROSSOVER else None
        if kept is None:
            misses.append(sub)
        else:
            _refuse_above("Gram matrix", kept[2], guard)
            entropies[sub] = _entropy(_blockwise_spectrum(values, norm, kept[3]))
    misses.sort(key=len)
    per = max(len(keys), SUBSET_CELLS) // len(keys)
    for start in range(0, len(misses), per):
        chunk = misses[start : start + per]
        entropies.update(zip(chunk, _split_entropies(state, norm, guard, chunk)))
    return [entropies[sub] for sub in subs]


def _split_entropies(
    state: ManyBodyState, norm: float, guard: int, subs: list[ModeSubset]
) -> list[float]:
    """Entropies of the distinct subsets ``subs``, from one split, behind
    the guard.  Above ``BLOCK_CROSSOVER`` Gram rows a subset with number
    blocks takes the block path and its layout goes to the memo; every
    other subset, mixed numbers included, joins the stacks of full Gram
    matrices of its shape, one batched ``eigvalsh`` a stack."""
    registry, keys, values = state.registry, state.keys, state.values
    rows, cols, n_rows, n_cols, number = _split(registry, keys, subs)[:5]
    swap = n_rows > n_cols
    if swap.any():
        rows, cols = np.where(swap[:, None], cols, rows), np.where(swap[:, None], rows, cols)
    n_rows, n_cols = np.minimum(n_rows, n_cols).tolist(), np.maximum(n_rows, n_cols).tolist()
    for n in n_rows:
        _refuse_above("Gram matrix", n, guard)
    layouts, shapes = {}, {}
    for j, (n, m) in enumerate(zip(n_rows, n_cols)):
        blocks = _number_blocks(rows[j], cols[j], n, m, number[j]) if n > BLOCK_CROSSOVER else None
        if blocks is None:
            shapes.setdefault((n, m), []).append(j)
        else:
            layouts[j] = blocks
    del number
    entropies = [0.0] * len(subs)
    for j, blocks in layouts.items():
        _remember(subs[j], (registry, keys, n_rows[j], blocks))
        entropies[j] = _entropy(_blockwise_spectrum(values, norm, blocks))
    for (n, m), members in shapes.items():
        per = max(1, SUBSET_CELLS // (n * (n + m)))
        for start in range(0, len(members), per):
            part = members[start : start + per]
            take = part if len(part) < len(subs) else slice(None)
            gram = _full_grams(values / norm, rows[take], cols[take], n, m)
            spectra = gram.real.reshape(-1, 1) if n == 1 else np.linalg.eigvalsh(gram)
            for j, spectrum in zip(part, spectra):
                entropies[j] = _entropy(spectrum)
    return entropies


def mode_entanglement(state: ManyBodyState, subset: Sequence[int]) -> float:
    """Entanglement entropy between ``subset`` and the remaining modes:
    ``subset_entropies`` of the one subset."""
    return subset_entropies(state, [subset])[0]


def diagonal_distribution(rdm: ReducedDensityMatrix) -> np.ndarray:
    """Real diagonal of the matrix, in pattern order."""
    return np.real(np.diag(rdm.matrix)).copy()
