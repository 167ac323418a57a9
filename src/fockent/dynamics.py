"""Number-conserving second-quantized Hamiltonians on small sectors.

H = sum_ij (T + T')_ij a^dagger_i a_j
    + (1/2) sum_ijlm V_ijlm a^dagger_i a^dagger_j a_m a_l

with T the one-body matrix, T' an external field, and V the two-body
tensor stored sparsely as <ij|V|lm> entries (Hermiticity pairs are
completed at load).

The terms of H go through the operator kernel of ``fock_core``, which
owns the sign rule and the sector order, and come back as (source,
target, value) triplets.  ``_sector_triplets`` is the one sector
assembly: ``hamiltonian_matrix`` densifies its triplets and
``evolve_many`` keeps them sparse.  ``apply_hamiltonian`` and the sparse
operator add duplicates with ``fock_core._summed``, the one sum by key.
Sectors up to ``KRYLOV_CROSSOVER`` basis vectors are diagonalised
densely, larger ones are propagated with numpy-only Taylor steps
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).  The sparse
operator pads every row to the longest (ELLPACK): a (width, dimension)
array of columns and one of values, 24 bytes a cell, so that a matvec is
one gather, one product and one sum down the columns.  The size guard of
``fock_core`` bounds the sector dimension and, squared, the amplitudes
of a trajectory and the cells of a padded operator; registries whose
keys are not int64 are refused.  States are read as their key and
amplitude arrays, split into sectors by the particle number of each key,
and every result goes back through ``ManyBodyState._from_keys``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .fock_core import (
    ManyBodyState,
    ModeLabel,
    ModeRegistry,
    Species,
    Spin,
    inner_product,
    registry_create,
    sector_dimension,
    size_guard,
    _check_guard,
    _check_int64_keys,
    _check_trajectory,
    _occupations,
    _operator_triplets,
    _sector_keys,
    _summed,
)

HERMITICITY_TOL = 1e-12
DEGENERACY_RTOL = 1e-10
PROPER_TOL = 1e-12
TENSOR_PRUNE = 1e-14

# Sectors above this dimension are propagated with sparse Taylor steps,
# smaller ones by dense eigh.  On disordered interacting rings at 50 times,
# one BLAS thread, the two break even near dimension 210 (dense 0.017-0.019 s,
# sparse 0.016-0.018 s); at 252 dense takes 0.028-0.030 s against
# 0.020-0.025 s, at 330 0.053-0.068 s against 0.017-0.027 s, and at 924
# 1.07-1.20 s against 0.049-0.053 s.  The value stays at 300: moving it would
# move the sectors in between to the other path, and change their last bits.
KRYLOV_CROSSOVER = 300

# theta_m for m = 1..30: the largest ||A||_1 for which the degree-m Taylor
# polynomial T_m(A) = exp(A + E) with ||E|| <= 2**-53 ||A|| (Higham,
# "Functions of Matrices", Table A.3; Al-Mohy & Higham 2011, Table 3.1).
# Degrees up to 55 would allow longer steps (theta_55 = 9.9), but the terms
# of the series grow to about exp(theta_m) before they cancel, so a step
# rounds to about exp(theta_m) * 2**-53: 4e-15 at m = 30, 2e-12 at m = 55.
TAYLOR_THETA = (
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2,
    8.96e-2, 1.44e-1, 2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1,
    9.31e-1, 1.09, 1.26, 1.44, 1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86,
    3.08, 3.31, 3.54,
)

TwoBodyKey = tuple[int, int, int, int]


@dataclass
class SecondQuantizedHamiltonian:
    """One-body + external matrices and a sparse Hermitian two-body tensor."""

    registry: ModeRegistry
    one_body: np.ndarray
    external: np.ndarray | None = None
    two_body: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        m = len(self.registry)
        self.one_body = np.asarray(self.one_body, dtype=complex)
        if self.one_body.shape != (m, m):
            raise ValueError(f"one_body must be {m}x{m}")
        if self.external is None:
            self.external = np.zeros((m, m), dtype=complex)
        else:
            self.external = np.asarray(self.external, dtype=complex)
            if self.external.shape != (m, m):
                raise ValueError(f"external must be {m}x{m}")
        for name, mat in (("one_body", self.one_body), ("external", self.external)):
            if np.max(np.abs(mat - mat.conj().T)) > HERMITICITY_TOL:
                raise ValueError(f"{name} matrix is not Hermitian")
        self.two_body = _complete_two_body(self.two_body, m)

    @property
    def total_one_body(self) -> np.ndarray:
        return self.one_body + self.external


def _complete_two_body(entries: Mapping, num_modes: int) -> dict:
    """Validate index ranges and enforce <ij|V|lm> = conj(<lm|V|ij>)."""
    completed: dict[TwoBodyKey, complex] = {}
    for key, value in entries.items():
        key = tuple(int(x) for x in key)
        if len(key) != 4 or not all(0 <= x < num_modes for x in key):
            raise ValueError(f"two-body key {key} out of range for {num_modes} modes")
        value = complex(value)
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
    """Dense Hamiltonian block on one total-number sector (or the full space)."""

    registry: ModeRegistry
    total: int | None
    keys: np.ndarray
    matrix: np.ndarray

    @property
    def dimension(self) -> int:
        return len(self.keys)


def _positions(keys: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Index in ``keys`` of every target key; each target must be present."""
    order = np.argsort(keys)
    return order[np.searchsorted(keys, targets, sorter=order)]


def _terms(h: SecondQuantizedHamiltonian):
    """Yield (coefficient, operators) for each term of H.

    One-body terms come first, nonzero entries of T + T' row by row, then
    the two-body entries in dict order.  ``operators`` lists (mode,
    creates) in the order the operators act on a ket.  The coefficient is
    the unit amplitude of a basis vector times t, or times 0.5 and v.
    """
    unit = 1.0 + 0.0j
    t = h.total_one_body
    for i, j in zip(*np.nonzero(t)):
        yield unit * complex(t[i, j]), ((int(j), False), (int(i), True))
    for (i, j, l, m), v in h.two_body.items():
        yield unit * 0.5 * v, ((l, False), (m, False), (j, True), (i, True))


def _sector_triplets(h: SecondQuantizedHamiltonian, total: int | None):
    """The one sector assembly: ``(keys, rows, cols, values)`` of the sector
    (or the full space for None), H adding ``values`` at (``rows``,
    ``cols``) term by term.  Size guard and int64 check come first."""
    registry = h.registry
    dim = registry.full_dimension() if total is None else sector_dimension(registry, total)
    _check_guard("full space" if total is None else f"sector N={total}", dim)
    _check_int64_keys(registry)
    keys = np.arange(dim, dtype=np.int64) if total is None else _sector_keys(registry, total)
    source, target, value = _operator_triplets(registry, keys, _terms(h))
    return keys, _positions(keys, target), source, value


def hamiltonian_matrix(
    h: SecondQuantizedHamiltonian, total: int | None
) -> SectorMatrix:
    """Dense matrix of H on the fixed-N sector (or the full space for None);
    a negative total is an empty sector."""
    keys, rows, cols, values = _sector_triplets(h, total)
    matrix = np.zeros((len(keys), len(keys)), dtype=complex)
    np.add.at(matrix, (rows, cols), values)
    return SectorMatrix(h.registry, total, keys, matrix)


def apply_hamiltonian(
    h: SecondQuantizedHamiltonian, state: ManyBodyState
) -> ManyBodyState:
    """H |state>, unnormalized; the state may span several sectors."""
    _check_int64_keys(h.registry)
    source, target, value = _operator_triplets(h.registry, state.keys, _terms(h))
    image_keys, image, _ = _summed(target, state.values[source] * value)
    return ManyBodyState._from_keys(h.registry, image_keys, image, state.truncated)


def energy_expectation(h: SecondQuantizedHamiltonian, state: ManyBodyState) -> float:
    return float(inner_product(state, apply_hamiltonian(h, state)).real)


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


def eigenstates(
    h: SecondQuantizedHamiltonian, total: int | None
) -> list[tuple[float, ManyBodyState]]:
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
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, dimension: int
) -> tuple[float, float]:
    """Center c and radius r with ||H - c||_1 <= r (Gershgorin columns)."""
    diagonal = rows == cols
    centers = np.zeros(dimension)
    centers[rows[diagonal]] = values[diagonal].real
    radii = np.bincount(cols[~diagonal], np.abs(values[~diagonal]), dimension)
    low = float(np.min(centers - radii))
    high = float(np.max(centers + radii))
    return (low + high) / 2, (high - low) / 2


@dataclass(frozen=True)
class _SparseOperator:
    """A sector operator in a padded-row (ELLPACK) layout.

    Row r of the matrix is ``values[:, r]`` at the columns ``cols[:, r]``,
    its elements in column order, padded to the longest row, the width,
    with column 0 and value 0.  The two (width, dimension) arrays take 24
    bytes a cell, against 32 bytes an element as (row, col, value)
    triplets.  Cells per element: 1.72 on a 12-site ring at half filling
    in real space (rows of 3 to 13 elements), 1.00 in its proper basis
    (262 a row).  ``center`` and ``radius`` bound the spectrum
    (``_spectral_interval``).
    """

    cols: np.ndarray
    values: np.ndarray
    center: float
    radius: float

    @classmethod
    def from_triplets(
        cls, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, dimension: int
    ) -> "_SparseOperator":
        """Sum repeated (row, col) entries in array order and pad the rows.

        The padded arrays are refused beyond guard**2 cells before they are
        allocated.  The spectral bound is taken from the summed entries in
        row-major order, before padding.
        """
        flat, summed, _ = _summed(rows * dimension + cols, values)
        rows, cols = flat // dimension, flat % dimension
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        lengths = np.diff(starts, append=len(rows))
        width = int(lengths.max()) if len(lengths) else 0
        what = f"padded operator ({width} entries x {dimension} rows)"
        _check_guard(what, width * dimension, size_guard() ** 2)
        depth = np.arange(len(rows)) - np.repeat(starts, lengths)
        padded_cols = np.zeros((width, dimension), dtype=np.intp)
        padded_values = np.zeros((width, dimension), dtype=complex)
        padded_cols[depth, rows] = cols
        padded_values[depth, rows] = summed
        interval = _spectral_interval(rows, cols, summed, dimension)
        return cls(padded_cols, padded_values, *interval)

    def __matmul__(self, vector: np.ndarray) -> np.ndarray:
        """H vector: each row's products added to 0.0 in column order, the
        padding last, bit for bit as ``np.bincount`` over the triplets."""
        return (self.values * np.take(vector, self.cols)).sum(axis=0)


def _taylor_step(operator: _SparseOperator, psi: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i H dt) psi by a truncated, scaled Taylor series.

    A = -i dt (H - center) has ||A||_1 <= |dt| radius.  The degree m and
    the number of substeps s minimise the products m * s subject to
    |dt| radius / s <= theta_m, which bounds the backward error of each
    substep by the unit roundoff (Al-Mohy & Higham 2011, Sec. 3); the
    shift returns as the phase exp(-i center dt).
    """
    center, radius = operator.center, operator.radius
    norm = abs(dt) * radius
    _, m, s = min(
        (m * math.ceil(norm / theta), m, math.ceil(norm / theta))
        for m, theta in enumerate(TAYLOR_THETA, start=1)
    )
    for _ in range(s):
        term = psi
        for j in range(1, m + 1):
            term = (-1j * dt / (s * j)) * (operator @ term - center * term)
            psi = psi + term
    return np.exp(-1j * center * dt) * psi


def _propagate_sparse(
    operator: _SparseOperator, psi: np.ndarray, times: Sequence[float]
) -> list[np.ndarray]:
    """psi at each time, stepping from t = 0 outward through the sorted times."""
    out: list[np.ndarray] = [psi] * len(times)
    ascending = sorted(range(len(times)), key=times.__getitem__)
    forward = [i for i in ascending if times[i] >= 0]
    backward = [i for i in reversed(ascending) if times[i] < 0]
    for chain in (forward, backward):
        now, current = 0.0, psi
        for i in chain:
            current = _taylor_step(operator, current, times[i] - now)
            now = times[i]
            out[i] = current
    return out


def _sector_vector(keys: np.ndarray, present: np.ndarray, values) -> np.ndarray:
    """The amplitudes ``values`` at the keys ``present``, laid out on ``keys``."""
    psi = np.zeros(len(keys), dtype=complex)
    psi[_positions(keys, present)] = values
    return psi


def evolve_many(
    state: ManyBodyState, h: SecondQuantizedHamiltonian, times: Sequence[float]
) -> list[ManyBodyState]:
    """exp(-i H t) |state> for each t, sector by sector.

    A sector of dimension up to ``KRYLOV_CROSSOVER`` is diagonalised
    densely, and each time rotates the phases of its eigencoefficients.  A
    larger sector stays sparse: the state is propagated from t = 0
    outward through the sorted times, backward for negative ones, by
    Taylor steps whose degree and substep count follow from a bound on
    ||H dt||_1, so that no dense matrix is built.  Times may come in any
    order and with either sign.  A trajectory of more than guard**2
    amplitudes is refused before anything is allocated.
    """
    if state.registry != h.registry:
        raise ValueError("state and Hamiltonian use different registries")
    registry = state.registry
    times = [float(t) for t in times]
    numbers = _occupations(registry, state.keys).sum(axis=1)
    totals = sorted(set(numbers.tolist()))
    _check_trajectory(registry, totals, len(times))

    # empty first blocks, so that a zero state evolves to zero states
    key_blocks = [np.zeros(0, dtype=np.int64)]
    column_blocks = [[np.zeros(0, dtype=complex)] * len(times)]
    for total in totals:
        present = numbers == total
        terms = (state.keys[present], state.values[present])
        if sector_dimension(registry, total) > KRYLOV_CROSSOVER:
            keys, *triplets = _sector_triplets(h, total)
            operator = _SparseOperator.from_triplets(*triplets, len(keys))
            evolved = _propagate_sparse(operator, _sector_vector(keys, *terms), times)
        else:
            sector = hamiltonian_matrix(h, total)
            keys = sector.keys
            energies, vectors = np.linalg.eigh(sector.matrix)
            coefficients = vectors.conj().T @ _sector_vector(keys, *terms)
            evolved = [vectors @ (np.exp(-1j * energies * t) * coefficients) for t in times]
        key_blocks.append(keys)
        column_blocks.append(evolved)
    keys = np.concatenate(key_blocks)
    columns = (np.concatenate(blocks) for blocks in zip(*column_blocks))
    return [ManyBodyState._from_keys(registry, keys, c, state.truncated) for c in columns]


@dataclass
class ProperBasisReport:
    """Whether the one-body part is diagonal, and the fixing rotation if not."""

    proper: bool
    off_diagonal: float
    rotation: np.ndarray | None = None
    transformed: SecondQuantizedHamiltonian | None = None


def check_proper_basis(
    h: SecondQuantizedHamiltonian, tol: float = PROPER_TOL
) -> ProperBasisReport:
    """Diagonalize one_body + external and transform the two-body tensor.

    The rotation U satisfies T = U diag(e) U^dagger; new-basis operators
    are a^dagger_mu = sum_i U[i, mu] a^dagger_i, and the transformed
    tensor is V'_abcd = sum conj(U[i,a]) conj(U[j,b]) V_ijlm U[l,c] U[m,d].
    """
    t = h.total_one_body
    off = t - np.diag(np.diag(t))
    off_max = float(np.max(np.abs(off))) if off.size else 0.0
    if off_max <= tol:
        return ProperBasisReport(True, off_max)

    energies, rotation = np.linalg.eigh(t)
    m = len(h.registry)
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


def _num(value) -> complex:
    if isinstance(value, (list, tuple)):
        re, im = value
        return complex(float(re), float(im))
    return complex(float(value), 0.0)


def _matrix_from_json(rows, m: int, name: str) -> np.ndarray:
    mat = np.zeros((m, m), dtype=complex)
    if len(rows) != m:
        raise ValueError(f"{name} must have {m} rows")
    for i, row in enumerate(rows):
        if len(row) != m:
            raise ValueError(f"{name} row {i} must have {m} entries")
        for j, value in enumerate(row):
            mat[i, j] = _num(value)
    return mat


def load_hamiltonian(source: str | Path | Mapping) -> SecondQuantizedHamiltonian:
    """Build a Hamiltonian (and its registry) from the JSON description.

    Schema: {"modes": [{"species", "momentum", "spin", "extra", "cutoff"}],
    "one_body": [[...]], "external": [[...]],
    "two_body": [{"ijlm": [i,j,l,m], "value": [re,im]}]}.
    Matrix entries are numbers or [re, im] pairs; "external" and
    "two_body" may be omitted.
    """
    if isinstance(source, (str, Path)):
        payload = json.loads(Path(source).read_text())
    else:
        payload = source
    labels = []
    cutoffs: dict[int, int] = {}
    for pos, spec in enumerate(payload["modes"]):
        species = Species(spec.get("species", "generic"))
        momentum = tuple(int(x) for x in spec.get("momentum", []))
        spin = Spin(spec.get("spin", "none"))
        extra = spec.get("extra")
        labels.append(ModeLabel(species, momentum, spin, extra))
        if species is Species.BOSON:
            cutoffs[pos] = int(spec.get("cutoff", 1))
    registry = registry_create(labels, cutoffs or None)
    m = len(registry)
    one_body = _matrix_from_json(payload["one_body"], m, "one_body")
    external = (
        _matrix_from_json(payload["external"], m, "external")
        if "external" in payload
        else None
    )
    two_body = {
        tuple(int(x) for x in entry["ijlm"]): _num(entry["value"])
        for entry in payload.get("two_body", [])
    }
    return SecondQuantizedHamiltonian(registry, one_body, external, two_body)
