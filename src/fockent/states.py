"""Constructors for the model states whose entanglement has closed form.

Covers filled Fermi seas, single electron-hole excitations (spinless
and spinful), coherent and number-projected pair-condensate states of
fermions (BCS-like), condensate-plus-pair-excitation states of bosons
(Bogoliubov-like, coherent and number-projected), uniform filled-level
superpositions, and one-particle superpositions.

Mode registries for paired states interleave the two members of each
pair, so pair blocks are contiguous: [k up, -k down, ...] for fermion
pairs and [condensate, q, -q, ...] for boson pairs.

Every builder computes packed keys as sums of registry strides (typed
by ``fock_core``'s key rule) and passes keys and amplitudes to
``ManyBodyState._from_keys``.  The fermion-pair and exciton states take
the keys and signs of their creation products from ``fock_core``'s
``_created``, so the signs follow registry order.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .analytic import compositions, multinomial
from .errors import NormalizationError, TruncationError
from .fock_core import (
    PRUNE_TOL,
    ManyBodyState,
    ModeRegistry,
    Momentum,
    Spin,
    _as_momentum,
    _created,
    _json_complex,
    _json_expect,
    _json_ints,
    _key_dtype,
    _occupations,
    _times,
    boson,
    electron,
    hole,
    generic,
    negated,
    registry_create,
)

PAIR_TAIL_TOL = 1e-14
COEFF_NORM_TOL = 1e-9
TABLE_NORM_TOL = 1e-12

# ranges of the random tables the scenarios draw: |A| before normalisation,
# |g|, |c| and |v/u|
EXCITON_MAGNITUDES = (0.1, 1.0)
BCS_G_MAGNITUDES = (0.2, 2.0)
BOGOLIUBOV_C_MAGNITUDES = (0.1, 0.6)
UV_RATIOS = (0.1, 0.8)


class TableKind(Enum):
    BCS_G = "bcs_g"
    BOGOLIUBOV_C = "bogoliubov_c"
    BOGOLIUBOV_UV = "bogoliubov_uv"
    EXCITON_A = "exciton_A"


class ExcitonChannel(Enum):
    SPINLESS = "spinless"
    TRIPLET_UP = "triplet_up"
    TRIPLET_ZERO = "triplet_zero"
    TRIPLET_DOWN = "triplet_down"
    SINGLET = "singlet"


@dataclass(frozen=True)
class PairAmplitudeTable:
    """Pair-indexed amplitude collection with kind-specific invariants.

    Keys are momentum tuples (a (k, k') pair of tuples for exciton_A).
    Values are complex amplitudes; the bogoliubov_uv kind stores (u, v)
    pairs with |u|^2 - |v|^2 = 1 per mode.
    """

    kind: TableKind
    values: Mapping

    def __post_init__(self) -> None:
        canonical: dict = {}
        if self.kind is TableKind.EXCITON_A:
            total = 0.0
            for (k, kp), a in self.values.items():
                a = _finite(a, (k, kp))
                canonical[(_as_momentum(k), _as_momentum(kp))] = a
                total += abs(a) ** 2
            if abs(total - 1.0) > TABLE_NORM_TOL:
                raise NormalizationError(
                    f"exciton amplitude table has squared sum {total}, expected 1"
                )
        elif self.kind is TableKind.BOGOLIUBOV_UV:
            for k, (u, v) in self.values.items():
                u, v = _finite(u, k), _finite(v, k)
                if abs(abs(u) ** 2 - abs(v) ** 2 - 1.0) > TABLE_NORM_TOL:
                    raise ValueError(
                        f"|u|^2 - |v|^2 = {abs(u)**2 - abs(v)**2} at {k}, expected 1"
                    )
                canonical[_as_momentum(k)] = (u, v)
        else:
            for k, a in self.values.items():
                a = _finite(a, k)
                if self.kind is TableKind.BOGOLIUBOV_C and abs(a) >= 1.0:
                    raise ValueError(f"|c| = {abs(a)} at {k} must be below 1")
                canonical[_as_momentum(k)] = a
        object.__setattr__(self, "values", canonical)

    def pair_indices(self) -> list:
        return sorted(self.values.keys())

    def __len__(self) -> int:
        return len(self.values)


def _finite(value, key) -> complex:
    """``value`` as a complex number; its squared magnitude must be finite."""
    z = complex(value)
    magnitude = math.hypot(z.real, z.imag)
    if not math.isfinite(magnitude * magnitude):
        raise ValueError(f"|amplitude|^2 of {z} at {key} is not finite")
    return z


def _c2(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def table_payload(table: PairAmplitudeTable) -> dict:
    """JSON-ready form of a table: {"kind": ..., "entries": [...]}."""
    entries = []
    for key in table.pair_indices():
        value = table.values[key]
        if table.kind is TableKind.EXCITON_A:
            k, kp = key
            entries.append({"k": list(k), "kp": list(kp), "value": _c2(value)})
        elif table.kind is TableKind.BOGOLIUBOV_UV:
            u, v = value
            entries.append({"k": list(key), "u": _c2(u), "v": _c2(v)})
        else:
            entries.append({"k": list(key), "value": _c2(value)})
    return {"kind": table.kind.value, "entries": entries}


def load_amplitude_table(source: str | Path | Mapping) -> PairAmplitudeTable:
    """Read a table from a JSON file path or an already-parsed mapping; a
    wrongly shaped field raises ValueError."""
    if isinstance(source, (str, Path)):
        payload = json.loads(Path(source).read_text())
    else:
        payload = source
    payload = _json_expect(payload, "object", "amplitude table")
    kind = TableKind(payload["kind"])
    values: dict = {}
    for i, entry in enumerate(_json_expect(payload["entries"], "array", "entries")):
        entry = _json_expect(entry, "object", f"entry {i}")
        k = _json_ints(entry["k"], f"entry {i} k")
        if kind is TableKind.EXCITON_A:
            kp = _json_ints(entry["kp"], f"entry {i} kp")
            values[(k, kp)] = _json_complex(entry["value"], f"entry {i} value")
        elif kind is TableKind.BOGOLIUBOV_UV:
            u = _json_complex(entry["u"], f"entry {i} u")
            values[k] = (u, _json_complex(entry["v"], f"entry {i} v"))
        else:
            values[k] = _json_complex(entry["value"], f"entry {i} value")
    return PairAmplitudeTable(kind, values)


# ---------------------------------------------------------------------------
# registry builders


def bcs_registry(pair_momenta: Iterable[int | Sequence[int]]) -> ModeRegistry:
    """Fermion-pair registry [k up, -k down] per pair, in the given order."""
    labels = []
    for k in pair_momenta:
        k = _as_momentum(k)
        labels.append(electron(k, Spin.UP))
        labels.append(electron(negated(k), Spin.DOWN))
    return registry_create(labels)


def bogoliubov_registry(
    pair_momenta: Iterable[int | Sequence[int]],
    condensate_cutoff: int,
    pair_cutoff: int,
) -> ModeRegistry:
    """Boson registry [condensate, q, -q, ...] with per-group cutoffs."""
    labels = [boson(0)]
    cutoffs = [condensate_cutoff]
    for q in pair_momenta:
        q = _as_momentum(q)
        if all(x == 0 for x in q):
            raise ValueError("pair momenta must be nonzero; mode 0 is the condensate")
        labels.append(boson(q))
        labels.append(boson(negated(q)))
        cutoffs.extend([pair_cutoff, pair_cutoff])
    return registry_create(labels, cutoffs)


def exciton_registry(
    electron_momenta: Iterable[int | Sequence[int]],
    hole_momenta: Iterable[int | Sequence[int]],
    spinful: bool = False,
) -> ModeRegistry:
    """Electron modes followed by hole modes; spin-resolved when spinful."""
    spins = (Spin.UP, Spin.DOWN) if spinful else (Spin.NONE,)
    labels = [electron(k, spin) for k in electron_momenta for spin in spins]
    labels += [hole(kp, spin) for kp in hole_momenta for spin in spins]
    return registry_create(labels)


def uniform_registry(num_modes: int) -> ModeRegistry:
    return registry_create([generic(i) for i in range(num_modes)])


# ---------------------------------------------------------------------------
# state constructors


def fermi_sea(registry: ModeRegistry, filled: Sequence[int]) -> ManyBodyState:
    """Single determinant with the given fermionic modes occupied."""
    filled = sorted(set(int(i) for i in filled))
    for i in filled:
        if not registry.modes[i].fermionic:
            raise ValueError(f"mode {i} is bosonic; a filled sea needs fermionic modes")
    key = sum(registry._strides[i] for i in filled)
    return ManyBodyState._from_keys(registry, [key], [1.0])


def _exciton_state(
    registry: ModeRegistry, table: PairAmplitudeTable, branches
) -> ManyBodyState:
    """Sum of A(k,k') * weight * e^dagger h^dagger |0> over ``branches``, normalized."""
    if table.kind is not TableKind.EXCITON_A:
        raise ValueError(f"need an exciton_A table, got {table.kind.value}")
    coefficients, created = [], []
    for (k, kp) in table.pair_indices():
        a = table.values[(k, kp)]
        for e_spin, h_spin, weight in branches:
            e_idx = registry.index_of(electron(k, e_spin))
            h_idx = registry.index_of(hole(kp, h_spin))
            coefficients.append(a * weight)
            created.append((h_idx, e_idx))
    terms = _created(registry, [0] * len(created), coefficients, created)
    return ManyBodyState._from_keys(registry, *terms).normalize()


def exciton_spinless(registry: ModeRegistry, table: PairAmplitudeTable) -> ManyBodyState:
    """Sum over (k, k') of A(k,k') e^dagger(k) h^dagger(k') on the vacuum."""
    return _exciton_state(registry, table, [(Spin.NONE, Spin.NONE, 1.0)])


_SQRT_HALF = 1.0 / math.sqrt(2.0)

# (electron spin, hole spin, coefficient) branches per channel
_CHANNEL_BRANCHES = {
    ExcitonChannel.TRIPLET_UP: [(Spin.UP, Spin.UP, 1.0)],
    ExcitonChannel.TRIPLET_DOWN: [(Spin.DOWN, Spin.DOWN, 1.0)],
    ExcitonChannel.TRIPLET_ZERO: [
        (Spin.UP, Spin.DOWN, _SQRT_HALF),
        (Spin.DOWN, Spin.UP, -_SQRT_HALF),
    ],
    ExcitonChannel.SINGLET: [
        (Spin.UP, Spin.DOWN, _SQRT_HALF),
        (Spin.DOWN, Spin.UP, _SQRT_HALF),
    ],
}


def exciton_spinful(
    registry: ModeRegistry, table: PairAmplitudeTable, channel: ExcitonChannel
) -> ManyBodyState:
    """Spin-resolved electron-hole pair state in one spin channel.

    The mixed channels place the pair in (up, down) +/- (down, up)
    branches with weight 1/sqrt(2); the stretched channels use a single
    equal-spin branch and reduce to the spinless case.
    """
    if channel not in _CHANNEL_BRANCHES:
        raise ValueError(f"unknown spinful channel {channel}")
    return _exciton_state(registry, table, _CHANNEL_BRANCHES[channel])


def _bcs_pair_modes(registry: ModeRegistry, k: Momentum) -> tuple[int, int]:
    return (
        registry.index_of(electron(k, Spin.UP)),
        registry.index_of(electron(negated(k), Spin.DOWN)),
    )


def _ldexp(z: complex, e: int) -> complex:
    """z * 2**e, exactly while the parts stay normal."""
    return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))


def bcs_unprojected(registry: ModeRegistry, table: PairAmplitudeTable) -> ManyBodyState:
    """Coherent pair state: normalized product of (1 + g_k P^dagger_k) on vacuum."""
    if table.kind is not TableKind.BCS_G:
        raise ValueError(f"need a bcs_g table, got {table.kind.value}")
    keys, amplitudes = np.zeros(1, dtype=_key_dtype(registry)), np.ones(1, dtype=complex)
    # each factor 1 + g P is scaled by a power of two, exactly, so the largest
    # amplitude, prod max(1, |g|), stays in [0.5, 1]: products of large g stay
    # finite, and pruning after each pair is relative to the largest term
    largest = 1.0
    for k in table.pair_indices():
        up, down = _bcs_pair_modes(registry, k)
        paired_keys, paired = _created(registry, keys, amplitudes, [down, up])
        g = table.values[k]
        largest *= max(1.0, abs(g))
        scale = math.ldexp(1.0, -math.frexp(largest)[1]) if largest > 1.0 else 1.0
        largest *= scale
        keys = np.concatenate((keys, paired_keys))
        amplitudes = np.concatenate((_times(amplitudes, scale), _times(paired, scale * g)))
        kept = np.abs(amplitudes) > PRUNE_TOL
        keys, amplitudes = keys[kept], amplitudes[kept]
    return ManyBodyState._from_keys(registry, keys, amplitudes).normalize()


def bcs_projected(
    registry: ModeRegistry,
    table: PairAmplitudeTable,
    total_number: int,
    unpaired: int | Sequence[int] | None = None,
) -> ManyBodyState:
    """Fixed-N component of the coherent pair state.

    Sums prod(g) over unordered pair subsets of size N/2.  Odd N needs
    ``unpaired``: that (p, up) mode is occupied in every branch and its
    momentum is excluded from the pairing.
    """
    if table.kind is not TableKind.BCS_G:
        raise ValueError(f"need a bcs_g table, got {table.kind.value}")
    if total_number < 0:
        raise ValueError("total particle number must be nonnegative")
    if total_number % 2 == 1 and unpaired is None:
        raise ValueError("odd particle number requires an unpaired mode")
    if total_number % 2 == 0 and unpaired is not None:
        raise ValueError("unpaired mode given but the particle number is even")

    available = table.pair_indices()
    base = []
    if unpaired is not None:
        p = _as_momentum(unpaired)
        base = [registry.index_of(electron(p, Spin.UP))]
        available = [k for k in available if k != p]
    num_pairs = total_number // 2
    if num_pairs > len(available):
        raise ValueError(
            f"cannot place {num_pairs} pairs into {len(available)} available pair modes"
        )

    # prod(g) per subset as a product of mantissas in [0.5, 1) times a power
    # of two, so no product overflows or underflows; one exact shift then puts
    # the largest term in [0.5, 1), so pruning is relative to it
    raw, created = [], []
    for chosen in itertools.combinations(available, num_pairs):
        coefficient, exponent, modes = 1.0 + 0.0j, 0, list(base)
        for k in chosen:
            e = math.frexp(abs(table.values[k]))[1]
            coefficient *= _ldexp(table.values[k], -e)
            exponent += e
            up, down = _bcs_pair_modes(registry, k)
            modes += [down, up]
        raw.append((coefficient, exponent))
        created.append(modes)
    top = max((math.frexp(abs(c))[1] + e for c, e in raw if c), default=0)
    coefficients = [_ldexp(c, e - top) for c, e in raw]
    terms = _created(registry, [0] * len(raw), coefficients, created)
    combined = ManyBodyState._from_keys(registry, *terms)
    if combined.is_zero:
        raise NormalizationError(
            "projected pair state vanishes; the amplitude table has no weight "
            f"on any {num_pairs}-pair subset"
        )
    return combined.normalize()


def default_pair_cutoff(ratio_magnitude: float, tol: float = PAIR_TAIL_TOL) -> int:
    """Smallest n with r^(2n) / (1 - r^2) below tol (at least 1)."""
    r = float(ratio_magnitude)
    if not 0.0 <= r < 1.0:
        raise ValueError(f"|v/u| must lie in [0, 1), got {r}")
    if r == 0.0:
        return 1
    n = 1
    scale = 1.0 / (1.0 - r * r)
    while (r ** (2 * n)) * scale >= tol:
        n += 1
    return n


def bogoliubov_truncation_bound(table: PairAmplitudeTable, cutoff: int) -> float:
    """Upper bound on the total squared weight dropped beyond the cutoff.

    Sum over pair modes of r^(2 (cutoff+1)) / (1 - r^2) with r = |v/u|.
    """
    if table.kind is not TableKind.BOGOLIUBOV_UV:
        raise ValueError(f"need a bogoliubov_uv table, got {table.kind.value}")
    bound = 0.0
    for u, v in table.values.values():
        r = abs(v / u)
        bound += (r ** (2 * (cutoff + 1))) / (1.0 - r * r)
    return bound


def bogoliubov_unprojected(
    registry: ModeRegistry,
    table: PairAmplitudeTable,
    cutoff: int | None = None,
) -> ManyBodyState:
    """Condensate with correlated (q, -q) pair excitations, no fixed N.

    Pair occupations carry amplitude prod (-v_q/u_q)^(n_q) up to the
    cutoff (auto-chosen so the dropped geometric tail is below 1e-14).
    The condensate factor is an equal-weight superposition of the even
    occupations the registry admits, so it stays unentangled and the
    state superposes even total numbers only.
    """
    if table.kind is not TableKind.BOGOLIUBOV_UV:
        raise ValueError(f"need a bogoliubov_uv table, got {table.kind.value}")
    condensate = registry.index_of(boson(0))
    pairs = []
    for q in table.pair_indices():
        u, v = table.values[q]
        ratio = -v / u
        r = abs(ratio)
        if r >= 1.0:
            raise ValueError(f"|v/u| = {r} at {q} must be below 1")
        n_max = cutoff if cutoff is not None else default_pair_cutoff(r)
        q_idx = registry.index_of(boson(q))
        nq_idx = registry.index_of(boson(negated(q)))
        mode_cut = min(registry.cutoffs[q_idx], registry.cutoffs[nq_idx])
        if n_max > mode_cut:
            raise TruncationError(
                f"pair cutoff {n_max} exceeds registry cutoff {mode_cut} at {q}"
            )
        pairs.append((registry._strides[q_idx] + registry._strides[nq_idx], ratio, n_max))

    # the pair grid, first pair slowest; each amplitude multiplies the factors
    # ratio**n in pair order, through _times
    dtype = _key_dtype(registry)
    keys, amplitudes = np.zeros(1, dtype=dtype), np.ones(1, dtype=complex)
    for step, ratio, n_max in pairs:
        keys = (keys[:, None] + np.arange(n_max + 1).astype(dtype) * step).ravel()
        powers = np.array([ratio**n for n in range(n_max + 1)])
        amplitudes = _times(amplitudes[:, None], powers).ravel()
    # prune before repeating the grid over the even condensate occupations
    kept = np.abs(amplitudes) > PRUNE_TOL
    condensate_keys = np.arange(0, registry.cutoffs[condensate] + 1, 2).astype(dtype)
    keys = (condensate_keys[:, None] * registry._strides[condensate] + keys[kept]).ravel()
    amplitudes = np.tile(amplitudes[kept], len(condensate_keys))
    return ManyBodyState._from_keys(registry, keys, amplitudes).normalize()


def bogoliubov_projected(
    registry: ModeRegistry, table: PairAmplitudeTable, total_number: int
) -> ManyBodyState:
    """Fixed-N condensate state with pair excitations.

    Sums over occupation patterns (n0, n1, ..., nM) with n0 + sum nj =
    N/2: weight multinomial(N/2; pattern) * prod (-c_j)^(n_j) on the
    ket with 2 n0 condensate particles and n_j in modes q_j and -q_j.
    """
    if table.kind is not TableKind.BOGOLIUBOV_C:
        raise ValueError(f"need a bogoliubov_c table, got {table.kind.value}")
    if total_number % 2 != 0:
        raise ValueError("total particle number must be even")
    half = total_number // 2
    condensate = registry.index_of(boson(0))
    if registry.cutoffs[condensate] < total_number:
        raise TruncationError(
            f"condensate cutoff {registry.cutoffs[condensate]} below required {total_number}"
        )
    strides = registry._strides
    pair_modes = []
    for q in table.pair_indices():
        q_idx = registry.index_of(boson(q))
        nq_idx = registry.index_of(boson(negated(q)))
        if min(registry.cutoffs[q_idx], registry.cutoffs[nq_idx]) < half:
            raise TruncationError(
                f"pair cutoff at {q} below required {half}"
            )
        pair_modes.append((strides[q_idx] + strides[nq_idx], table.values[q]))

    keys, amplitudes = [], []
    for pattern in compositions(half, 1 + len(pair_modes)):
        n0, rest = pattern[0], pattern[1:]
        key = 2 * n0 * strides[condensate]
        amp = complex(multinomial(half, pattern))
        for (step, c), n in zip(pair_modes, rest):
            key += n * step
            amp *= (-c) ** n
        keys.append(key)
        amplitudes.append(amp)
    state = ManyBodyState._from_keys(registry, keys, amplitudes)
    if state.is_zero:
        raise NormalizationError("projected condensate state vanishes")
    return state.normalize()


def uniform_filling_state(
    registry: ModeRegistry, num_modes: int, num_filled: int
) -> ManyBodyState:
    """Equal-amplitude superposition of all C(M, K) fillings of M modes."""
    if not 0 <= num_filled <= num_modes:
        raise ValueError(f"cannot fill {num_filled} of {num_modes} modes")
    if num_modes > len(registry):
        raise ValueError(f"registry has only {len(registry)} modes")
    for i in range(num_modes):
        if not registry.modes[i].fermionic:
            raise ValueError(f"mode {i} is bosonic; uniform filling needs fermions")
    strides = registry._strides[:num_modes]
    keys = [sum(filled) for filled in itertools.combinations(strides, num_filled)]
    return ManyBodyState._from_keys(registry, keys, np.ones(len(keys))).normalize()


def single_particle_superposition(
    registry: ModeRegistry, coefficients: Sequence[complex]
) -> ManyBodyState:
    """sum_i c_i |one particle in mode i> for normalized coefficients."""
    if len(coefficients) != len(registry):
        raise ValueError(
            f"{len(coefficients)} coefficients for registry of size {len(registry)}"
        )
    total = sum(abs(complex(c)) ** 2 for c in coefficients)
    if abs(total - 1.0) > COEFF_NORM_TOL:
        raise NormalizationError(f"coefficients have squared sum {total}, expected 1")
    return ManyBodyState._from_keys(registry, registry._strides, coefficients).normalize()


def project_particle_number(state: ManyBodyState, total: int) -> ManyBodyState:
    """Renormalized restriction of a state to one total-number sector."""
    registry = state.registry
    kept = _occupations(registry, state.keys).sum(axis=1) == total
    if not kept.any():
        raise NormalizationError(f"state has no amplitude in the N={total} sector")
    terms = (state.keys[kept], state.values[kept])
    return ManyBodyState._from_keys(registry, *terms, state.truncated).normalize()


# ---------------------------------------------------------------------------
# random table generation (used by the command-line scenarios)


def _random_phased(keys: Iterable, rng: np.random.Generator, magnitudes) -> dict:
    """Per key, in order: a uniform magnitude in ``magnitudes``, then a uniform phase."""
    values = {}
    for key in keys:
        mag = rng.uniform(*magnitudes)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        values[key] = mag * complex(math.cos(phase), math.sin(phase))
    return values


def random_exciton_table(
    electron_momenta: Sequence[Momentum],
    hole_momenta: Sequence[Momentum],
    rng: np.random.Generator,
) -> PairAmplitudeTable:
    """Random normalized A(k,k'): uniform magnitudes, uniform phases."""
    pairs = [(k, kp) for k in electron_momenta for kp in hole_momenta]
    values = _random_phased(pairs, rng, EXCITON_MAGNITUDES)
    norm = math.sqrt(sum(abs(v) ** 2 for v in values.values()))
    values = {key: v / norm for key, v in values.items()}
    return PairAmplitudeTable(TableKind.EXCITON_A, values)


def random_bcs_table(
    pair_momenta: Sequence[Momentum], rng: np.random.Generator
) -> PairAmplitudeTable:
    values = _random_phased(pair_momenta, rng, BCS_G_MAGNITUDES)
    return PairAmplitudeTable(TableKind.BCS_G, values)


def random_bogoliubov_c_table(
    pair_momenta: Sequence[Momentum], rng: np.random.Generator
) -> PairAmplitudeTable:
    values = _random_phased(pair_momenta, rng, BOGOLIUBOV_C_MAGNITUDES)
    return PairAmplitudeTable(TableKind.BOGOLIUBOV_C, values)


def random_uv_table(
    pair_momenta: Sequence[Momentum], rng: np.random.Generator
) -> PairAmplitudeTable:
    """Random (u, v) with |u|^2 - |v|^2 = 1 and |v/u| in UV_RATIOS."""
    values = {}
    for q in pair_momenta:
        r = rng.uniform(*UV_RATIOS)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        u = complex(1.0 / math.sqrt(1.0 - r * r), 0.0)
        v = r * u * complex(math.cos(phase), math.sin(phase))
        values[q] = (u, v)
    return PairAmplitudeTable(TableKind.BOGOLIUBOV_UV, values)
