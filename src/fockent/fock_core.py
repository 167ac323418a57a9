"""Occupation-number representation of many-body states.

A state lives over an ordered registry of modes.  Each mode is either
fermionic (occupation 0 or 1) or bosonic (occupation 0..cutoff).  Basis
vectors are occupation vectors (n_0, ..., n_{M-1}) understood as the
ordered product of creation operators, ascending registry index, acting
on the vacuum.  Amplitudes are stored sparsely in a dict keyed by a
mixed-radix packing of the occupation vector, so a fermion-only registry
degenerates to a plain bitmask.

Key arrays have one data type, ``_key_dtype(registry)``: int64 while
``full_dimension() <= KEY_LIMIT = 2**63``, Python integers above that.
``ManyBodyState._from_keys`` is the one way from arrays of distinct keys
and amplitudes to a state.

Sign convention: applying a fermionic creation or annihilation operator
at mode i picks up (-1)**(number of occupied fermionic modes with
registry index below i).  The count runs over fermionic modes of every
species; bosonic occupations never contribute a sign.  ``_parity_below``
is the one function that computes this parity.  Two vectorised kernels
use it: ``_operator_triplets`` applies ladder-operator terms to an array
of keys (``apply_creation``, ``apply_annihilation`` and ``dynamics``),
and ``_created`` applies creation products to the terms of a state (the
pair and exciton builders).  ``size_guard()`` (FOCKENT_SIZE_GUARD,
default 5000) bounds dense dimensions; ``_check_guard`` is the one check.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DuplicateModeError,
    NormalizationError,
    RegistryMismatchError,
    SizeGuardError,
)

PRUNE_TOL = 1e-15
KEY_LIMIT = 2**63
DEFAULT_SIZE_GUARD = 5000

Momentum = tuple[int, ...]
OccupationVector = tuple[int, ...]


class Species(Enum):
    ELECTRON = "electron"
    HOLE = "hole"
    BOSON = "boson"
    GENERIC = "generic"

    @property
    def fermionic(self) -> bool:
        return self is not Species.BOSON


class Spin(Enum):
    UP = "up"
    DOWN = "down"
    NONE = "none"


def _as_momentum(k: int | Sequence[int]) -> Momentum:
    if isinstance(k, int):
        return (k,)
    return tuple(int(x) for x in k)


@dataclass(frozen=True)
class ModeLabel:
    """Identity of a single mode: species, momentum index, spin, extra tag."""

    species: Species
    momentum: Momentum = ()
    spin: Spin = Spin.NONE
    extra: int | None = None

    @property
    def fermionic(self) -> bool:
        return self.species.fermionic

    def __str__(self) -> str:
        parts = [self.species.value, ",".join(str(x) for x in self.momentum) or "-"]
        if self.spin is not Spin.NONE:
            parts.append(self.spin.value)
        if self.extra is not None:
            parts.append(f"x{self.extra}")
        return ":".join(parts)


def electron(k: int | Sequence[int], spin: Spin = Spin.NONE) -> ModeLabel:
    return ModeLabel(Species.ELECTRON, _as_momentum(k), spin)


def hole(k: int | Sequence[int], spin: Spin = Spin.NONE) -> ModeLabel:
    return ModeLabel(Species.HOLE, _as_momentum(k), spin)


def boson(k: int | Sequence[int]) -> ModeLabel:
    return ModeLabel(Species.BOSON, _as_momentum(k))


def generic(i: int | Sequence[int]) -> ModeLabel:
    return ModeLabel(Species.GENERIC, _as_momentum(i))


def negated(k: Momentum) -> Momentum:
    return tuple(-x for x in k)


@dataclass(frozen=True)
class ModeRegistry:
    """Ordered, immutable collection of distinct mode labels.

    ``cutoffs[i]`` is the largest allowed occupation of mode i; it is 1
    for every fermionic mode.  Derived packing data (radices, strides)
    is precomputed once.
    """

    modes: tuple[ModeLabel, ...]
    cutoffs: tuple[int, ...]
    _strides: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.modes) != len(self.cutoffs):
            raise ValueError("modes and cutoffs length mismatch")
        index: dict[ModeLabel, int] = {}
        for i, label in enumerate(self.modes):
            if label in index:
                raise DuplicateModeError(f"duplicate mode label {label}")
            index[label] = i
        for i, c in enumerate(self.cutoffs):
            if self.modes[i].fermionic and c != 1:
                raise ValueError(f"fermionic mode {self.modes[i]} must have cutoff 1")
            if not self.modes[i].fermionic and c < 1:
                raise ValueError(f"bosonic mode {self.modes[i]} needs cutoff >= 1")
        strides = []
        acc = 1
        for c in self.cutoffs:
            strides.append(acc)
            acc *= c + 1
        object.__setattr__(self, "_strides", tuple(strides))
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.modes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModeRegistry):
            return NotImplemented
        return self.modes == other.modes and self.cutoffs == other.cutoffs

    def __hash__(self) -> int:
        return hash((self.modes, self.cutoffs))

    def index_of(self, label: ModeLabel) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"mode {label} not in registry") from None

    def radix(self, i: int) -> int:
        return self.cutoffs[i] + 1

    def full_dimension(self) -> int:
        return math.prod(c + 1 for c in self.cutoffs)

    def pack(self, occupations: Sequence[int]) -> int:
        self.validate_occupations(occupations)
        return sum(n * s for n, s in zip(occupations, self._strides))

    def unpack(self, key: int) -> OccupationVector:
        out = []
        for c in self.cutoffs:
            key, n = divmod(key, c + 1)
            out.append(n)
        return tuple(out)

    def occupation_at(self, key: int, i: int) -> int:
        return (key // self._strides[i]) % (self.cutoffs[i] + 1)

    def validate_occupations(self, occupations: Sequence[int]) -> None:
        if len(occupations) != len(self.modes):
            raise ValueError(
                f"occupation vector length {len(occupations)} != registry size {len(self.modes)}"
            )
        for i, n in enumerate(occupations):
            if not 0 <= n <= self.cutoffs[i]:
                raise ValueError(
                    f"occupation {n} out of range [0, {self.cutoffs[i]}] at mode {i}"
                )

    def total_number(self, key: int) -> int:
        return sum(self.unpack(key))


def registry_create(
    labels: Iterable[ModeLabel],
    cutoffs: int | Sequence[int] | Mapping[int, int] | None = None,
) -> ModeRegistry:
    """Build a registry.  ``cutoffs`` applies to bosonic modes only.

    Accepts a single int (shared by all bosonic modes), a sequence
    aligned with the bosonic modes in registry order, or a mapping from
    registry position to cutoff.
    """
    labels = tuple(labels)
    bosonic = [i for i, m in enumerate(labels) if not m.fermionic]
    per_mode = [1] * len(labels)
    if bosonic:
        if cutoffs is None:
            raise ValueError("registry has bosonic modes but no cutoffs were given")
        if isinstance(cutoffs, int):
            values = {i: cutoffs for i in bosonic}
        elif isinstance(cutoffs, Mapping):
            values = {i: int(cutoffs[i]) for i in bosonic}
        else:
            seq = list(cutoffs)
            if len(seq) != len(bosonic):
                raise ValueError(
                    f"{len(bosonic)} bosonic modes but {len(seq)} cutoffs given"
                )
            values = dict(zip(bosonic, (int(c) for c in seq)))
        for i, c in values.items():
            per_mode[i] = c
    return ModeRegistry(labels, tuple(per_mode))


@dataclass(eq=False)
class ManyBodyState:
    """Sparse amplitude table over occupation-number basis vectors.

    Treat instances as immutable: every operation returns a new state.
    ``truncated`` records that some amplitude was dropped at a bosonic
    cutoff while the state was being built.
    """

    registry: ModeRegistry
    amplitudes: dict[int, complex]
    truncated: bool = False

    @classmethod
    def from_amplitudes(
        cls,
        registry: ModeRegistry,
        mapping: Mapping[Sequence[int], complex],
        normalize: bool = False,
    ) -> "ManyBodyState":
        amps: dict[int, complex] = {}
        for occ, a in mapping.items():
            key = registry.pack(tuple(occ))
            amps[key] = amps.get(key, 0.0) + complex(a)
        state = cls(registry, _pruned(amps))
        return state.normalize() if normalize else state

    @classmethod
    def _from_keys(
        cls, registry: ModeRegistry, keys, amplitudes, truncated: bool = False
    ) -> "ManyBodyState":
        """State with ``amplitudes[i]`` at the distinct packed key ``keys[i]``.

        Drops |a| <= PRUNE_TOL, stores -0.0 parts as 0.0 (as a sum started
        from 0.0 does), keeps the array order and refuses a repeated key.
        """
        keys = np.asarray(keys, dtype=_key_dtype(registry))
        amplitudes = np.asarray(amplitudes, dtype=complex)
        kept = np.abs(amplitudes) > PRUNE_TOL
        values = (amplitudes[kept] + 0.0).tolist()
        amps = dict(zip(keys[kept].tolist(), values))
        if len(amps) < len(values):
            raise ValueError("packed keys repeat; each key may carry one amplitude")
        return cls(registry, amps, truncated)

    def amplitude(self, occupations: Sequence[int]) -> complex:
        return self.amplitudes.get(self.registry.pack(tuple(occupations)), 0.0)

    def items(self) -> Iterator[tuple[OccupationVector, complex]]:
        for key, a in self.amplitudes.items():
            yield self.registry.unpack(key), a

    @property
    def num_terms(self) -> int:
        return len(self.amplitudes)

    @property
    def is_zero(self) -> bool:
        return not self.amplitudes

    def norm(self) -> float:
        return math.sqrt(sum((a.real * a.real + a.imag * a.imag) for a in self.amplitudes.values()))

    def normalize(self) -> "ManyBodyState":
        n = self.norm()
        if n == 0.0:
            raise NormalizationError("cannot normalize a zero state")
        inv = 1.0 / n
        return ManyBodyState(
            self.registry,
            _pruned({k: a * inv for k, a in self.amplitudes.items()}),
            self.truncated,
        )

    def particle_numbers(self) -> set[int]:
        return {self.registry.total_number(k) for k in self.amplitudes}


def vacuum_state(registry: ModeRegistry) -> ManyBodyState:
    return ManyBodyState(registry, {0: 1.0 + 0.0j})


def basis_state(registry: ModeRegistry, occupations: Sequence[int]) -> ManyBodyState:
    return ManyBodyState(registry, {registry.pack(tuple(occupations)): 1.0 + 0.0j})


def _key_dtype(registry: ModeRegistry) -> type:
    """int64 while every packed key of the registry fits, else object."""
    return np.int64 if registry.full_dimension() <= KEY_LIMIT else object


def _key_array(registry: ModeRegistry, keys: Iterable[int]) -> np.ndarray:
    """Packed keys as int64; a registry whose keys do not fit is refused."""
    if _key_dtype(registry) is not np.int64:
        top = registry.full_dimension()
        raise SizeGuardError(
            f"packed keys of the {len(registry)}-mode registry reach {top - 1}, "
            f"beyond the int64 range",
            top,
            KEY_LIMIT,
        )
    return np.fromiter(keys, dtype=np.int64)


def size_guard() -> int:
    """Largest dimension a dense matrix may have: FOCKENT_SIZE_GUARD, default 5000."""
    return int(os.environ.get("FOCKENT_SIZE_GUARD", DEFAULT_SIZE_GUARD))


def _check_guard(what: str, dimension: int, guard: int | None = None) -> None:
    """Refuse a ``what`` of ``dimension`` above ``guard`` (``size_guard()`` if None)."""
    guard = size_guard() if guard is None else guard
    if dimension > guard:
        raise SizeGuardError(
            f"{what} dimension {dimension} exceeds guard {guard}", dimension, guard
        )


def _check_trajectory(registry: ModeRegistry, totals: Iterable[int], count: int) -> None:
    """Refuse ``count`` states on the sectors ``totals`` beyond guard**2 amplitudes."""
    dimension = sum(sector_dimension(registry, total) for total in totals)
    what = f"trajectory ({count} times x {dimension} basis vectors)"
    _check_guard(what, count * dimension, size_guard() ** 2)


def _grouped(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values, ascending, and the index of each entry among them.

    Same result as ``np.unique(values, return_inverse=True)``, at half the
    cost on a few terms.
    """
    ordered = values[np.argsort(values)]
    first = np.ones(len(ordered), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    distinct = ordered[first]
    return distinct, np.searchsorted(distinct, values)


def _pruned(amps: dict[int, complex]) -> dict[int, complex]:
    return {k: a for k, a in amps.items() if abs(a) > PRUNE_TOL}


def _occupations(registry: ModeRegistry, keys: np.ndarray) -> np.ndarray:
    """Occupations ``(key // stride) % radix`` in the key type, cast to int64."""
    strides = np.array(registry._strides, dtype=keys.dtype)
    radices = np.array(registry.cutoffs, dtype=keys.dtype) + 1
    return (keys[:, None] // strides % radices).astype(np.int64)


def _parity_below(registry: ModeRegistry, occupation: np.ndarray) -> np.ndarray:
    """Parity of the occupied fermionic modes below each mode (last axis).

    The one place the sign rule is computed: a fermionic ladder operator at
    mode i takes (-1)**parity[..., i] of the occupations it acts on.
    """
    fermionic = np.array([mode.fermionic for mode in registry.modes], dtype=np.int64)
    counted = occupation * fermionic
    return (np.cumsum(counted, axis=-1) - counted) & 1


def _operator_triplets(
    registry: ModeRegistry, keys: np.ndarray, terms: Iterable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply every term to each packed key in ``keys`` at once.

    ``terms`` yields ``(coefficient, operators)``, ``operators`` listing
    ``(mode, creates)`` in the order they act on a ket.  Returns ``(source,
    target, value)``: a term sends the basis vector ``keys[source]`` to
    ``value`` times the basis vector with packed key ``target``.  A value
    is the coefficient times the operator factors in acting order, and
    entries come term by term, so summing duplicates in array order adds
    each matrix element in term order.

    An operator at mode q takes ``_parity_below`` of the key it acts on:
    that of the source key, flipped by ``flip[p][q]`` for each earlier
    operator of the term at p.  Bosonic modes give sqrt factors and no
    sign.  Only the targets keep the key type of ``keys``.
    """
    strides, cutoffs = registry._strides, registry.cutoffs
    fermionic = [mode.fermionic for mode in registry.modes]
    occupation = _occupations(registry, keys)
    parity = _parity_below(registry, occupation)
    # flip[p][q]: the parity that one more or one less particle at p adds at q
    flip = _parity_below(registry, np.eye(len(registry), dtype=np.int64)).tolist()
    everything = np.arange(len(keys))
    # empty first entries, so that no terms give empty triplets
    sources, targets, values = [everything[:0]], [keys[:0]], [np.zeros(0, dtype=complex)]
    for coefficient, operators in terms:
        source = everything
        value = np.full(len(keys), coefficient)
        offset = 0
        for step, (mode, creates) in enumerate(operators):
            earlier = operators[:step]
            n = occupation[source, mode] + sum(
                1 if c else -1 for p, c in earlier if p == mode
            )
            keep = n < cutoffs[mode] if creates else n > 0
            source, value, n = source[keep], value[keep], n[keep]
            if fermionic[mode]:
                odd = parity[source, mode] ^ (sum(flip[p][mode] for p, _ in earlier) & 1)
                value = value * np.where(odd, -1.0, 1.0)
            else:
                value = value * np.sqrt(n + 1 if creates else n)
            offset += strides[mode] if creates else -strides[mode]
        sources.append(source)
        targets.append(keys[source] + offset)
        values.append(value)
    return np.concatenate(sources), np.concatenate(targets), np.concatenate(values)


def _created(registry: ModeRegistry, keys, amplitudes, modes):
    """Keys and amplitudes of creation products on the terms of a state.

    Row r creates ``modes[r, 0]``, then ``modes[r, 1]``, ... (fermionic and
    empty) on ``amplitudes[r]`` at ``keys[r]``; 1-D ``modes`` serve every row.
    """
    keys = np.asarray(keys, dtype=_key_dtype(registry))
    amplitudes = np.asarray(amplitudes, dtype=complex)
    modes = np.asarray(modes, dtype=np.intp)
    modes = np.broadcast_to(modes, (len(keys), modes.shape[-1]))
    occupation = _occupations(registry, keys)
    rows = np.arange(len(keys))
    odd = np.zeros(len(keys), dtype=np.int64)
    for column in modes.T:
        odd ^= _parity_below(registry, occupation)[rows, column]
        occupation[rows, column] += 1
    targets = keys + np.array(registry._strides, dtype=keys.dtype)[modes].sum(axis=1)
    return targets, np.where(odd, -amplitudes, amplitudes)


def _apply_ladder(state: ManyBodyState, mode: int, creates: bool) -> ManyBodyState:
    registry, count = state.registry, len(state.amplitudes)
    keys = np.fromiter(state.amplitudes, dtype=_key_dtype(registry), count=count)
    amplitudes = np.fromiter(state.amplitudes.values(), dtype=complex, count=count)
    term = (1.0 + 0.0j, ((mode, creates),))
    source, target, value = _operator_triplets(registry, keys, [term])
    # distinct sources give distinct targets, in source order
    dropped = creates and not registry.modes[mode].fermionic and len(source) < count
    truncated = state.truncated or dropped
    return ManyBodyState._from_keys(registry, target, amplitudes[source] * value, truncated)


def apply_creation(state: ManyBodyState, mode: int) -> ManyBodyState:
    """Return a^dagger_mode |state>, unnormalized.

    Fermionic branches already occupied vanish.  Bosonic branches at the
    cutoff are dropped and flagged via ``truncated``.
    """
    return _apply_ladder(state, mode, True)


def apply_annihilation(state: ManyBodyState, mode: int) -> ManyBodyState:
    """Return a_mode |state>, unnormalized."""
    return _apply_ladder(state, mode, False)


def inner_product(bra: ManyBodyState, ket: ManyBodyState) -> complex:
    """<bra|ket> with the bra amplitudes conjugated."""
    if bra.registry != ket.registry:
        raise RegistryMismatchError("inner product between different registries")
    small, large = bra.amplitudes, ket.amplitudes
    if len(small) <= len(large):
        return sum(a.conjugate() * large[k] for k, a in small.items() if k in large)
    return sum(small[k].conjugate() * a for k, a in large.items() if k in small)


def number_expectation(state: ManyBodyState, mode: int) -> float:
    """<n_mode> for a normalized state."""
    registry = state.registry
    return sum(
        registry.occupation_at(key, mode) * (a.real * a.real + a.imag * a.imag)
        for key, a in state.amplitudes.items()
    )


def superpose(terms: Sequence[tuple[complex, ManyBodyState]]) -> ManyBodyState:
    """Linear combination sum(c * state), pruned, unnormalized."""
    if not terms:
        raise ValueError("superpose needs at least one term")
    registry = terms[0][1].registry
    out: dict[int, complex] = {}
    truncated = False
    for coef, state in terms:
        if state.registry != registry:
            raise RegistryMismatchError("superpose over different registries")
        truncated = truncated or state.truncated
        for key, amp in state.amplitudes.items():
            out[key] = out.get(key, 0.0) + coef * amp
    return ManyBodyState(registry, _pruned(out), truncated)


def enumerate_sector(registry: ModeRegistry, total: int) -> list[OccupationVector]:
    """All occupation vectors with the given total particle number.

    Deterministic order: lexicographic with mode 0 most significant.
    """
    out: list[OccupationVector] = []
    cutoffs = registry.cutoffs
    M = len(cutoffs)
    suffix_max = [0] * (M + 1)
    for i in range(M - 1, -1, -1):
        suffix_max[i] = suffix_max[i + 1] + cutoffs[i]

    def rec(i: int, remaining: int, prefix: list[int]) -> None:
        if i == M:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        if remaining > suffix_max[i]:
            return
        for n in range(0, min(cutoffs[i], remaining) + 1):
            prefix.append(n)
            rec(i + 1, remaining - n, prefix)
            prefix.pop()

    rec(0, total, [])
    return out


def sector_dimension(registry: ModeRegistry, total: int) -> int:
    """Count of occupation vectors with the given total, without materializing."""
    ways = [1] + [0] * total
    for c in registry.cutoffs:
        new = [0] * (total + 1)
        for r in range(total + 1):
            w = ways[r]
            if w:
                for n in range(0, min(c, total - r) + 1):
                    new[r + n] += w
        ways = new
    return ways[total]
