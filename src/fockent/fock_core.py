"""Occupation-number representation of many-body states.

A state lives over an ordered registry of modes.  Each mode is either
fermionic (occupation 0 or 1) or bosonic (occupation 0..cutoff).  Basis
vectors are occupation vectors (n_0, ..., n_{M-1}) understood as the
ordered product of creation operators, ascending registry index, acting
on the vacuum.  A state stores its terms sparsely as two read-only
arrays: the mixed-radix packing of each occupation vector (so a
fermion-only registry degenerates to a plain bitmask) and its complex
amplitude.  ``ManyBodyState.amplitudes`` is a dict view built on request.

Key arrays have one data type, ``_key_dtype(registry)``: int64 while
``full_dimension() <= KEY_LIMIT = 2**63``, Python integers above that.
``ManyBodyState._from_keys`` is the one way from arrays of distinct keys
and amplitudes to a state, ``_summed`` the one sum of values by key, and
``_sector_keys`` the one builder of a fixed-N sector's keys, in the one
sector order (``enumerate_sector`` is its unpacked view).  Sums over
terms run left to right (``_running_sum``, ``_summed``) and complex
products part by part (``_times``), so they round exactly as Python's
scalar arithmetic does.

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

The JSON loaders of ``states`` and ``dynamics`` read their fields with
the ``_json_*`` readers at the end of this module (``_json_complex`` is
the one reader of a complex number), so a wrongly shaped field is
refused with a one-line ValueError.
"""

from __future__ import annotations

import math
import numbers
import os
import reprlib
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

    ``values[i]`` is the amplitude of the basis vector with the packed key
    ``keys[i]``; keys are distinct and both arrays are read-only, so every
    operation returns a new state.  ``truncated`` records that some
    amplitude was dropped at a bosonic cutoff while the state was being
    built.
    """

    registry: ModeRegistry
    keys: np.ndarray
    values: np.ndarray
    truncated: bool = False

    @classmethod
    def from_amplitudes(
        cls,
        registry: ModeRegistry,
        mapping: Mapping[Sequence[int], complex],
        normalize: bool = False,
    ) -> "ManyBodyState":
        keys = [registry.pack(tuple(occ)) for occ in mapping]
        values = [complex(a) for a in mapping.values()]
        merged = _merged(np.asarray(keys, dtype=_key_dtype(registry)), np.asarray(values))
        state = cls._from_keys(registry, *merged)
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
        keys, values = keys[kept], amplitudes[kept] + 0.0
        ordered = np.sort(keys)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("packed keys repeat; each key may carry one amplitude")
        keys.flags.writeable = values.flags.writeable = False
        return cls(registry, keys, values, truncated)

    @property
    def amplitudes(self) -> dict[int, complex]:
        """A new dict {packed key: amplitude}, in array order."""
        return dict(zip(self.keys.tolist(), self.values.tolist()))

    def amplitude(self, occupations: Sequence[int]) -> complex:
        found = self.values[self.keys == self.registry.pack(tuple(occupations))]
        return complex(found[0]) if len(found) else 0.0

    def items(self) -> Iterator[tuple[OccupationVector, complex]]:
        for key, a in zip(self.keys.tolist(), self.values.tolist()):
            yield self.registry.unpack(key), a

    @property
    def num_terms(self) -> int:
        return len(self.keys)

    @property
    def is_zero(self) -> bool:
        return len(self.keys) == 0

    def norm(self) -> float:
        v = self.values
        return math.sqrt(_running_sum(v.real * v.real + v.imag * v.imag))

    def normalize(self) -> "ManyBodyState":
        n = self.norm()
        if n == 0.0:
            raise NormalizationError("cannot normalize a zero state")
        scaled = _times(self.values, 1.0 / n)
        return ManyBodyState._from_keys(self.registry, self.keys, scaled, self.truncated)

    def particle_numbers(self) -> set[int]:
        return set(_occupations(self.registry, self.keys).sum(axis=1).tolist())


def vacuum_state(registry: ModeRegistry) -> ManyBodyState:
    return ManyBodyState._from_keys(registry, [0], [1.0])


def basis_state(registry: ModeRegistry, occupations: Sequence[int]) -> ManyBodyState:
    return ManyBodyState._from_keys(registry, [registry.pack(tuple(occupations))], [1.0])


def _key_dtype(registry: ModeRegistry) -> type:
    """int64 while every packed key of the registry fits, else object."""
    return np.int64 if registry.full_dimension() <= KEY_LIMIT else object


def _check_int64_keys(registry: ModeRegistry) -> None:
    """Refuse a registry whose packed keys do not fit int64."""
    if _key_dtype(registry) is not np.int64:
        top = registry.full_dimension()
        raise SizeGuardError(
            f"packed keys of the {len(registry)}-mode registry reach {top - 1}, "
            f"beyond the int64 range",
            top,
            KEY_LIMIT,
        )


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
    cost on a few terms.  The index is counted along the sorted order (one
    more at each first entry of a group) and scattered back through it, so
    no search is needed.
    """
    order = values.argsort()
    ordered = values[order]
    group = np.zeros(len(ordered), dtype=np.intp)
    np.not_equal(ordered[1:], ordered[:-1], out=group[1:])
    np.add.accumulate(group, out=group)
    slot = np.empty_like(group)
    slot[order] = group
    distinct = np.empty(group[-1] + 1 if len(group) else 0, dtype=ordered.dtype)
    distinct[group] = ordered
    return distinct, slot


def _summed(keys: np.ndarray, values: np.ndarray):
    """The one sum by key: distinct keys, ascending, each with 0.0 plus its
    values in array order, and the index of each entry among the keys."""
    distinct, slot = _grouped(keys)
    summed = np.zeros(len(distinct), dtype=complex)
    np.add.at(summed, slot, values)
    return distinct, summed, slot


def _merged(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct keys in order of first appearance, each with 0.0 plus its
    values in array order, as a dict accumulates them."""
    distinct, summed, slot = _summed(keys, values)
    first = np.full(len(distinct), len(keys))
    np.minimum.at(first, slot, np.arange(len(keys)))
    order = np.argsort(first)
    return distinct[order], summed[order]


def _running_sum(x: np.ndarray) -> np.generic:
    """0.0 + x[0] + x[1] + ..., left to right as Python's ``sum`` adds
    (``np.sum`` adds pairwise, which changes last bits)."""
    return np.cumsum(np.concatenate((np.zeros(1, dtype=x.dtype), x)))[-1]


def _times(a: np.ndarray, p) -> np.ndarray:
    """a * p, part by part as Python multiplies complex numbers (numpy's
    complex multiply may fuse multiply-adds, which changes last bits)."""
    real = a.real * p.real - a.imag * p.imag
    return real + 1j * (a.real * p.imag + a.imag * p.real)


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
    registry = state.registry
    term = (1.0 + 0.0j, ((mode, creates),))
    source, target, value = _operator_triplets(registry, state.keys, [term])
    # distinct sources give distinct targets, in source order
    dropped = creates and not registry.modes[mode].fermionic and len(source) < state.num_terms
    truncated = state.truncated or dropped
    return ManyBodyState._from_keys(registry, target, state.values[source] * value, truncated)


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
    """<bra|ket> with the bra amplitudes conjugated, summed in the term order
    of the state with fewer terms (the bra on a tie)."""
    if bra.registry != ket.registry:
        raise RegistryMismatchError("inner product between different registries")
    shared = np.intersect1d(bra.keys, ket.keys, assume_unique=True, return_indices=True)
    in_bra, in_ket = shared[1:]
    order = np.argsort(in_bra if bra.num_terms <= ket.num_terms else in_ket)
    products = _times(bra.values[in_bra[order]].conj(), ket.values[in_ket[order]])
    return complex(_running_sum(products))


def number_expectation(state: ManyBodyState, mode: int) -> float:
    """<n_mode> for a normalized state."""
    occupation = _occupations(state.registry, state.keys)[:, mode]
    v = state.values
    return float(_running_sum(occupation * (v.real * v.real + v.imag * v.imag)))


def superpose(terms: Sequence[tuple[complex, ManyBodyState]]) -> ManyBodyState:
    """Linear combination sum(c * state), pruned, unnormalized; keys in order
    of first appearance, each amplitude summed in term order."""
    if not terms:
        raise ValueError("superpose needs at least one term")
    registry = terms[0][1].registry
    if any(state.registry != registry for _, state in terms):
        raise RegistryMismatchError("superpose over different registries")
    keys = np.concatenate([state.keys for _, state in terms])
    values = np.concatenate([_times(state.values, coef) for coef, state in terms])
    truncated = any(state.truncated for _, state in terms)
    return ManyBodyState._from_keys(registry, *_merged(keys, values), truncated)


def _sector_keys(registry: ModeRegistry, total: int) -> np.ndarray:
    """Packed keys of the sector with ``total`` particles, in the key type.

    The one sector order: lexicographic in the occupations, mode 0 most
    significant.  Built from the last mode to the first: ``keys[r]`` holds
    the keys of the modes seen so far with r particles, and mode i puts
    ``n * stride + keys[r - n]`` in front for each allowed n.  Totals that
    the modes still to come cannot complete to ``total`` are left empty.
    """
    empty = np.zeros(0, dtype=_key_dtype(registry))
    if total < 0:
        return empty
    keys = [np.zeros(1, dtype=empty.dtype)] + [empty] * total
    before = sum(registry.cutoffs)
    for stride, cutoff in zip(reversed(registry._strides), reversed(registry.cutoffs)):
        before -= cutoff  # the most particles the modes before this one hold
        keys = [
            np.concatenate([n * stride + keys[r - n] for n in range(min(cutoff, r) + 1)])
            if r + before >= total
            else empty
            for r in range(total + 1)
        ]
    return keys[total]


def enumerate_sector(registry: ModeRegistry, total: int) -> list[OccupationVector]:
    """All occupation vectors with the given total particle number, in
    ``_sector_keys`` order (lexicographic, mode 0 most significant)."""
    occupations = _occupations(registry, _sector_keys(registry, total))
    return list(map(tuple, occupations.tolist()))


def sector_dimension(registry: ModeRegistry, total: int) -> int:
    """Count of occupation vectors with the given total, without materializing."""
    if total < 0:
        return 0
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


# ---------------------------------------------------------------------------
# JSON readers


def _json_expect(value, kind: str, what: str):
    """``value`` if it is a JSON ``kind``, "array" or "object"."""
    if not isinstance(value, {"array": (list, tuple), "object": Mapping}[kind]):
        raise ValueError(f"{what} must be an {kind}, got {reprlib.repr(value)}")
    return value


def _json_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {reprlib.repr(value)}")
    return int(value)


def _json_ints(value, what: str) -> tuple[int, ...]:
    return tuple(_json_int(x, what) for x in _json_expect(value, "array", what))


def _json_complex(value, what: str) -> complex:
    """The one reader of a JSON complex number: a number or an [re, im] pair."""
    pair = isinstance(value, (list, tuple)) and len(value) == 2
    parts = value if pair else (value, 0.0)
    if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in parts):
        raise ValueError(
            f"{what} must be a number or an [re, im] pair, got {reprlib.repr(value)}"
        )
    try:
        return complex(float(parts[0]), float(parts[1]))
    except OverflowError:
        raise ValueError(f"{what} {reprlib.repr(value)} is beyond the float range") from None
