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
and finite amplitudes to a state; its core, ``_from_rows``, checks a
whole (states x keys) array of amplitudes at once, prunes it row by row
and takes it over without a copy, on keys known to be distinct, as a
trajectory needs.  ``_summed`` is the one sum of values by key, and
``_Sector`` the one index of a fixed-N sector.  From one table of
counts it gives the sector's dimension (``sector_dimension``), its keys
in the one sector order (``_sector_keys``; ``enumerate_sector`` is their
unpacked view) and the rank of a key in that order, by one rule for
every group of modes: one gather from the group's table over (particles
left, digits), and no search.  The keys own the sector check, so no
sector larger than ``size_guard()`` is built; the table of counts, one
numpy array, is refused beyond guard**2 cells when the sector holds
more particles than the guard.
Sums over terms run left to right (``_running_sum``, ``_summed``) and
complex products part by part (``_times``), so they round exactly as
Python's scalar arithmetic does.

Sign convention: applying a fermionic creation or annihilation operator
at mode i picks up (-1)**(number of occupied fermionic modes with
registry index below i).  The count runs over fermionic modes of every
species; bosonic occupations never contribute a sign.  ``_parity_below``
is the one function that computes this parity, and ``_term_run`` states
its rule for one particle more or less: that flips the parity below mode
q exactly when its mode p is fermionic and p < q.  ``_operator_triplets``
is the one kernel that applies ladder operators.  It applies a term table
of ladder-operator products to an array of keys: each run of terms of one
length (built by ``_term_run``, with each operator's same-mode occupation
shift and parity flip; a run may have no operators) acts on all keys at
once, on (terms x keys) arrays, and its survivors are compacted once, term
by term.  ``apply_creation`` and ``apply_annihilation`` pass it a one-term
table, the pair and exciton builders of ``states`` their creation products
(on the vacuum key, or one pair on the terms built so far), and
``dynamics`` the terms of H on chunks of a sector's keys.  ``_mode_index``
is the one check of a mode index, here and in ``entanglement``.
``size_guard()`` (FOCKENT_SIZE_GUARD, default 5000) bounds dense
dimensions; ``_check_guard`` is the one check of a dimension and
``_check_elements`` of the element budget, guard**2.

The JSON loaders of ``states`` and ``dynamics`` open a source with
``_json_payload`` and read its fields with the ``_json_*`` readers at
the end of this module (``_json_complex`` is the one reader of a complex
number, which refuses NaN and infinities), so a wrongly shaped or
non-finite field, or a repeated entry, raises a one-line ValueError.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import operator
import os
import reprlib
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
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
    _fermionic: np.ndarray = field(init=False, repr=False, compare=False)

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
        fermionic = np.array([mode.fermionic for mode in self.modes], dtype=bool)
        fermionic.flags.writeable = False
        object.__setattr__(self, "_fermionic", fermionic)

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

        Refuses a NaN or infinite amplitude, drops |a| <= PRUNE_TOL, stores
        -0.0 parts as 0.0 (as a sum started from 0.0 does), keeps the array
        order and refuses a repeated key.  The state keeps copies of ``keys``
        and ``amplitudes``, which are left as they are.
        """
        keys = np.array(keys, dtype=_key_dtype(registry))
        amplitudes = np.array(amplitudes, dtype=complex)
        [state] = cls._from_rows(registry, keys, amplitudes[None], truncated)
        ordered = np.sort(state.keys)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValueError("packed keys repeat; each key may carry one amplitude")
        return state

    @classmethod
    def _from_rows(
        cls, registry: ModeRegistry, keys: np.ndarray, rows: np.ndarray, truncated: bool = False
    ) -> list["ManyBodyState"]:
        """One state per row of ``rows``, a (states x keys) array, with
        ``rows[s, i]`` at ``keys[i]``, keys that are trusted to be distinct
        and of the registry's key type.

        The whole array is checked at once and pruned row by row, as
        ``_from_keys`` does one state, so the prune's temporaries are one
        row's size.  It takes ``rows`` over: its -0.0 parts become 0.0
        in place, and each state's values are a read-only row of it, or a
        pruned copy of one.  ``keys`` becomes read-only and is shared by
        every row that prunes nothing.
        """
        if not np.isfinite(rows).all():
            bad = rows[~np.isfinite(rows)]
            raise ValueError(f"amplitude {bad[0]} is not finite")
        rows += 0.0
        keys.flags.writeable = False
        states = []
        for row in rows:
            mask = np.abs(row) > PRUNE_TOL
            row_keys = keys
            if not mask.all():
                row_keys, row = keys[mask], row[mask]
                row_keys.flags.writeable = False
            row.flags.writeable = False
            states.append(cls(registry, row_keys, row, truncated))
        return states

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
        with np.errstate(over="ignore"):  # an overflowing norm is refused below
            n = self.norm()
        if n == 0.0:
            raise NormalizationError("cannot normalize a zero state")
        if not math.isfinite(n):
            raise NormalizationError(f"cannot normalize a state whose norm is {n}")
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


def _refuse_above(what: str, size: int, guard: int) -> None:
    if size > guard:
        raise SizeGuardError(f"{what} dimension {size} exceeds guard {guard}", size, guard)


def _check_guard(what: str, dimension: int) -> None:
    """Refuse a ``what`` of ``dimension`` above ``size_guard()``."""
    _refuse_above(what, dimension, size_guard())


def _check_elements(what: str, count: int) -> None:
    """Refuse a ``what`` of ``count`` elements above the element budget, guard**2."""
    _refuse_above(what, count, size_guard() ** 2)


def _check_trajectory(dimensions: Iterable[int], count: int) -> None:
    """Refuse ``count`` states on sectors of ``dimensions`` beyond guard**2 amplitudes."""
    dimension = sum(dimensions)
    _check_elements(f"trajectory ({count} times x {dimension} basis vectors)", count * dimension)


def _row_groups(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a 2-D array: the index of each entry among the row's
    distinct values, ascending, and the number of distinct values.

    One sort of every row at once.  The index is counted along the sorted
    order (one more at each first entry of a group) and scattered back
    through it, so no search is needed.
    """
    count, width = values.shape
    order = values.argsort(axis=1)
    if count > 1:  # flat positions
        order += np.arange(count)[:, None] * width
    order = order.reshape(-1)
    ordered = values.reshape(-1)[order].reshape(count, width)
    group = np.zeros((count, width), dtype=np.intp)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=group[:, 1:])
    np.add.accumulate(group, axis=1, out=group)
    slot = np.empty(count * width, dtype=np.intp)
    slot[order] = group.reshape(-1)
    sizes = group[:, -1] + 1 if width else np.zeros(count, dtype=np.intp)
    return slot.reshape(count, width), sizes


def _grouped(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values, ascending, and the index of each entry among them:
    ``np.unique(values, return_inverse=True)`` as one row of ``_row_groups``."""
    slot, sizes = _row_groups(values.reshape(1, -1))
    distinct = np.empty(sizes[0], dtype=values.dtype)
    distinct[slot[0]] = values
    return distinct, slot[0]


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
    counted = occupation * registry._fermionic
    return (np.cumsum(counted, axis=-1) - counted) & 1


def _term_run(registry: ModeRegistry, coefficients, modes, creates):
    """One run of a term table: terms of one length, in term order.

    ``modes[s, t]`` is the mode of term t's s-th operator, in the order
    the operators act on a ket, and ``creates[s]`` says whether the s-th
    operator of every term creates; a run may have no operators.  Returns
    ``(coefficients, modes, creates, shifts, flips)``: ``shifts[s, t]`` is
    the change that the earlier operators of term t make to the occupation
    of its s-th mode (one more for each creation there, one less for each
    annihilation), and ``flips[s, t]`` the parity they add below it.  One
    particle more or less at mode p flips the parity below mode q exactly
    when p is fermionic and p < q, as ``_parity_below`` counts.
    """
    modes = np.asarray(modes, dtype=np.intp)
    shifts = np.zeros(modes.shape, dtype=np.int64)
    flips = np.zeros(modes.shape, dtype=bool)
    for earlier, s in itertools.combinations(range(len(modes)), 2):
        shifts[s] += (modes[earlier] == modes[s]) * (1 if creates[earlier] else -1)
        flips[s] ^= registry._fermionic[modes[earlier]] & (modes[earlier] < modes[s])
    return np.asarray(coefficients, dtype=complex), modes, tuple(creates), shifts, flips


def _operator_triplets(
    registry: ModeRegistry, keys: np.ndarray, table: Sequence
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Apply every term of a term table to each packed key in ``keys``.

    ``table`` lists runs of terms of one length, each as ``_term_run``
    returns it.  Returns ``(source, target, value)``: a term sends the
    basis vector ``keys[source]`` to ``value`` times the basis vector with
    packed key ``target``.  Entries come run by run, and within a run
    term by term, each term's in ascending source order, so summing
    duplicates in array order adds each matrix element in term order.

    A run acts on all keys at once, on (terms x keys) arrays.  The
    operator at step s of a term meets the occupation n of its mode in
    the source key plus the term's shift there.  The term survives on a
    key when every creation meets n < cutoff and every annihilation
    n > 0, that is when each source occupation o lies in [low, low +
    cutoff), low = 0 for a creation and 1 for an annihilation, less the
    shift; in an unsigned type that holds cutoff + term length, that is
    o - low < cutoff with wrap-around.  The survivors are compacted once,
    and each value is the coefficient times the operator factors in
    acting order: at a fermionic mode (-1)**(``_parity_below`` of the
    source key, flipped by the term's flip there), at a bosonic one
    sqrt(n + 1) for a creation and sqrt(n) for an annihilation.  Only the
    targets keep the key type of ``keys``.
    """
    count = len(keys)
    occupation = _occupations(registry, keys)
    parity = _parity_below(registry, occupation)
    strides = np.array(registry._strides, dtype=keys.dtype)
    bosonic = not registry._fermionic.all()
    # empty first entries, so that an empty table gives empty triplets
    sources, targets = [np.zeros(0, dtype=np.intp)], [keys[:0]]
    values = [np.zeros(0, dtype=complex)]
    for coefficients, modes, creates, shifts, flips in table:
        # the occupations by mode, one row each, in the least unsigned type
        # that holds cutoff + term length
        small = np.min_scalar_type(max(registry.cutoffs, default=0) + len(modes))
        rows = np.ascontiguousarray(occupation.T, dtype=small)
        cutoff = np.array(registry.cutoffs, dtype=small)
        keep = np.ones((len(coefficients), count), dtype=bool)
        offset = np.zeros(len(coefficients), dtype=keys.dtype)
        for mode, create, shift in zip(modes, creates, shifts):
            low = ((0 if create else 1) - shift).astype(small)
            keep &= np.take(rows, mode, axis=0) - low[:, None] < cutoff[mode, None]
            offset = offset + (strides[mode] if create else -strides[mode])
        cells = keep.ravel().nonzero()[0]
        term = cells // count
        source = cells - term * count
        value = coefficients[term]
        for mode, create, shift, flip in zip(modes, creates, shifts, flips):
            # where the operator reads the source key in the flat (key, mode) arrays
            at = source * len(registry) + mode[term]
            factor = 1.0 - 2.0 * (parity.reshape(-1)[at] ^ flip[term])
            if bosonic:
                n = occupation.reshape(-1)[at] + (shift + create)[term]
                factor = np.where(registry._fermionic[mode[term]], factor, np.sqrt(n))
            value *= factor
        sources.append(source)
        targets.append(keys[source] + offset[term])
        values.append(value)
    return np.concatenate(sources), np.concatenate(targets), np.concatenate(values)


def _mode_index(size: int, i) -> int:
    """The one rule for a mode index of a registry of ``size`` modes: what
    ``operator.index`` takes, except bool, in [0, size)."""
    try:
        if isinstance(i, (bool, np.bool_)):
            raise TypeError
        index = operator.index(i)
    except TypeError:
        raise ValueError(f"mode index {i!r} is not an integer") from None
    if not 0 <= index < size:
        raise ValueError(f"mode index {index} outside registry of size {size}")
    return index


def _apply_ladder(state: ManyBodyState, mode: int, creates: bool) -> ManyBodyState:
    registry = state.registry
    mode = _mode_index(len(registry), mode)
    term = _term_run(registry, [1.0], [[mode]], (creates,))
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
    registry = state.registry
    mode = _mode_index(len(registry), mode)
    digit = state.keys // registry._strides[mode] % registry.radix(mode)
    occupation = digit.astype(np.int64)
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


# A sector's rank reads one table for each group of consecutive modes, at
# the group's digits of a key.  A registry of at most RANK_ONE basis vectors
# is one group, whose table is the keys' own index: index, keys and the rank
# of ten keys a basis vector took 31 / 41 / 70 us as one group against
# 110 / 112 / 123 us as two, at 4 / 6 / 8 fermion modes and half filling.
# Otherwise groups take modes while their patterns number at most the power
# of two at or above the square root of the full dimension, and at most
# RANK_TABLE: two groups up to 2**24 basis vectors.
RANK_ONE = 1 << 8
RANK_TABLE = 1 << 12


class _Sector:
    """The sector of ``total`` particles, indexed by counting.

    ``after[i, r]`` is the number of ways the modes after mode i hold at
    most r particles, r = 0 .. total: one (modes x (total + 1)) array, each
    row from the next by one shifted subtraction and one cumulative sum.
    Above ``size_guard()`` particles it is refused beyond guard**2 cells
    before it is allocated.  ``dimension`` is the number of basis
    vectors, 0 for a negative or over-full total.  In the one sector
    order, lexicographic in the occupations with mode 0 most significant,
    the basis vectors before a key are counted mode by mode: with left_i
    particles on the modes i, i + 1, ... and n_i on mode i, those with
    fewer on mode i number after[i, left_i] - after[i, left_i - n_i].

    Within a group of modes a .. b - 1 that sum depends only on the
    group's digits and on left_a, the particles on the group's modes and
    the modes after it.  So every group has one table over the (left_a,
    digits) that the sector reaches, and ``rank`` is one table gather a
    group (Lin, PRB 42, 6561 (1990)): left_a is ``total`` for the first
    group, and each group's digit sum is taken off it for the next.  The
    first group (left_a = ``total``) and the last (left_a = its digit
    sum) so have one entry a pattern, and a single group's table is the
    keys' own index.  ``keys`` is built from the same groups and owns the
    sector check, so no sector larger than ``size_guard()`` is built.  A
    group's last mode holds at most ``total`` particles, so a mode of a
    large cutoff adds at most total + 1 patterns.
    """

    def __init__(self, registry: ModeRegistry, total: int) -> None:
        self.registry, self.total = registry, total
        self.dtype = _key_dtype(registry)
        self.dimension = 0
        cutoffs = registry.cutoffs
        if 0 <= total <= sum(cutoffs):
            # at most guard + 1 cells a mode below: there the keys' sector check speaks first
            if total > size_guard():
                _check_elements(f"sector N={total} table of counts", len(cutoffs) * (total + 1))
            # the modes after mode 0 hold at most half the full dimension, so
            # int64 for int64 keys; the row of all modes may reach 2**63
            dtype = np.int64 if self.dtype is np.int64 else object
            # at most r particles on no modes: one way for every r >= 0
            self.after = after = np.ones((len(cutoffs), total + 1), dtype)
            for i in range(len(cutoffs) - 2, -1, -1):
                # exactly r on mode i + 1 and after it, then at most r
                c, ways, row = cutoffs[i + 1], after[i], after[i + 1]
                np.subtract(row[c + 1 :], row[: max(total - c, 0)], out=ways[c + 1 :])
                ways[: c + 1] = row[: c + 1]
                np.cumsum(ways, out=ways)
            self.dimension = 1  # no modes: the one empty pattern
            if len(cutoffs):  # exactly total: mode 0 holds at most its cutoff
                low = total - cutoffs[0] - 1
                self.dimension = int(after[0, total]) - (int(after[0, low]) if low >= 0 else 0)

    @functools.cached_property
    def _groups(self) -> list:
        """(first mode, its stride, occupations) for each group: pattern d
        of a group has the occupations ``occupations[d]``, one column a
        mode, and adds d times the stride to a key."""
        registry = self.registry
        if not len(registry):  # no modes: one group of the one empty pattern
            return [(0, 1, np.zeros((1, 0), dtype=np.int64))]
        full = registry.full_dimension()
        root = 1 << ((full - 1).bit_length() + 1) // 2
        limit = full if full <= RANK_ONE else min(RANK_TABLE, root)
        bounds, size = [0], 1
        for i, c in enumerate(registry.cutoffs):
            if i > bounds[-1] and size * (c + 1) > limit:
                bounds.append(i)
                size = 1
            size *= c + 1
        groups = []
        for a, b in zip(bounds, bounds[1:] + [len(registry)]):
            stride = registry._strides[a]
            steps = np.array([step // stride for step in registry._strides[a:b]])
            patterns = int(steps[-1]) * (min(registry.cutoffs[b - 1], self.total) + 1)
            radices = np.array(registry.cutoffs[a:b]) + 1
            occupations = np.arange(patterns)[:, None] // steps % radices
            groups.append((a, stride, occupations))
        return groups

    @functools.cached_property
    def keys(self) -> np.ndarray:
        """Packed keys of the sector, in the key type, in the one sector order.

        ``tail`` holds the keys of the modes a, a + 1, ... for each total r
        they hold, r ascending and each r in sector order, from
        ``first[r + 1]`` to ``first[r + 2]``.  It starts as the last
        group's patterns, by r and then lexicographically; each group
        before it, from the last, puts each of its patterns, in
        lexicographic order, in front of the keys that make up r.  Only
        totals that the modes before a can complete to ``total`` are kept.
        """
        _check_guard(f"sector N={self.total}", self.dimension)
        if not self.dimension:
            return np.zeros(0, dtype=self.dtype)
        registry, total = self.registry, self.total
        *heads, (_, stride, occupations) = self._groups
        sums = occupations.sum(axis=1)
        tail = np.lexsort((*occupations.T[::-1], sums)).astype(self.dtype) * stride
        first = np.zeros(total + 3, dtype=np.int64)
        np.cumsum(np.bincount(sums, minlength=total + 1)[: total + 1], out=first[2:])
        for a, stride, occupations in reversed(heads):
            lex = np.lexsort(occupations.T[::-1])
            low = max(0, total - sum(registry.cutoffs[:a]))
            need = np.arange(low, total + 1)[:, None] - occupations[lex].sum(axis=1)
            need = np.maximum(need, -1)
            count = first[need + 2] - first[need + 1]
            rows, cols = count.nonzero()
            run = count[rows, cols]
            into = np.repeat(first[need[rows, cols] + 1] - (np.cumsum(run) - run), run)
            lead = lex[cols].astype(self.dtype) * stride
            tail = np.repeat(lead, run) + tail[into + np.arange(len(into))]
            first = np.zeros(total + 3, dtype=np.int64)
            np.cumsum(count.sum(axis=1), out=first[low + 2 :])
        return tail[first[total + 1] : first[total + 2]]

    @functools.cached_property
    def _tables(self) -> list:
        """(digit span, offsets, table, digit sums) for each group: the
        group's digits d of a key are key // stride % span, and with r
        particles on the group's modes and the modes after it, its share of
        the key's rank is table[offsets[d] + r].  The table holds the r
        that the sector reaches with digits d, from the larger of their sum
        and what the modes before the group cannot hold to the smaller of
        ``total`` and their sum plus what the modes after it can hold."""
        total, cutoffs = self.total, self.registry.cutoffs
        groups = self._groups
        if len(groups) == 1:  # r = total, and table[d] is the keys' own index
            table = np.zeros(len(groups[0][2]), dtype=np.int64)
            table[self.keys] = np.arange(self.dimension)
            return [(None, np.arange(len(table)) - total, table, None)]
        tables = []
        strides = [stride for _, stride, _ in groups[1:]] + [None]
        for (a, stride, occupations), end in zip(groups, strides):
            b = a + occupations.shape[1]
            sums = occupations.sum(axis=1)
            low = np.maximum(sums, total - sum(cutoffs[:a]))
            count = np.maximum(np.minimum(sums + sum(cutoffs[b:]), total) - low + 1, 0)
            offsets = np.cumsum(count) - count - low
            d = np.repeat(np.arange(len(sums)), count)
            r = np.arange(len(d)) - offsets[d]
            # left[i, m]: particles on mode a + m and after it, for entry i's (r, d)
            left = r[:, None] - (np.cumsum(occupations, axis=1) - occupations)[d]
            modes = np.arange(a, b)
            table = (self.after[modes, left] - self.after[modes, left - occupations[d]]).sum(axis=1)
            span = None if end is None else end // stride
            tables.append((span, offsets, table, sums))
        return tables

    def rank(self, targets: np.ndarray) -> np.ndarray:
        """The index in ``keys`` of each of the packed keys ``targets``,
        int64; int64 keys only, each in the sector."""
        if not self.dimension:
            return np.zeros(len(targets), dtype=np.int64)
        tables = self._tables
        rest, r, rank = targets, self.total, 0
        for span, offsets, table, sums in tables[:-1]:
            rest, digits = np.divmod(rest, span)
            rank = rank + table[offsets[digits] + r]
            r = r - sums[digits]
        _, offsets, table, _ = tables[-1]
        return rank + table[offsets[rest] + r]


def _sector_keys(registry: ModeRegistry, total: int) -> np.ndarray:
    """Packed keys of the sector with ``total`` particles, in the key type,
    in the one sector order (``_Sector.keys``)."""
    return _Sector(registry, total).keys


def enumerate_sector(registry: ModeRegistry, total: int) -> list[OccupationVector]:
    """All occupation vectors with the given total particle number, in
    ``_sector_keys`` order (lexicographic, mode 0 most significant)."""
    occupations = _occupations(registry, _sector_keys(registry, total))
    return list(map(tuple, occupations.tolist()))


def sector_dimension(registry: ModeRegistry, total: int) -> int:
    """Count of occupation vectors with the given total, without
    materializing them.  Raises SizeGuardError for a total above
    ``size_guard()`` whose table of counts, modes x (total + 1) cells,
    exceeds guard**2 (``_Sector``)."""
    return _Sector(registry, total).dimension


# ---------------------------------------------------------------------------
# JSON readers


def _json_payload(source: str | Path | Mapping, what: str) -> Mapping:
    """The JSON object read from a file path, or ``source`` if already parsed."""
    if isinstance(source, (str, Path)):
        source = json.loads(Path(source).read_text())
    return _json_expect(source, "object", what)


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
    """The one reader of a JSON complex number: a number or an [re, im] pair,
    finite (Python's json reads NaN, Infinity and 1e999 as floats)."""
    pair = isinstance(value, (list, tuple)) and len(value) == 2
    parts = value if pair else (value, 0.0)
    if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in parts):
        raise ValueError(
            f"{what} must be a number or an [re, im] pair, got {reprlib.repr(value)}"
        )
    try:
        z = complex(float(parts[0]), float(parts[1]))
    except OverflowError:
        raise ValueError(f"{what} {reprlib.repr(value)} is beyond the float range") from None
    if not np.isfinite(z):
        raise ValueError(f"{what} {reprlib.repr(value)} is not a finite number")
    return z
