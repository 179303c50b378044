"""Deterministic mergeable aggregates for the fleet analytics tier.

A fleet rollup folds values from millions of sessions across many shard
processes, offline batch folds and crash/replay recoveries — and the whole
point of the tier (DESIGN.md §10) is that every one of those paths produces
the *bit-identical* aggregate.  That rules out two standard ingredients:

* **floating-point accumulation** — float sums depend on fold order, so
  every sum here is an exact integer: values are scaled by ``2**20`` and
  rounded once on entry (:func:`scaled`), after which addition is
  arbitrary-precision integer arithmetic and therefore associative and
  commutative;
* **data-dependent bucket boundaries** — a true t-digest compresses
  centroids as it grows, so ``merge(a, b)`` and ``merge(b, a)`` diverge.
  The :class:`CentroidSketch` keeps the t-digest's *estimate* (interpolate
  between per-cluster means) but pins the cluster boundaries to a fixed
  log-spaced partition of the value axis, making its state a pure function
  of the value multiset.

Every sketch's state is consequently **order- and chunking-invariant**: any
partition of a value multiset, folded in any order across any number of
sketch instances and merged, yields byte-identical state (pinned by the
property tests in ``tests/test_fleet_analytics.py``).  All state is O(1) in
the number of values folded.

Each sketch folds through two bodies that a property test pins equal: the
scalar :meth:`~MergeableSketch.add` — python arithmetic on one value, the
form every production caller uses (one window or one session at a time) —
and the bulk :meth:`~MergeableSketch.add_many`.  Both **refuse** a value the
fixed point cannot hold (NaN, ±inf, magnitude of ``2**43`` or more) with a
``ValueError`` before any state changes.

Three concrete sketches behind one :class:`MergeableSketch` API:

=====================  ======================================================
:class:`StatsAccumulator`   count / exact sum / min / max (no quantiles)
:class:`LogBucketHistogram` fixed log-spaced bins; quantiles within a
                            relative error of ``sqrt(growth) - 1``
:class:`CentroidSketch`     per-cell (count, exact sum); quantiles
                            interpolate between cell means — same worst-case
                            bound, far tighter on smooth distributions
=====================  ======================================================
"""

from __future__ import annotations

import hashlib
import math
from typing import NoReturn

import numpy as np

__all__ = [
    "CentroidSketch",
    "LogBucketHistogram",
    "MergeableSketch",
    "SCALE_BITS",
    "StatsAccumulator",
    "scaled",
    "state_digest",
    "unscaled",
]

#: Fixed-point precision of every sum: values are scaled by ``2**SCALE_BITS``
#: and rounded once on entry, so sums are exact integers (order-free).
SCALE_BITS = 20
_SCALE = float(1 << SCALE_BITS)


#: Magnitudes from here on overflow ``int64`` once scaled; the comparison
#: ``abs(value) < _MAGNITUDE_LIMIT`` is also false for NaN and ±inf.
_MAGNITUDE_LIMIT = float(1 << (63 - SCALE_BITS))


def _refuse(value: float) -> NoReturn:
    raise ValueError(
        f"cannot fold {value!r}: fixed-point sums hold finite values of "
        f"magnitude below 2**{63 - SCALE_BITS}"
    )


def scaled(values: np.ndarray) -> np.ndarray:
    """Values as fixed-point integers (round-half-even, like ``round``).

    Raises ``ValueError`` naming the first value ``int64`` cannot hold once
    scaled — the cast would otherwise turn it into ``INT64_MIN`` silently.
    """
    values = np.asarray(values, dtype=float)
    if values.size and not np.abs(values).max() < _MAGNITUDE_LIMIT:
        _refuse(float(values[~(np.abs(values) < _MAGNITUDE_LIMIT)][0]))
    return np.rint(values * _SCALE).astype(np.int64)


def _scaled_one(value: float) -> int:
    """:func:`scaled` of one python float, same rounding, same refusal."""
    if not abs(value) < _MAGNITUDE_LIMIT:
        _refuse(value)
    return round(value * _SCALE)


def unscaled(total: int) -> float:
    """A fixed-point integer sum back as a float."""
    return float(total) / _SCALE


def _digest_update(hasher, item) -> None:
    """Fold one canonical-state item into a hash, type-tagged and exact.

    Floats go in via ``hex()`` (exact round-trip representation), ints and
    strings via ``repr``, arrays via raw bytes — so two states hash equal
    iff they are bit-identical.
    """
    if isinstance(item, tuple):
        hasher.update(b"(")
        for part in item:
            _digest_update(hasher, part)
        hasher.update(b")")
    elif isinstance(item, float):
        hasher.update(item.hex().encode())
    elif isinstance(item, bytes):
        hasher.update(item)
    else:
        hasher.update(repr(item).encode())
    hasher.update(b";")


def state_digest(state: tuple) -> str:
    """Hex digest of a canonical :meth:`MergeableSketch.state` tuple."""
    hasher = hashlib.sha256()
    _digest_update(hasher, state)
    return hasher.hexdigest()


class MergeableSketch:
    """API shared by every fleet-tier aggregate.

    Subclasses implement :meth:`add`, :meth:`add_many`, :meth:`merge`,
    :meth:`state`, :meth:`snapshot` / :meth:`restore` and :meth:`nbytes`;
    the base class provides equality (exact state comparison) and the
    digest used by the bit-identity tests.
    """

    __slots__ = ()

    def add(self, value: float) -> None:
        """Fold one value; leaves the state :meth:`add_many` of it would.

        Raises ``ValueError`` — before any state changes — for a value the
        fixed point cannot hold (NaN, ±inf, magnitude of ``2**43`` or more).
        """
        raise NotImplementedError

    def add_many(self, values: np.ndarray) -> None:
        """Fold a batch of values (order inside the batch is irrelevant).

        Refuses the whole batch, like :meth:`add`, if any value in it cannot
        be held.
        """
        raise NotImplementedError

    def merge(self, other: "MergeableSketch") -> None:
        """Fold another sketch's state into this one (in place).

        Associative and commutative: any merge tree over the same leaf
        states produces byte-identical state.  Both sketches must share a
        configuration (same class, same bin layout).
        """
        raise NotImplementedError

    def state(self) -> tuple:
        """Canonical state: nested tuples of ints/floats/bytes.

        Two sketches fold the same value multiset iff their states compare
        equal — the contract the algebra property tests pin.
        """
        raise NotImplementedError

    def snapshot(self) -> dict:
        """Picklable state dict (rides the engine checkpoint protocol)."""
        raise NotImplementedError

    def restore(self, snapshot: dict) -> None:
        """Adopt a :meth:`snapshot`."""
        raise NotImplementedError

    def nbytes(self) -> int:
        """Approximate retained bytes (O(1) in values folded)."""
        raise NotImplementedError

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "MergeableSketch":
        sketch = cls.__new__(cls)
        # restore() implementations only assign attributes, so a blank
        # instance is a valid target
        sketch.restore(snapshot)
        return sketch

    def digest(self) -> str:
        return state_digest(self.state())

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.state() == other.state()

    def __hash__(self):  # states are mutable; identity hashing only
        return id(self)

    def _require_same_layout(self, other: "MergeableSketch", fields) -> None:
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        for name in fields:
            if getattr(self, name) != getattr(other, name):
                raise ValueError(
                    f"cannot merge sketches with different {name}: "
                    f"{getattr(self, name)!r} != {getattr(other, name)!r}"
                )


class StatsAccumulator(MergeableSketch):
    """Exact count / sum / min / max of a value stream.

    The sum is fixed-point (:func:`scaled`), so accumulation is integer
    arithmetic — associative, commutative and, for every value the fold
    accepts, overflow-free (Python ints).
    """

    __slots__ = ("count", "scaled_sum", "_min", "_max")

    def __init__(self) -> None:
        self.count = 0
        self.scaled_sum = 0
        self._min = float("inf")
        self._max = float("-inf")

    def add(self, value: float) -> None:
        value = float(value)
        self._fold(value, _scaled_one(value))

    def _fold(self, value: float, fixed: int) -> None:
        """Fold one value whose fixed point the caller already holds.

        ``-0.0`` enters as ``+0.0``: no extreme keeps whichever zero came first.
        """
        value += 0.0
        self.count += 1
        self.scaled_sum += fixed
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def add_many(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        if not values.size:
            return
        fixed = scaled(values)  # refuses before any state changes
        self.count += int(values.size)
        # sum the int64 fixed-point values under Python ints: exact
        self.scaled_sum += int(fixed.sum(dtype=object))
        self._min = min(self._min, float(values.min()) + 0.0)
        self._max = max(self._max, float(values.max()) + 0.0)

    def merge(self, other: "StatsAccumulator") -> None:
        self._require_same_layout(other, ())
        self.count += other.count
        self.scaled_sum += other.scaled_sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    @property
    def sum(self) -> float:
        return unscaled(self.scaled_sum)

    @property
    def mean(self) -> float:
        return unscaled(self.scaled_sum) / self.count if self.count else 0.0

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    def state(self) -> tuple:
        return ("stats", self.count, self.scaled_sum, self._min, self._max)

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "scaled_sum": self.scaled_sum,
            "min": self._min,
            "max": self._max,
        }

    def restore(self, snapshot: dict) -> None:
        self.count = snapshot["count"]
        self.scaled_sum = snapshot["scaled_sum"]
        self._min = snapshot["min"]
        self._max = snapshot["max"]

    def nbytes(self) -> int:
        return 64  # four scalars


class _LogBinLayout:
    """Shared fixed log-spaced partition of ``[min_value, max_value]``.

    Bin ``i`` (0-based, after the underflow bin) covers
    ``[min_value * growth**i, min_value * growth**(i+1))``; values at or
    below ``min_value`` land in the underflow bin, values past
    ``max_value`` in the overflow bin.  The layout is configuration, not
    state: two sketches merge iff their layouts are equal.
    """

    __slots__ = ("min_value", "max_value", "growth", "n_bins", "_log_min", "_log_growth")

    def __init__(self, min_value: float, max_value: float, growth: float) -> None:
        if min_value <= 0 or max_value <= min_value:
            raise ValueError(
                f"need 0 < min_value < max_value, got {min_value} / {max_value}"
            )
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.growth = float(growth)
        self._log_min = float(np.log(self.min_value))
        self._log_growth = float(np.log(self.growth))
        self.n_bins = int(
            np.ceil((np.log(self.max_value) - self._log_min) / self._log_growth)
        )

    def index(self, value: float) -> int:
        """Slot of one finite value; the scalar body of :meth:`indices`.

        The logarithm is ``np.log`` on the scalar, not ``math.log``: numpy's
        is the one the bulk form applies, and the two differ in the last
        place often enough (about 3 values in 10 000) to move a value that
        sits on a bin edge.
        """
        if not value > self.min_value:
            return 0
        raw = math.floor((float(np.log(value)) - self._log_min) / self._log_growth)
        return min(max(raw + 1, 1), self.n_bins + 1)

    def indices(self, values: np.ndarray) -> np.ndarray:
        """Slot index per value: 0 = underflow, 1..n_bins, n_bins+1 = overflow."""
        out = np.zeros(values.size, dtype=np.int64)
        positive = values > self.min_value
        if positive.any():
            raw = np.floor(
                (np.log(values[positive]) - self._log_min) / self._log_growth
            ).astype(np.int64)
            out[positive] = np.clip(raw + 1, 1, self.n_bins + 1)
        return out

    def representative(self, slot: int) -> float:
        """The value a slot reports: the geometric midpoint of its bin.

        The underflow bin reports 0.0 (it holds zeros and sub-``min_value``
        values), the overflow bin ``max_value``.
        """
        if slot <= 0:
            return 0.0
        if slot > self.n_bins:
            return self.max_value
        lo = self.min_value * self.growth ** (slot - 1)
        return float(min(lo * np.sqrt(self.growth), self.max_value))

    def config(self) -> tuple:
        return (self.min_value, self.max_value, self.growth)


class LogBucketHistogram(MergeableSketch):
    """Fixed-bin log-bucket quantile histogram.

    ``n_bins + 2`` integer counters over a :class:`_LogBinLayout`; a
    quantile reports the geometric midpoint of the bin holding the target
    rank, so for values inside ``[min_value, max_value]`` the relative
    error is at most ``sqrt(growth) - 1`` (values in the underflow bin
    report 0.0 — an absolute error of at most ``min_value``).  Exact count
    / sum / min / max ride along in an embedded :class:`StatsAccumulator`.
    """

    __slots__ = ("layout", "counts", "stats")

    def __init__(
        self,
        min_value: float = 1e-3,
        max_value: float = 1e6,
        growth: float = 1.08,
    ) -> None:
        self.layout = _LogBinLayout(min_value, max_value, growth)
        self.counts = np.zeros(self.layout.n_bins + 2, dtype=np.int64)
        self.stats = StatsAccumulator()

    def add(self, value: float) -> None:
        value = float(value)
        fixed = _scaled_one(value)  # refuses before any state changes
        self.counts[self.layout.index(value)] += 1
        self.stats._fold(value, fixed)

    def add_many(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        if not values.size:
            return
        self.stats.add_many(values)  # first: it refuses before any state changes
        np.add.at(self.counts, self.layout.indices(values), 1)

    def merge(self, other: "LogBucketHistogram") -> None:
        self._require_same_layout(other, ("_config",))
        self.counts += other.counts
        self.stats.merge(other.stats)

    @property
    def _config(self) -> tuple:
        return self.layout.config()

    @property
    def count(self) -> int:
        return self.stats.count

    def quantile(self, q: float) -> float:
        """The value at rank ``q`` (0..1), clamped to the observed range."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        total = self.stats.count
        if not total:
            return 0.0
        rank = q * (total - 1)
        cumulative = np.cumsum(self.counts)
        slot = int(np.searchsorted(cumulative, rank, side="right"))
        value = self.layout.representative(slot)
        return float(min(max(value, self.stats.min), self.stats.max))

    def state(self) -> tuple:
        return ("loghist", self._config, self.counts.tobytes(), self.stats.state())

    def snapshot(self) -> dict:
        return {
            "config": self._config,
            "counts": self.counts.copy(),
            "stats": self.stats.snapshot(),
        }

    def restore(self, snapshot: dict) -> None:
        self.layout = _LogBinLayout(*snapshot["config"])
        self.counts = snapshot["counts"].copy()
        self.stats = StatsAccumulator.from_snapshot(snapshot["stats"])

    def nbytes(self) -> int:
        return int(self.counts.nbytes) + self.stats.nbytes()


class CentroidSketch(MergeableSketch):
    """T-digest-style centroid sketch with *fixed* cluster boundaries.

    Like a t-digest, quantiles interpolate between per-cluster means — but
    the clusters are the fixed log-spaced cells of a :class:`_LogBinLayout`
    instead of data-dependent compressed centroids, so ``merge`` is exactly
    associative (per-cell count and fixed-point sum addition) and the state
    is a pure function of the value multiset.  Worst case the error matches
    the histogram's bin bound (a cell mean lies inside its cell); on smooth
    distributions interpolating between means is far tighter than bin
    midpoints.
    """

    __slots__ = ("layout", "counts", "scaled_sums", "stats")

    def __init__(
        self,
        min_value: float = 1e-3,
        max_value: float = 1e6,
        growth: float = 1.08,
    ) -> None:
        self.layout = _LogBinLayout(min_value, max_value, growth)
        size = self.layout.n_bins + 2
        self.counts = np.zeros(size, dtype=np.int64)
        # int64 cell sums are exact up to ~8.8e18: at 2**20 scaling that is
        # ~8e12 value units per cell, far past fleet scale for QoE metrics
        self.scaled_sums = np.zeros(size, dtype=np.int64)
        self.stats = StatsAccumulator()

    def add(self, value: float) -> None:
        value = float(value)
        fixed = _scaled_one(value)  # refuses before any state changes
        slot = self.layout.index(value)
        self.counts[slot] += 1
        self.scaled_sums[slot] += fixed
        self.stats._fold(value, fixed)

    def add_many(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float)
        if not values.size:
            return
        fixed = scaled(values)  # refuses before any state changes
        slots = self.layout.indices(values)
        np.add.at(self.counts, slots, 1)
        np.add.at(self.scaled_sums, slots, fixed)
        self.stats.add_many(values)

    def merge(self, other: "CentroidSketch") -> None:
        self._require_same_layout(other, ("_config",))
        self.counts += other.counts
        self.scaled_sums += other.scaled_sums
        self.stats.merge(other.stats)

    @property
    def _config(self) -> tuple:
        return self.layout.config()

    @property
    def count(self) -> int:
        return self.stats.count

    def quantile(self, q: float) -> float:
        """Interpolated value at rank ``q`` (0..1), t-digest style.

        Each occupied cell contributes a centroid (its exact mean) at the
        midpoint of its cumulative weight span; the rank interpolates
        linearly between adjacent centroids and clamps to the observed
        min/max at the tails.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        total = self.stats.count
        if not total:
            return 0.0
        occupied = np.flatnonzero(self.counts)
        weights = self.counts[occupied].astype(float)
        means = self.scaled_sums[occupied] / (weights * _SCALE)
        # centroid positions: cumulative weight up to the cell + half the cell
        positions = np.cumsum(weights) - weights / 2.0
        rank = q * total
        if rank <= positions[0]:
            value = self.stats.min + (means[0] - self.stats.min) * (
                rank / positions[0] if positions[0] > 0 else 0.0
            )
        elif rank >= positions[-1]:
            span = total - positions[-1]
            frac = (rank - positions[-1]) / span if span > 0 else 1.0
            value = means[-1] + (self.stats.max - means[-1]) * min(frac, 1.0)
        else:
            value = float(np.interp(rank, positions, means))
        return float(min(max(value, self.stats.min), self.stats.max))

    def state(self) -> tuple:
        return (
            "centroid",
            self._config,
            self.counts.tobytes(),
            self.scaled_sums.tobytes(),
            self.stats.state(),
        )

    def snapshot(self) -> dict:
        return {
            "config": self._config,
            "counts": self.counts.copy(),
            "scaled_sums": self.scaled_sums.copy(),
            "stats": self.stats.snapshot(),
        }

    def restore(self, snapshot: dict) -> None:
        self.layout = _LogBinLayout(*snapshot["config"])
        self.counts = snapshot["counts"].copy()
        self.scaled_sums = snapshot["scaled_sums"].copy()
        self.stats = StatsAccumulator.from_snapshot(snapshot["stats"])

    def nbytes(self) -> int:
        return (
            int(self.counts.nbytes) + int(self.scaled_sums.nbytes) + self.stats.nbytes()
        )
