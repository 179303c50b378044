"""Fleet QoE analytics tier: mergeable sketches and event-stream rollups.

* :mod:`repro.analytics.sketches` — deterministic mergeable aggregates
  (fixed-point stats, log-bucket quantile histogram, fixed-cell centroid
  sketch) whose merge is exactly associative and commutative, so any fold
  topology over the same values yields byte-identical state.
* :mod:`repro.analytics.fleet` — the :class:`FleetAggregator` folding the
  runtime's context event stream into per-``(region, title, qoe_mode)``
  rollups (p50/p95 frame lag, freeze rate, loss, throughput, shed and
  degrade counts) with zero per-session retention, plus the offline
  :func:`fold_corpus`, which folds each sealed window's rollup facts
  without building its event and produces bit-identical rollups.

This package sits *above* :mod:`repro.runtime`: the runtime never imports
it at module level (engines attach an aggregator lazily), so either import
order is safe.
"""

from repro.analytics.fleet import (
    DEFAULT_REGION,
    FleetAggregator,
    FleetRollup,
    RollupKey,
    fold_corpus,
)
from repro.analytics.sketches import (
    CentroidSketch,
    LogBucketHistogram,
    MergeableSketch,
    SCALE_BITS,
    StatsAccumulator,
    state_digest,
    unscaled,
)

__all__ = [
    "CentroidSketch",
    "DEFAULT_REGION",
    "FleetAggregator",
    "FleetRollup",
    "LogBucketHistogram",
    "MergeableSketch",
    "RollupKey",
    "SCALE_BITS",
    "StatsAccumulator",
    "fold_corpus",
    "state_digest",
    "unscaled",
]
