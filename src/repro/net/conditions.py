"""Network impairment model (latency, jitter, loss, bandwidth cap).

Used to emulate degraded access links: the paper's lab network is near-ideal
(<10 ms latency, <0.1% loss, ~1 Gbps), while a fraction of ISP sessions
suffer genuinely poor network conditions that the effective-QoE calibration
must still flag as bad (§5.3).  Applying :func:`apply_conditions_columns`
to a synthetic session produces the degraded packet timings/loss that drive the
objective-QoE estimator toward "bad" labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.net.packet import DOWNSTREAM_CODE, PacketColumns


@dataclass(frozen=True)
class NetworkConditions:
    """Access-link conditions applied to a packet stream.

    Attributes
    ----------
    latency_ms:
        One-way propagation delay added to every packet.
    jitter_ms:
        Standard deviation of a truncated-Gaussian per-packet delay.
    loss_rate:
        Independent per-packet drop probability (0..1).
    bandwidth_mbps:
        Optional downstream bottleneck; packets are additionally delayed by
        queueing behind earlier bytes when the offered load exceeds it.
    """

    latency_ms: float = 5.0
    jitter_ms: float = 1.0
    loss_rate: float = 0.0
    bandwidth_mbps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise ValueError(f"latency_ms must be non-negative, got {self.latency_ms}")
        if self.jitter_ms < 0:
            raise ValueError(f"jitter_ms must be non-negative, got {self.jitter_ms}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if self.bandwidth_mbps is not None and self.bandwidth_mbps <= 0:
            raise ValueError(
                f"bandwidth_mbps must be positive, got {self.bandwidth_mbps}"
            )

    @classmethod
    def ideal(cls) -> "NetworkConditions":
        """Lab-grade conditions (§3.1): negligible latency, jitter and loss."""
        return cls(latency_ms=5.0, jitter_ms=0.5, loss_rate=0.0005)

    @classmethod
    def congested(cls) -> "NetworkConditions":
        """A congested cell/home link producing visibly degraded QoE."""
        return cls(latency_ms=70.0, jitter_ms=25.0, loss_rate=0.03, bandwidth_mbps=6.0)

    def is_degraded(
        self,
        latency_threshold_ms: float = 40.0,
        loss_threshold: float = 0.01,
    ) -> bool:
        """Whether these conditions should be considered network-impaired."""
        return self.latency_ms > latency_threshold_ms or self.loss_rate > loss_threshold


def apply_conditions_columns(
    columns: PacketColumns,
    conditions: NetworkConditions,
    rng: Optional[np.random.Generator] = None,
) -> PacketColumns:
    """Apply latency, jitter, loss and an optional bottleneck to a batch.

    Loss (i.i.d. per packet) and jitter are drawn for all packets at once —
    one ``rng.random(n)`` then one ``rng.normal(size=n)`` over the
    time-sorted rows, the draw order every seeded corpus depends on.  The
    bottleneck only shapes surviving downstream packets (the video feed;
    upstream input packets are tiny and never queue in practice): its queue
    recursion ``busy_i = max(arrival_i, busy_{i-1}) + transmit_i`` is solved
    in closed form with a cumulative sum + running maximum, which agrees
    with the scalar recursion to floating-point roundoff, not bit for bit.

    Returns a new timestamp-sorted batch of the surviving packets.
    """
    rng = rng or np.random.default_rng()
    columns = columns.sorted_by_time()
    n = len(columns)
    if n == 0:
        return columns

    keep = rng.random(n) >= conditions.loss_rate
    jitter = np.abs(rng.normal(0.0, conditions.jitter_ms / 1000.0, size=n))
    arrival = columns.timestamps + conditions.latency_ms / 1000.0 + jitter

    if conditions.bandwidth_mbps is not None:
        bytes_per_second = conditions.bandwidth_mbps * 1e6 / 8.0
        queued = np.flatnonzero(keep & (columns.directions == DOWNSTREAM_CODE))
        if queued.size:
            transmit = columns.payload_sizes[queued] / bytes_per_second
            served = np.cumsum(transmit)
            # busy_i = served_i + max_{j<=i}(arrival_j - served_{j-1})
            arrival[queued] = served + np.maximum.accumulate(
                arrival[queued] - (served - transmit)
            )

    survivors = columns.take(np.flatnonzero(keep))
    survivors.timestamps = arrival[keep]
    return survivors.sorted_by_time()
