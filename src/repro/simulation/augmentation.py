"""Variation-based data augmentation (§4.4).

The paper augments its ground-truth corpus "for larger sample sizes using
variation-based statistical techniques, i.e., by synthesizing packet data
with randomly varied sizes and arrival times based on the original
ground-truth data, especially for classes with fewer samples".  This module
implements that technique on packet streams and whole sessions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.net.packet import PacketStream
from repro.simulation.session import GameSession


def augment_stream(
    stream: PacketStream,
    rng: Optional[np.random.Generator] = None,
    size_jitter: float = 0.03,
    time_jitter_s: float = 0.01,
    drop_fraction: float = 0.01,
) -> PacketStream:
    """Produce a perturbed copy of a packet stream.

    Parameters
    ----------
    size_jitter:
        Relative standard deviation of multiplicative payload-size noise.
    time_jitter_s:
        Standard deviation of additive Gaussian arrival-time noise.
    drop_fraction:
        Fraction of packets randomly removed.

    Notes
    -----
    The perturbations are intentionally mild so that the packet-group
    structure (full/steady/sparse) and relative volumetric levels survive —
    the augmented sample must remain a plausible capture of the same session.
    """
    if size_jitter < 0 or time_jitter_s < 0:
        raise ValueError("jitter parameters must be non-negative")
    if not 0.0 <= drop_fraction < 1.0:
        raise ValueError(f"drop_fraction must be in [0, 1), got {drop_fraction}")
    rng = rng or np.random.default_rng()

    columns = stream.columns()
    n = len(columns)
    if n == 0:
        return PacketStream()
    keep = rng.random(n) >= drop_fraction
    size_noise = rng.normal(1.0, size_jitter, size=n)
    time_noise = rng.normal(0.0, time_jitter_s, size=n)
    perturbed = columns.take(np.flatnonzero(keep))
    perturbed.payload_sizes = np.clip(
        np.round(perturbed.payload_sizes * size_noise[keep]), 40, 1500
    )
    perturbed.timestamps = np.maximum(0.0, perturbed.timestamps + time_noise[keep])
    return PacketStream.from_columns(perturbed)


def augment_session(
    session: GameSession,
    rng: Optional[np.random.Generator] = None,
    **kwargs,
) -> GameSession:
    """Return a copy of a session with an augmented packet stream.

    Ground-truth labels (title, timeline, settings) are preserved — the
    augmented session represents another plausible capture of the same
    gameplay.
    """
    augmented = augment_stream(session.packets, rng=rng, **kwargs)
    return GameSession(
        title=session.title,
        settings=session.settings,
        device=session.device,
        timeline=list(session.timeline),
        packets=augmented,
        conditions=session.conditions,
        client_ip=session.client_ip,
        server_ip=session.server_ip,
        session_id=session.session_id,
    )
