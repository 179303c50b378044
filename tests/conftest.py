"""Shared test fixtures.

Session-scoped fixtures build the (relatively expensive) synthetic corpora
once and share them across test modules; individual tests treat them as
read-only.
"""

from __future__ import annotations

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

# allow running the tests without installing the package
SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.experiments.common import (  # noqa: E402
    SCENARIO_TITLE_NAMES,
    deployment_corpus,
    scenario_pipeline,
)
from repro.simulation.catalog import GAME_TITLES  # noqa: E402
from repro.simulation.isp import ISPDeploymentSimulator  # noqa: E402
from repro.simulation.lab_dataset import LabDataset, generate_lab_dataset  # noqa: E402
from repro.simulation.session import SessionConfig, SessionGenerator  # noqa: E402


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def profile_events():
    """Counter of the Python and C function calls a callable makes.

    Cost as a count: it repeats exactly on any box, where a timing does not.
    Array operators (``+=``, ``>``, slicing) raise no profile event; method
    and function calls (``take``, ``searchsorted``, ``list.append``) do.
    """

    def count_events(fn) -> int:
        count = 0

        def hook(_frame, event, _arg):
            nonlocal count
            count += event in ("call", "c_call")

        sys.setprofile(hook)
        try:
            fn()
        finally:
            sys.setprofile(None)
        return count

    return count_events


@pytest.fixture(scope="session")
def alloc_peak():
    """Peak bytes a callable allocates above what was live when it started.

    The memory twin of ``profile_events``: a ``tracemalloc`` reading repeats
    where a timing does not.
    """

    def peak_bytes(fn) -> int:
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - before

    return peak_bytes


@pytest.fixture(scope="session")
def session_generator():
    return SessionGenerator(random_state=77)


@pytest.fixture(scope="session")
def fortnite_session(session_generator):
    """One spectate-and-play session with gameplay (reduced fidelity)."""
    return session_generator.generate(
        "Fortnite", SessionConfig(gameplay_duration_s=120.0, rate_scale=0.05)
    )


@pytest.fixture(scope="session")
def cyberpunk_session(session_generator):
    """One continuous-play session with gameplay (reduced fidelity)."""
    return session_generator.generate(
        "Cyberpunk 2077", SessionConfig(gameplay_duration_s=120.0, rate_scale=0.05)
    )


@pytest.fixture(scope="session")
def launch_only_session(session_generator):
    """One launch-only session (used by packet-group / title feature tests)."""
    return session_generator.generate(
        "Genshin Impact", SessionConfig(launch_only=True, rate_scale=0.15)
    )


@pytest.fixture(scope="session")
def small_launch_corpus():
    """Launch-only corpus: 3 sessions for each of 5 titles."""
    titles = [t for t in GAME_TITLES if t.name in {
        "Fortnite", "Genshin Impact", "Hearthstone", "Dota 2", "Cyberpunk 2077"
    }]
    return generate_lab_dataset(
        sessions_per_title=3,
        titles=titles,
        launch_only=True,
        rate_scale=0.12,
        random_state=11,
    )


@pytest.fixture(scope="session")
def small_gameplay_corpus():
    """Gameplay corpus: 2 sessions for each of 6 titles (mixed patterns).

    Served from the process-wide :func:`deployment_corpus` cache so the
    scenario matrix (which uses the same corpus) never re-simulates it.
    """
    return LabDataset(sessions=list(deployment_corpus(
        sessions_per_title=2,
        gameplay_duration_s=150.0,
        rate_scale=0.05,
        seed=13,
        title_names=SCENARIO_TITLE_NAMES,
    )))


@pytest.fixture(scope="session")
def isp_record_pool():
    """2000 ISP session records."""
    return ISPDeploymentSimulator(random_state=5).generate_records(2000)


@pytest.fixture(scope="session")
def fitted_pipeline():
    """A deployment-configuration pipeline fitted once for runtime tests.

    The title forest is trimmed to 60 trees (instead of 500) to keep the
    fit fast; every equivalence test compares runtime output against
    *this* pipeline's offline output, so the trim cannot mask differences.
    Served from the process-wide :func:`scenario_pipeline` cache — the same
    fitted model the scenario matrix measures, so the committed matrix
    describes exactly the classifier these tests pin.
    """
    return scenario_pipeline()


@pytest.fixture(scope="session")
def runtime_sessions():
    """Three live sessions (mixed patterns) replayed by the feed tests."""
    generator = SessionGenerator(random_state=5)
    return [
        generator.generate(
            title, SessionConfig(gameplay_duration_s=duration, rate_scale=0.05)
        )
        for title, duration in (
            ("CS:GO/CS2", 150.0),
            ("Hearthstone", 120.0),
            ("Fortnite", 135.0),
        )
    ]


@pytest.fixture(scope="session")
def runtime_offline_reports(fitted_pipeline, runtime_sessions):
    """Offline ``process()`` reports the streaming runtime must reproduce."""
    return [fitted_pipeline.process(session) for session in runtime_sessions]
