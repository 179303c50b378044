"""Experiments for player-activity stage and gameplay-pattern classification
(Fig. 10, Fig. 15, Table 4, Table 5)."""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.activity_classifier import PlayerActivityClassifier
from repro.core.pattern_classifier import GameplayPatternClassifier
from repro.core.reducers import raw_slot_matrix
from repro.core.transition import TRANSITION_FEATURE_NAMES, transition_features_from_stages
from repro.experiments import common
from repro.ml.forest import RandomForestClassifier
from repro.ml.importance import permutation_importance
from repro.ml.knn import KNeighborsClassifier
from repro.ml.model_selection import grid_search
from repro.ml.svm import SVMClassifier
from repro.simulation.catalog import ActivityPattern


def _stage_eval(
    sessions,
    slot_duration: float,
    alpha: float,
    quick: bool,
    seed: int,
) -> Dict[str, float]:
    """Train/test per-slot stage accuracy for one (I, alpha) configuration."""
    train_sessions, test_sessions = common.session_split(sessions, seed=seed)
    classifier = PlayerActivityClassifier(
        slot_duration=slot_duration,
        alpha=alpha,
        model=RandomForestClassifier(
            n_estimators=40 if quick else 150, max_depth=10, random_state=seed % 10_000
        ),
        random_state=seed % 10_000,
    )
    classifier.fit(
        [session.packets for session in train_sessions],
        [session.slot_ground_truth(slot_duration) for session in train_sessions],
    )
    evaluation = classifier.evaluate(
        [session.packets for session in test_sessions],
        [session.slot_ground_truth(slot_duration) for session in test_sessions],
    )
    row = {stage.value: acc for stage, acc in evaluation["per_stage"].items()}
    row["overall"] = evaluation["overall"]
    return row


def run_fig10_stage_parameter_sweep(
    quick: bool = True,
    seed: int = common.DEFAULT_SEED,
    alphas: Optional[Sequence[float]] = None,
    slot_durations: Optional[Sequence[float]] = None,
) -> Dict:
    """Fig. 10: stage accuracy vs EMA weight alpha and slot size I."""
    if alphas is None:
        alphas = (0.2, 0.5, 0.8) if quick else tuple(np.round(np.arange(0.1, 1.01, 0.1), 1))
    if slot_durations is None:
        slot_durations = (1.0,) if quick else (0.1, 0.5, 1.0, 2.0)
    corpus = common.gameplay_corpus(quick=quick, seed=seed)
    results: Dict[float, Dict[float, Dict[str, float]]] = {}
    for slot in slot_durations:
        results[float(slot)] = {}
        for alpha in alphas:
            results[float(slot)][float(alpha)] = _stage_eval(
                corpus.sessions, float(slot), float(alpha), quick, seed
            )
    return {
        "accuracy": results,
        "alphas": list(map(float, alphas)),
        "slot_durations": list(map(float, slot_durations)),
    }


def run_table4_stage_pattern_accuracy(
    quick: bool = True, seed: int = common.DEFAULT_SEED
) -> Dict:
    """Table 4: per-stage slot accuracy and per-session pattern accuracy,
    reported separately for continuous-play and spectate-and-play games."""
    corpus = common.gameplay_corpus(quick=quick, seed=seed)
    train_sessions, test_sessions = common.session_split(corpus.sessions, seed=seed)

    stage_classifier = PlayerActivityClassifier(
        model=RandomForestClassifier(
            n_estimators=60 if quick else 150, max_depth=10, random_state=seed % 10_000
        ),
        random_state=seed % 10_000,
    )
    stage_classifier.fit(
        [session.packets for session in train_sessions],
        [session.slot_ground_truth(1.0) for session in train_sessions],
    )

    pattern_classifier = GameplayPatternClassifier(
        model=RandomForestClassifier(
            n_estimators=60 if quick else 100, max_depth=10, random_state=seed % 10_000
        ),
        random_state=seed % 10_000,
    )
    # train on the stage sequences produced by the stage classifier itself so
    # that the pattern model sees the same classification noise it will face
    # in the deployed cascade
    pattern_classifier.fit_stage_sequences(
        stage_classifier.predict_raw_slots_many(
            [raw_slot_matrix(session.packets, 1.0) for session in train_sessions]
        ),
        [session.pattern for session in train_sessions],
    )

    output: Dict[str, Dict[str, float]] = {}
    for pattern in ActivityPattern:
        sessions = [s for s in test_sessions if s.pattern is pattern]
        if not sessions:
            continue
        stage_eval = stage_classifier.evaluate(
            [s.packets for s in sessions],
            [s.slot_ground_truth(1.0) for s in sessions],
        )
        # per-session pattern accuracy from *classified* stage sequences,
        # mirroring the deployed cascade of the two processes; a session the
        # confidence gate leaves undecided counts its most probable pattern
        pattern_eval = pattern_classifier.evaluate(
            stage_classifier.predict_raw_slots_many(
                [raw_slot_matrix(s.packets, 1.0) for s in sessions]
            ),
            [s.pattern for s in sessions],
        )
        output[pattern.value] = {
            "pattern_accuracy": pattern_eval["per_pattern"][pattern],
            "stage_accuracy": {
                stage.value: acc for stage, acc in stage_eval["per_stage"].items()
            },
            "overall_stage_accuracy": stage_eval["overall"],
            "sessions": len(sessions),
        }
    return output


def run_table5_transition_importance(
    quick: bool = True, seed: int = common.DEFAULT_SEED
) -> Dict:
    """Table 5: permutation importance of the nine transition attributes."""
    corpus = common.gameplay_corpus(quick=quick, seed=seed)
    X = np.stack(
        [
            transition_features_from_stages(session.slot_ground_truth(1.0))
            for session in corpus.sessions
        ]
    )
    y = np.array([session.pattern.value for session in corpus.sessions])
    model = RandomForestClassifier(
        n_estimators=60 if quick else 100, max_depth=10, random_state=seed % 10_000
    )
    model.fit(X, y)
    result = permutation_importance(
        model,
        X,
        y,
        n_repeats=5 if quick else 10,
        random_state=seed,
        feature_names=TRANSITION_FEATURE_NAMES,
    )
    importances = result.as_dict()
    matrix = {}
    for name, value in importances.items():
        src, dst = name.split("_to_")
        matrix.setdefault(src, {})[dst] = value
    best = max(importances, key=importances.get)
    return {
        "importances": importances,
        "matrix": matrix,
        "most_important": best,
        "baseline_accuracy": result.baseline_score,
    }


def run_fig15_pattern_model_tuning(
    quick: bool = True, seed: int = common.DEFAULT_SEED
) -> Dict:
    """Fig. 15: RF / SVM / KNN tuning for gameplay-pattern classification."""
    corpus = common.gameplay_corpus(quick=quick, seed=seed)
    X = np.stack(
        [
            transition_features_from_stages(session.slot_ground_truth(1.0))
            for session in corpus.sessions
        ]
    )
    y = np.array([session.pattern.value for session in corpus.sessions])
    cv = 3

    if quick:
        rf_grid = {"n_estimators": [50, 100], "max_depth": [5, 10]}
        svm_grid = {"C": [1.0, 10.0], "kernel": ["linear", "rbf"]}
        knn_grid = {"n_neighbors": [3, 5], "metric": ["euclidean", "manhattan"]}
    else:
        rf_grid = {"n_estimators": [50, 100, 300, 500], "max_depth": [5, 10, 30, None]}
        svm_grid = {"C": [0.1, 1.0, 10.0, 100.0], "kernel": ["linear", "rbf", "poly"]}
        knn_grid = {
            "n_neighbors": [3, 5, 7, 11],
            "metric": ["euclidean", "manhattan", "chebyshev"],
        }

    rf_result = grid_search(
        lambda **p: RandomForestClassifier(random_state=seed % 10_000, **p),
        rf_grid, X, y, cv=cv, random_state=seed,
    )
    svm_result = grid_search(
        lambda **p: SVMClassifier(max_iter=20, random_state=seed % 10_000, **p),
        svm_grid, X, y, cv=cv, random_state=seed,
    )
    knn_result = grid_search(
        lambda **p: KNeighborsClassifier(**p), knn_grid, X, y, cv=cv, random_state=seed
    )
    return {
        "random_forest": {
            "best_params": rf_result.best_params,
            "best_accuracy": rf_result.best_score,
            "grid": rf_result.results,
        },
        "svm": {
            "best_params": svm_result.best_params,
            "best_accuracy": svm_result.best_score,
            "grid": svm_result.results,
        },
        "knn": {
            "best_params": knn_result.best_params,
            "best_accuracy": knn_result.best_score,
            "grid": knn_result.results,
        },
        "ranking": sorted(
            [
                ("random_forest", rf_result.best_score),
                ("svm", svm_result.best_score),
                ("knn", knn_result.best_score),
            ],
            key=lambda item: item[1],
            reverse=True,
        ),
    }
