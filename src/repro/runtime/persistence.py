"""Fitted-pipeline persistence: deployments load models, they don't refit.

A fitted :class:`~repro.core.pipeline.ContextClassificationPipeline` is
three random forests plus a handful of scalar gate parameters.  A fitted
forest *is* a handful of flat node arrays
(:meth:`RandomForestClassifier.export_state`), so the whole pipeline
serialises to

* ``pipeline.json`` — format version, per-classifier configuration (gate
  thresholds, windows, EMA weight, forest hyperparameters, class labels)
  and the QoE calibrator's expectations; human-diffable;
* ``pipeline.npz`` — the concatenated node arrays of every fitted forest
  (float64 thresholds and leaf probabilities round-trip exactly).

``load_pipeline(save_pipeline(p))`` is the same kind of object as ``p`` and
predicts **bit-identically** (single rows, whole matrices, and therefore
whole ``SessionContextReport``s); only the OOB score is not preserved.
Arrays no forest could have exported (a corrupt ``pipeline.npz``) raise
``ValueError`` at load — :meth:`ForestKernel.from_arrays` validates.  Workers
(:mod:`repro.runtime.shard`) and deployments share one trained artifact
instead of refitting per process.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.activity_classifier import PlayerActivityClassifier
from repro.core.pattern_classifier import GameplayPatternClassifier
from repro.core.pipeline import ContextClassificationPipeline
from repro.core.qoe import EffectiveQoECalibrator, ObjectiveQoEEstimator, QoEThresholds
from repro.core.title_classifier import GameTitleClassifier
from repro.ml.forest import RandomForestClassifier
from repro.simulation.catalog import ActivityPattern

__all__ = ["save_pipeline", "load_pipeline", "pipeline_digest", "PIPELINE_FORMAT"]

PIPELINE_FORMAT = "repro-context-pipeline/1"

_ARRAY_KEYS = (
    "feature",
    "threshold",
    "left",
    "right",
    "proba",
    "offsets",
    "tree_importances",
    "forest_importances",
)


def _forest_meta(model: RandomForestClassifier, stage: str) -> dict:
    """JSON-serialisable hyperparameters + class labels of one forest."""
    if not isinstance(model, RandomForestClassifier):
        raise TypeError(
            f"the {stage} stage uses a {type(model).__name__}; only "
            "RandomForestClassifier models can be saved or digested "
            f"(format {PIPELINE_FORMAT})"
        )
    fitted = hasattr(model, "classes_")
    meta = {
        "fitted": fitted,
        "n_estimators": model.n_estimators,
        "max_depth": model.max_depth,
        "min_samples_split": model.min_samples_split,
        "min_samples_leaf": model.min_samples_leaf,
        "max_features": model.max_features,
        "bootstrap": model.bootstrap,
        "random_state": model.random_state,
    }
    if fitted:
        classes = model.classes_
        meta["classes_kind"] = "int" if np.issubdtype(classes.dtype, np.integer) else "str"
        meta["classes"] = [
            int(c) if meta["classes_kind"] == "int" else str(c)
            for c in classes.tolist()
        ]
        meta["n_features"] = int(model.n_features_)
    return meta


def _forest_params(meta: dict) -> dict:
    return {
        "n_estimators": meta["n_estimators"],
        "max_depth": meta["max_depth"],
        "min_samples_split": meta["min_samples_split"],
        "min_samples_leaf": meta["min_samples_leaf"],
        "max_features": meta["max_features"],
        "bootstrap": meta["bootstrap"],
        "random_state": meta["random_state"],
    }


def _restore_forest(meta: dict, arrays: dict, prefix: str) -> RandomForestClassifier:
    if not meta["fitted"]:
        return RandomForestClassifier(**_forest_params(meta))
    classes = np.asarray(
        meta["classes"], dtype=np.int64 if meta["classes_kind"] == "int" else None
    )
    state = {key: arrays[f"{prefix}__{key}"] for key in _ARRAY_KEYS}
    return RandomForestClassifier.from_state(
        state, classes, meta["n_features"], params=_forest_params(meta)
    )


def _pipeline_config(pipeline: ContextClassificationPipeline) -> dict:
    """The JSON-serialisable configuration dict of a pipeline."""
    title = pipeline.title_classifier
    activity = pipeline.activity_classifier
    pattern = pipeline.pattern_classifier
    calibrator = pipeline.qoe_calibrator

    config = {
        "format": PIPELINE_FORMAT,
        "fitted": pipeline._fitted,
        "title": {
            "window_seconds": title.window_seconds,
            "slot_duration": title.slot_duration,
            "size_variation": title.size_variation,
            "confidence_threshold": title.confidence_threshold,
            "feature_mode": title.feature_mode,
            "feature_aggregate": title.feature_aggregate,
            "model": _forest_meta(title.model, "title"),
        },
        "activity": {
            "slot_duration": activity.slot_duration,
            "alpha": activity.alpha,
            "balance_classes": activity.balance_classes,
            "model": _forest_meta(activity.model, "activity"),
        },
        "pattern": {
            "confidence_threshold": pattern.confidence_threshold,
            "min_slots": pattern.min_slots,
            "balance_classes": pattern.balance_classes,
            "model": _forest_meta(pattern.model, "pattern"),
        },
        "qoe": {
            "estimator_slot_duration": pipeline.qoe_estimator.slot_duration,
            "base_thresholds": {
                field: getattr(calibrator.base_thresholds, field)
                for field in (
                    "frame_rate_good",
                    "frame_rate_bad",
                    "throughput_good_mbps",
                    "throughput_bad_mbps",
                    "latency_good_ms",
                    "latency_bad_ms",
                    "loss_good",
                    "loss_bad",
                )
            },
            "pattern_demand": {
                pattern_key.value: scale
                for pattern_key, scale in calibrator.pattern_demand.items()
            },
            "min_scale": calibrator.min_scale,
            "reference_demand_mbps": calibrator.reference_demand_mbps,
        },
    }
    return config


def _pipeline_arrays(pipeline: ContextClassificationPipeline) -> dict:
    """Flat node arrays of every fitted forest, keyed ``<prefix>__<key>``."""
    arrays = {}
    for prefix, classifier in (
        ("title", pipeline.title_classifier),
        ("activity", pipeline.activity_classifier),
        ("pattern", pipeline.pattern_classifier),
    ):
        model = classifier.model
        if hasattr(model, "classes_"):
            for key, value in model.export_state().items():
                arrays[f"{prefix}__{key}"] = value
    return arrays


def pipeline_digest(pipeline: ContextClassificationPipeline) -> str:
    """Deterministic content digest of a pipeline's configuration + models.

    SHA-256 over the sorted-key configuration JSON followed by the raw
    bytes of every forest node array (the exact float64 thresholds and
    leaf probabilities).  Two pipelines predict bit-identically whenever
    their digests match, so the digest is what
    :class:`~repro.runtime.events.ModelSwapped` reports to distinguish an
    identity swap from a real model change.  Cached on the pipeline
    (``fit`` invalidates the cache).
    """
    cached = getattr(pipeline, "_digest", None)
    if cached is not None:
        return cached
    hasher = hashlib.sha256()
    config = _pipeline_config(pipeline)
    hasher.update(json.dumps(config, sort_keys=True).encode())
    arrays = _pipeline_arrays(pipeline)
    for key in sorted(arrays):
        value = np.ascontiguousarray(arrays[key])
        hasher.update(key.encode())
        hasher.update(str(value.dtype).encode())
        hasher.update(str(value.shape).encode())
        hasher.update(value.tobytes())
    digest = hasher.hexdigest()
    pipeline._digest = digest
    return digest


def save_pipeline(
    pipeline: ContextClassificationPipeline, path: Union[str, Path]
) -> Path:
    """Persist a fitted pipeline to ``<path>/pipeline.json`` + ``pipeline.npz``.

    ``path`` is a directory (created if missing).  Returns the directory.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    (path / "pipeline.json").write_text(
        json.dumps(_pipeline_config(pipeline), indent=2) + "\n"
    )
    with (path / "pipeline.npz").open("wb") as handle:
        np.savez(handle, **_pipeline_arrays(pipeline))
    return path


def load_pipeline(path: Union[str, Path]) -> ContextClassificationPipeline:
    """Load a pipeline saved by :func:`save_pipeline` (inference-ready)."""
    path = Path(path)
    config = json.loads((path / "pipeline.json").read_text())
    if config.get("format") != PIPELINE_FORMAT:
        raise ValueError(
            f"unsupported pipeline format {config.get('format')!r} "
            f"(expected {PIPELINE_FORMAT!r})"
        )
    with np.load(path / "pipeline.npz", allow_pickle=False) as archive:
        arrays = {key: archive[key] for key in archive.files}

    title_cfg = config["title"]
    activity_cfg = config["activity"]
    pattern_cfg = config["pattern"]
    qoe_cfg = config["qoe"]

    pipeline = ContextClassificationPipeline(
        title_window_seconds=title_cfg["window_seconds"],
        title_slot_duration=title_cfg["slot_duration"],
        activity_slot_duration=activity_cfg["slot_duration"],
        activity_alpha=activity_cfg["alpha"],
        pattern_confidence_threshold=pattern_cfg["confidence_threshold"],
        title_confidence_threshold=title_cfg["confidence_threshold"],
    )
    pipeline.title_classifier = GameTitleClassifier(
        window_seconds=title_cfg["window_seconds"],
        slot_duration=title_cfg["slot_duration"],
        size_variation=title_cfg["size_variation"],
        confidence_threshold=title_cfg["confidence_threshold"],
        feature_mode=title_cfg["feature_mode"],
        feature_aggregate=title_cfg["feature_aggregate"],
        model=_restore_forest(title_cfg["model"], arrays, "title"),
    )
    pipeline.activity_classifier = PlayerActivityClassifier(
        slot_duration=activity_cfg["slot_duration"],
        alpha=activity_cfg["alpha"],
        balance_classes=activity_cfg["balance_classes"],
        model=_restore_forest(activity_cfg["model"], arrays, "activity"),
    )
    pipeline.pattern_classifier = GameplayPatternClassifier(
        confidence_threshold=pattern_cfg["confidence_threshold"],
        min_slots=pattern_cfg["min_slots"],
        balance_classes=pattern_cfg["balance_classes"],
        model=_restore_forest(pattern_cfg["model"], arrays, "pattern"),
    )
    pipeline.qoe_estimator = ObjectiveQoEEstimator(
        slot_duration=qoe_cfg["estimator_slot_duration"]
    )
    pipeline.qoe_calibrator = EffectiveQoECalibrator(
        base_thresholds=QoEThresholds(**qoe_cfg["base_thresholds"]),
        pattern_demand={
            ActivityPattern(key): value
            for key, value in qoe_cfg["pattern_demand"].items()
        },
        min_scale=qoe_cfg["min_scale"],
        reference_demand_mbps=qoe_cfg["reference_demand_mbps"],
    )
    pipeline._fitted = bool(config["fitted"])
    return pipeline  # inference-ready: from_state compiled (and validated) each kernel
