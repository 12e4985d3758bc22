"""Counterfactual daily-load estimation via an ensemble of small networks."""

from .ensemble import (
    ENSEMBLE_FORMAT,
    PREDICTION_LEVELS,
    BackcastEnsemble,
    BaseModel,
    TrainingConfig,
    load_ensemble,
    monthly_row,
    predict_many,
    reduction_series,
    save_ensemble,
    train_ensemble,
    training_workers,
)
from .features import (
    FEATURE_DIMENSION,
    MIN_WEATHER_CELLS,
    QUANTILE_LEVELS,
    WEATHER_KINDS,
    feature_matrix,
)
from .network import forward, init_params, loss_and_grads, train_network

__all__ = [
    "BackcastEnsemble",
    "BaseModel",
    "ENSEMBLE_FORMAT",
    "FEATURE_DIMENSION",
    "MIN_WEATHER_CELLS",
    "PREDICTION_LEVELS",
    "QUANTILE_LEVELS",
    "TrainingConfig",
    "WEATHER_KINDS",
    "feature_matrix",
    "forward",
    "init_params",
    "load_ensemble",
    "loss_and_grads",
    "monthly_row",
    "predict_many",
    "reduction_series",
    "save_ensemble",
    "train_ensemble",
    "training_workers",
]
