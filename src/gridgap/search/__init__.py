"""Restriction-rule construction and model-space search."""

from .masks import GRANGER_THRESHOLDS, explainable_rate
from .sweep import (
    CandidateRecord,
    ScoringConfig,
    SearchResult,
    SearchSpace,
    run_search,
    search_log_csv,
)

__all__ = [
    "GRANGER_THRESHOLDS",
    "CandidateRecord",
    "ScoringConfig",
    "SearchResult",
    "SearchSpace",
    "explainable_rate",
    "run_search",
    "search_log_csv",
]
