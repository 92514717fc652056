"""Experiment harness: scenario runners, traffic accounting, CSV reports."""

from .config import (
    SCENARIOS,
    DatasetSpec,
    ExperimentConfig,
    load_config,
    load_raw_dataset,
    preprocess_dataset,
    resolve_dataset,
)
from .federation import (
    FederationResult,
    NodeSetup,
    prepare_node,
    run_federation,
    run_nodes,
)
from .experiments import (
    DetectionReport,
    ExperimentResult,
    NetworkReport,
    cold_start_windows,
    load_model_checkpoint,
    network_reduction,
    run_centralized,
    run_cold_start,
    run_experiment,
    run_historical,
    run_knowledge_transfer,
    save_model_checkpoint,
)
from .reports import export_results
from .sweep import SweepPoint, SweepResult, rank_results, sample_grid, search_space, sweep_hyperparameters

__all__ = [
    "SCENARIOS",
    "DatasetSpec",
    "DetectionReport",
    "ExperimentConfig",
    "ExperimentResult",
    "FederationResult",
    "NetworkReport",
    "NodeSetup",
    "SweepPoint",
    "SweepResult",
    "cold_start_windows",
    "export_results",
    "load_config",
    "load_model_checkpoint",
    "load_raw_dataset",
    "network_reduction",
    "prepare_node",
    "preprocess_dataset",
    "rank_results",
    "resolve_dataset",
    "run_centralized",
    "run_cold_start",
    "run_experiment",
    "run_federation",
    "run_historical",
    "run_knowledge_transfer",
    "run_nodes",
    "sample_grid",
    "save_model_checkpoint",
    "search_space",
    "sweep_hyperparameters",
]
