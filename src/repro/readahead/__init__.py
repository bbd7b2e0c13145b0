"""The readahead case study: KML applied to prefetch tuning (section 4)."""

from .agent import AgentDecision, ReadaheadAgent
from .dataset import CollectionConfig, Dataset, collect_training_data
from .features import (
    FEATURE_NAMES,
    NUM_FEATURES,
    PAPER_FEATURES,
    FeatureCollector,
)
from .model import (
    WORKLOAD_CLASSES,
    ReadaheadClassifier,
    build_network,
    build_tree,
)
from .trace import TraceWriter, dataset_from_traces, read_trace
from .tuning import (
    DEFAULT_TUNING_TABLE,
    PAPER_RA_VALUES,
    SweepResult,
    TuningTable,
    sweep_best_readahead,
)

__all__ = [
    "AgentDecision",
    "ReadaheadAgent",
    "CollectionConfig",
    "Dataset",
    "collect_training_data",
    "FEATURE_NAMES",
    "NUM_FEATURES",
    "PAPER_FEATURES",
    "FeatureCollector",
    "WORKLOAD_CLASSES",
    "ReadaheadClassifier",
    "build_network",
    "build_tree",
    "TraceWriter",
    "dataset_from_traces",
    "read_trace",
    "DEFAULT_TUNING_TABLE",
    "PAPER_RA_VALUES",
    "SweepResult",
    "TuningTable",
    "sweep_best_readahead",
]
