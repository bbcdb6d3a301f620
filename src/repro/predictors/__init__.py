"""Branch predictor library (the sim-bpred analog plus ablation family)."""

from .agree import AgreePredictor
from .base import BranchPredictor
from .bht import BranchHistoryTable, InfiniteBHT
from .bimodal import BimodalPredictor
from .counters import CounterTable
from .filtered import BiasFilteredPredictor
from .gshare import GSharePredictor
from .hybrid import HybridPredictor
from .indexing import (
    IndexFunction,
    PCModuloIndex,
    StaticIndexMap,
    XorFoldIndex,
)
from .simulator import PredictionStats, simulate_predictor
from .static_pred import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
    BTFNTPredictor,
    ProfileStaticPredictor,
)
from .twolevel import (
    GAgPredictor,
    GAsPredictor,
    InterferenceFreePAg,
    PAgPredictor,
    PApPredictor,
)

__all__ = [
    "AgreePredictor",
    "BiasFilteredPredictor",
    "AlwaysNotTakenPredictor",
    "AlwaysTakenPredictor",
    "BTFNTPredictor",
    "BimodalPredictor",
    "BranchHistoryTable",
    "BranchPredictor",
    "CounterTable",
    "GAgPredictor",
    "GAsPredictor",
    "GSharePredictor",
    "HybridPredictor",
    "IndexFunction",
    "InfiniteBHT",
    "InterferenceFreePAg",
    "PAgPredictor",
    "PApPredictor",
    "PCModuloIndex",
    "PredictionStats",
    "ProfileStaticPredictor",
    "StaticIndexMap",
    "XorFoldIndex",
    "simulate_predictor",
]
