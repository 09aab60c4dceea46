"""Federated-learning core (chain-agnostic).

Implements the training/aggregation machinery both evaluation settings use:

* local training (:mod:`repro.fl.trainer`, :mod:`repro.fl.client`),
* FedAvg (:mod:`repro.fl.aggregation`),
* the "consider" combination search and fitness-threshold filtering
  (:mod:`repro.fl.selection`), and its batched fast path
  (:mod:`repro.fl.scoring`),
* wait-for-all / wait-for-k asynchronous policies (:mod:`repro.fl.async_policy`),
* the centralized Vanilla FL orchestrator (:mod:`repro.fl.vanilla`), and
* the label-flip attacker for abnormal-model experiments
  (:mod:`repro.fl.poisoning`).
"""

from repro.fl.client import FLClient
from repro.fl.trainer import LocalTrainer, TrainConfig, TrainResult
from repro.fl.aggregation import fedavg, ModelUpdate
from repro.fl.selection import (
    enumerate_combinations,
    best_combination,
    threshold_filter,
    greedy_combination,
    pick_best,
    CombinationResult,
)
from repro.fl.scoring import (
    CombinationEngine,
    EvaluationCache,
    ScoredSubset,
    dataset_fingerprint,
    weights_fingerprint,
)
from repro.fl.async_policy import WaitForAll, WaitForK, Deadline, AsyncPolicy
from repro.fl.vanilla import VanillaFL, VanillaConfig, VanillaRoundLog
from repro.fl.poisoning import LabelFlipAttacker
from repro.fl.evaluation import evaluate_on, evaluate_weights

__all__ = [
    "FLClient",
    "LocalTrainer",
    "TrainConfig",
    "TrainResult",
    "fedavg",
    "ModelUpdate",
    "enumerate_combinations",
    "best_combination",
    "threshold_filter",
    "greedy_combination",
    "pick_best",
    "CombinationResult",
    "CombinationEngine",
    "EvaluationCache",
    "ScoredSubset",
    "dataset_fingerprint",
    "weights_fingerprint",
    "WaitForAll",
    "WaitForK",
    "Deadline",
    "AsyncPolicy",
    "VanillaFL",
    "VanillaConfig",
    "VanillaRoundLog",
    "LabelFlipAttacker",
    "evaluate_on",
    "evaluate_weights",
]
