"""repro — reproduction of "Wait or Not to Wait: Evaluating Trade-Offs
between Speed and Precision in Blockchain-based Federated Aggregation"
(Nguyen et al., ICDCS 2024).

Subpackages
-----------
``repro.chain``
    Simulated private-Ethereum substrate: PoW, gas, mempool, fork choice,
    gossip network, gas-metered Python smart contracts.
``repro.contracts``
    The FL contract suite: participant registry, model commitment store,
    aggregation coordinator, reputation ledger.
``repro.nn``
    From-scratch numpy deep learning: layers, the cross-entropy loss, a
    plain gradient-descent training step, the two evaluation models
    (SimpleNN and the EfficientNet-B0 transfer-learning analog), weight
    serialization for on-chain commitment.
``repro.data``
    Synthetic CIFAR-10-like dataset with per-client label skew.
``repro.fl``
    Chain-agnostic FL: local training, FedAvg, the
    "consider" combination selection, async waiting policies, poisoning.
``repro.core``
    The paper's contribution — fully coupled blockchain-based FL peers,
    decentralized orchestration, non-repudiation evidence, calibrated
    experiment runners.
``repro.scenarios``
    Declarative scenario API: compose cohort/adversary/heterogeneity/chain
    axes into a ``ScenarioSpec``, run any registered workload by name
    (``paper/table1`` … ``cohort/50``), sweep grids with shared datasets.
``repro.metrics``
    Table/figure formatters reproducing the paper's reporting.
"""

__version__ = "1.0.0"
