"""Ethereum-style blockchain substrate (simulated).

The paper deploys a private PoW Ethereum (Geth) network of three peers; this
package provides the equivalent substrate in-process:

* :mod:`repro.chain.crypto` — deterministic keypairs, signing, addresses.
* :mod:`repro.chain.transaction` — signed transactions with gas accounting.
* :mod:`repro.chain.block` / :mod:`repro.chain.merkle` — blocks and roots.
* :mod:`repro.chain.pow` — statistical proof of work with retargeting.
* :mod:`repro.chain.state` — world state (balances, nonces, storage).
* :mod:`repro.chain.mempool` — pending transaction pool.
* :mod:`repro.chain.chainstore` — block tree with total-difficulty fork choice.
* :mod:`repro.chain.runtime` — gas-metered Python smart-contract runtime.
* :mod:`repro.chain.node` — a full node (validate, execute, mine).
* :mod:`repro.chain.network` — gossip network with latency and partitions.
* :mod:`repro.chain.gateway` — the transport-agnostic ledger service API
  the FL layer programs against (in-process and batching backends).
* :mod:`repro.chain.spec` — :class:`ChainSpec`, the one declaration and
  validation of every chain knob.
* :mod:`repro.chain.scale` — scale-out machinery: deterministic parallel
  transaction execution, spillable cold block/receipt storage, and
  root-verified snapshot state-sync.
"""

from repro.chain.crypto import KeyPair, Address, sign, verify, recover_check
from repro.chain.transaction import Transaction, Receipt, VALIDATION_STATS
from repro.chain.block import Block, BlockHeader, GENESIS_PARENT
from repro.chain.merkle import merkle_root, merkle_proof, verify_proof
from repro.chain.gas import GasSchedule, intrinsic_gas
from repro.chain.pow import ProofOfWork
from repro.chain.state import WorldState, AccountState, StateError, STATE_STATS
from repro.chain.mempool import Mempool
from repro.chain.chainstore import ChainStore, HeadMoves
from repro.chain.runtime import ContractRuntime, Contract, CallContext
from repro.chain.scale import BlockExecutionMemo, ColdStore, ColdStoreStats, ExecutionStats
from repro.chain.node import GenesisSpec, Node, NodeConfig
from repro.chain.network import P2PNetwork, LatencyModel
from repro.chain.gateway import (
    BatchingGateway,
    CallRequest,
    ChainGateway,
    GatewayStats,
    InProcessGateway,
    transport_stats,
)
from repro.chain.spec import ChainSpec

__all__ = [
    "KeyPair",
    "Address",
    "sign",
    "verify",
    "recover_check",
    "Transaction",
    "Receipt",
    "Block",
    "BlockHeader",
    "GENESIS_PARENT",
    "merkle_root",
    "merkle_proof",
    "verify_proof",
    "GasSchedule",
    "intrinsic_gas",
    "ProofOfWork",
    "WorldState",
    "AccountState",
    "StateError",
    "STATE_STATS",
    "VALIDATION_STATS",
    "Mempool",
    "ChainStore",
    "HeadMoves",
    "ContractRuntime",
    "Contract",
    "CallContext",
    "BlockExecutionMemo",
    "ColdStore",
    "ColdStoreStats",
    "ExecutionStats",
    "GenesisSpec",
    "Node",
    "NodeConfig",
    "P2PNetwork",
    "LatencyModel",
    "BatchingGateway",
    "CallRequest",
    "ChainGateway",
    "GatewayStats",
    "InProcessGateway",
    "transport_stats",
    "ChainSpec",
]
