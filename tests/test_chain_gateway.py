"""The ledger gateway: protocol behavior, error mapping, batching, seam.

Covers the transport-agnostic :mod:`repro.chain.gateway` API the FL layer
programs against:

* ``InProcessGateway`` delegation and instrumentation;
* typed error mapping (unknown contract / unknown method / reverted call
  / rejected transaction) — asserted identical across both backends;
* ``InProcessGateway``'s head-keyed read memo against an un-memoised
  oracle (hypothesis state machine over imports, side chains, reorgs,
  failed reorgs and snapshot syncs);
* ``BatchingGateway`` head-keyed caching with the bounded staleness
  window, and that the backend never changes an end-to-end result;
* full ``chain_stats()`` digests of five small runs, pinned in
  ``tests/fixtures/chain_stats_digests.json`` beside the flattened
  counters each was computed from, so a failure names the first key that
  moved instead of "digest differs";
* the architectural seam: no FL-layer module reaches into ``.node``.

Record the counters (refused, naming what moved, if a run no longer
hashes to its pinned digest; to re-pin on a deliberate counter change,
delete that entry from the fixture's ``"digests"`` first)::

    PYTHONPATH=src python tests/test_chain_gateway.py --regenerate
"""

import copy
import hashlib
import json
import re
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.chain.chainstore import HeadMoves
from repro.chain.crypto import KeyPair
from repro.chain.gateway import (
    BatchingGateway,
    CallRequest,
    ChainGateway,
    GatewayStats,
    InProcessGateway,
    ReadMemo,
    gateway_layers,
    transport_stats,
)
from repro.chain.node import GenesisSpec, Node, NodeConfig
from repro.chain.runtime import ContractRuntime
from repro.chain.scale import ColdStore, snapshot_key
from repro.chain.transaction import Transaction
from repro.contracts import register_all
from repro.core.decentralized import DecentralizedConfig, DecentralizedFL
from repro.core.peer import FullPeer, PeerConfig
from repro.data.dataset import Dataset
from repro.errors import (
    CallRevertedError,
    ContractNotFoundError,
    ContractRevertError,
    GatewayError,
    GatewayTimeoutError,
    InvalidBlockError,
    MethodNotFoundError,
    NetworkError,
    RoundError,
    TransactionRejectedError,
    UnknownContractError,
    UnknownMethodError,
)
from repro.fl.trainer import TrainConfig
from repro.nn.layers import Dense
from repro.nn.model import Sequential
from repro.nn.serialize import weights_hash
from repro.scenarios import ChainSpec, FaultSpec, cohort_scenario, run_scenario
from repro.utils.events import Simulator
from repro.utils.rng import RngFactory
from repro.utils.serialization import canonical_dumps


def make_node(seed: str = "gw-node") -> tuple[Node, KeyPair]:
    runtime = ContractRuntime()
    register_all(runtime)
    kp = KeyPair.from_seed(seed)
    genesis = GenesisSpec(allocations={kp.address: 10**15})
    return Node(kp, genesis, runtime, NodeConfig()), kp


def mine(node: Node, timestamp: float) -> None:
    block = node.build_block_candidate(timestamp, difficulty=1)
    node.seal_and_import(block, nonce=0)


def deploy_contract(node: Node, kp: KeyPair, timestamp: float, **args) -> str:
    tx = Transaction(
        sender=kp.address,
        to=None,
        nonce=node.next_nonce_for(kp.address),
        args=args,
    ).sign_with(kp)
    node.submit_transaction(tx)
    mine(node, timestamp)
    return node.receipt_of(tx.tx_hash).contract_address


def deploy_registry(node: Node, kp: KeyPair, timestamp: float = 13.0) -> str:
    return deploy_contract(
        node, kp, timestamp, contract="participant_registry", open_enrollment=True
    )


@pytest.fixture
def node_and_registry():
    node, kp = make_node()
    registry = deploy_registry(node, kp)
    return node, kp, registry


def backends(node):
    """Both gateway backends over one node (error-parity parametrization)."""
    return {
        "inprocess": InProcessGateway(node),
        "batching": BatchingGateway(InProcessGateway(node)),
    }


class TestCallRequest:
    def test_key_is_canonical_in_arg_order(self):
        a = CallRequest("0xabc", "is_member", {"address": "0x1", "extra": 2})
        b = CallRequest("0xabc", "is_member", {"extra": 2, "address": "0x1"})
        assert a.key() == b.key()

    def test_key_distinguishes_args(self):
        a = CallRequest("0xabc", "is_member", {"address": "0x1"})
        b = CallRequest("0xabc", "is_member", {"address": "0x2"})
        assert a.key() != b.key()

    def test_key_classes_are_those_of_canonical_json(self):
        """Equal keys exactly when the canonical encodings are equal —
        including the values Python itself calls equal (1 == 1.0 == True,
        0.0 == -0.0) and the numpy scalars the encoder reduces."""
        values = [
            1, 1.0, True, 0, 0.0, -0.0, False, None, "1", "", "None",
            float("nan"), float("inf"), 2**70,
            np.int64(1), np.float64(1.0), np.float32(0.5), 0.5, np.bool_(True),
            [1], [1.0], (1,), {"a": 1}, b"1", np.array([1]), np.array([1.0]),
        ]
        requests = [CallRequest("0xabc", "m", {"x": value, "y": 1}) for value in values]
        for a in requests:
            for b in requests:
                same_json = canonical_dumps(a.args) == canonical_dumps(b.args)
                assert (a.key() == b.key()) == same_json, (a.args, b.args)
            assert hash(a.key()) == hash(CallRequest(a.contract, a.method, dict(a.args)).key())

    def test_request_owns_its_args(self):
        """Editing the dict a request was built from, nested values
        included, changes neither its arguments nor its key."""
        for args, edit in (
            ({"address": "0x1"}, lambda args: args.update(address="0x2")),
            ({"display_name": ["probe", 1]}, lambda args: args["display_name"].append(2)),
        ):
            request = CallRequest("0xabc", "m", args)
            before = (copy.deepcopy(request.args), request.key())
            edit(args)
            assert (request.args, request.key()) == before

    def test_scalar_key_encodes_nothing(self, monkeypatch):
        import repro.chain.gateway as gateway_module

        def refuse(_value):
            raise AssertionError("scalar arguments must not reach the encoder")

        monkeypatch.setattr(gateway_module, "canonical_dumps", refuse)
        CallRequest("0xabc", "round_submissions", {"round_id": 3}).key()
        CallRequest("0xabc", "is_credible", {"address": "0x1", "threshold": 0.5}).key()
        CallRequest("0xabc", "member_count").key()


class TestInProcessGateway:
    def test_call_matches_direct_node_read(self, node_and_registry):
        node, kp, registry = node_and_registry
        gateway = InProcessGateway(node)
        assert gateway.call(registry, "member_count") == node.call_contract(
            registry, "member_count"
        )
        assert gateway.stats.calls == 1

    def test_reads_and_counters(self, node_and_registry):
        node, kp, registry = node_and_registry
        gateway = InProcessGateway(node)
        assert gateway.height() == node.height
        assert gateway.head_hash() == node.head.block_hash
        assert gateway.has_contract(registry)
        assert not gateway.has_contract("0x" + "ee" * 20)
        assert gateway.next_nonce(kp.address) == 1
        assert gateway.get_logs(address=registry) == node.get_logs(address=registry)
        stats = gateway.stats
        assert (stats.height_reads, stats.head_checks, stats.contract_checks) == (1, 1, 2)
        assert (stats.nonce_reads, stats.log_queries) == (1, 1)
        assert stats.request_bytes == 0  # no contract calls yet

    def test_batch_call_is_one_round_trip_in_order(self, node_and_registry):
        node, kp, registry = node_and_registry
        gateway = InProcessGateway(node)
        values = gateway.batch_call(
            [
                CallRequest(registry, "member_count"),
                CallRequest(registry, "is_member", {"address": kp.address}),
                CallRequest(registry, "admin"),
            ]
        )
        assert values == [0, False, kp.address]
        assert gateway.stats.batch_calls == 1
        assert gateway.stats.batched_reads == 3
        assert gateway.stats.calls == 0
        assert gateway.stats.contract_call_round_trips == 1
        assert gateway.stats.requested_reads == 3

    def test_submit_enters_mempool(self, node_and_registry):
        node, kp, registry = node_and_registry
        gateway = InProcessGateway(node)
        tx = Transaction(
            sender=kp.address,
            to=registry,
            nonce=gateway.next_nonce(kp.address),
            method="register",
            args={"display_name": "A"},
        ).sign_with(kp)
        assert gateway.submit(tx) == tx.tx_hash
        assert gateway.stats.submits == 1
        mine(node, 26.0)
        assert gateway.call(registry, "is_member", address=kp.address)

    def test_wait_for_without_simulator_raises(self, node_and_registry):
        node, _, _ = node_and_registry
        gateway = InProcessGateway(node)
        with pytest.raises(GatewayError):
            gateway.wait_for(lambda: True, "anything")

    def test_wait_for_timeout_is_a_round_error(self):
        node, _ = make_node()
        sim = Simulator()
        gateway = InProcessGateway(node, simulator=sim)
        # Keep the simulation alive past the deadline so the timeout
        # (not the drained-queue error) fires.
        def tick():
            sim.schedule_in(1.0, tick)
        tick()
        with pytest.raises(GatewayTimeoutError) as excinfo:
            gateway.wait_for(lambda: False, "nothing", deadline=5.0)
        assert isinstance(excinfo.value, RoundError)

    def test_wait_for_drained_simulation_raises_network_error(self):
        node, _ = make_node()
        gateway = InProcessGateway(node, simulator=Simulator())
        with pytest.raises(NetworkError):
            gateway.wait_for(lambda: False, "nothing", deadline=5.0)

    def test_wait_for_returns_when_predicate_holds(self):
        node, _ = make_node()
        sim = Simulator()
        gateway = InProcessGateway(node, simulator=sim)
        seen = []
        sim.schedule_in(2.0, lambda: seen.append(True))
        assert gateway.wait_for(lambda: bool(seen), "flag", deadline=10.0) == 2.0
        assert gateway.stats.waits == 1


# ---------------------------------------------------------------------------
# Head-keyed read memo
# ---------------------------------------------------------------------------

MEMO_KEYPAIRS = [KeyPair.from_seed(f"gw-memo-{i}") for i in range(24)]
MEMO_GENESIS = GenesisSpec(allocations={kp.address: 10**15 for kp in MEMO_KEYPAIRS})

#: What the gateway turns each raw node error into.
TYPED_ERRORS = {
    ContractNotFoundError: UnknownContractError,
    MethodNotFoundError: UnknownMethodError,
    ContractRevertError: CallRevertedError,
}


def outcome(read):
    """``("ok", value)`` or ``("raised", <gateway error name>)`` of a read."""
    try:
        return ("ok", read())
    except (GatewayError, *TYPED_ERRORS) as exc:
        return ("raised", TYPED_ERRORS.get(type(exc), type(exc)).__name__)


class UnmemoisedGateway:
    """The read and submit accounting before the memo: execute every read
    on the node and encode both payloads of every read for their sizes."""

    def __init__(self, node: Node) -> None:
        self.node = node
        self.stats = GatewayStats()

    def _read(self, request: CallRequest):
        value = self.node.call_contract(request.contract, request.method, **request.args)
        self.stats.request_bytes += len(
            canonical_dumps({"to": request.contract, "method": request.method, "args": request.args})
        )
        self.stats.response_bytes += len(canonical_dumps(value))
        return value

    def call(self, contract, method, **args):
        self.stats.calls += 1
        return self._read(CallRequest(contract, method, args))

    def batch_call(self, requests):
        self.stats.batch_calls += 1
        self.stats.batched_reads += len(requests)
        return [self._read(request) for request in requests]

    def submit(self, tx: Transaction) -> None:
        self.stats.submits += 1
        self.stats.request_bytes += len(
            canonical_dumps({"to": tx.to, "method": tx.method, "args": tx.args, "nonce": tx.nonce})
        )


def memo_reads(registry: str, ledger: str, own: str, other: str) -> dict[str, CallRequest]:
    """The reads the memo tests poll, by name; ``own`` is the reading
    node's address (the ``caller`` of its simulated calls)."""
    first = MEMO_KEYPAIRS[0].address
    return {
        "member_count": CallRequest(registry, "member_count"),
        "members": CallRequest(registry, "members"),
        "is_member_own": CallRequest(registry, "is_member", {"address": own}),
        "is_member_other": CallRequest(registry, "is_member", {"address": other}),
        # Simulating a registration succeeds until the node's own one is
        # canonical, reverts while it is, succeeds again if a reorg drops
        # it; the record carries the head height.
        "register": CallRequest(registry, "register", {"display_name": "probe"}),
        "register_list_arg": CallRequest(registry, "register", {"display_name": ["probe", 1]}),
        "score_of": CallRequest(ledger, "score_of", {"address": other}),
        "is_credible_int": CallRequest(ledger, "is_credible", {"address": other, "threshold": 50}),
        "is_credible_float": CallRequest(
            ledger, "is_credible", {"address": other, "threshold": 50.0}
        ),
        "reverts": CallRequest(ledger, "rate", {"round_id": 1, "subject": own, "delta": 5}),
        # The same request from every node: it reverts for the first node
        # (a self-rating) and returns a score for any other.
        "rate_first": CallRequest(ledger, "rate", {"round_id": 1, "subject": first, "delta": 5}),
        "unknown_method": CallRequest(registry, "no_such_method"),
        "unknown_contract": CallRequest("0x" + "ee" * 20, "member_count"),
    }


READ_NAMES = tuple(memo_reads("", "", "", ""))

#: The reads whose methods read ``ctx.sender`` on every path that returns.
CALLER_READS = frozenset({"register", "register_list_arg", "reverts", "rate_first"})


class SteeredChain:
    """A node behind an ``InProcessGateway`` plus a rival miner that moves
    the node's canonical head every way it can move: extension, side
    chain, reorg, a reorg that fails its state-root check and is rolled
    back, and a snapshot ``sync_from`` fast-forward.  The rival reads
    through a gateway of its own on the node's ``ReadMemo``, as two peers
    of one run do; each gateway has its un-memoised oracle.  Both nodes
    share one ``HeadMoves``, as the nodes of one run do, and
    ``head_changes`` counts what it should: every import that left either
    node on another head, two for a fork-choice switch undone by a failed
    execution (there and back), and one per block a snapshot sync
    fast-forwards through.
    """

    def __init__(self) -> None:
        runtime = ContractRuntime()
        register_all(runtime)
        self.cold = ColdStore()
        self.head_moves = HeadMoves()
        self.head_changes = 0
        self.node = Node(
            MEMO_KEYPAIRS[0], MEMO_GENESIS, runtime, NodeConfig(), head_moves=self.head_moves
        )
        self.rival = Node(
            MEMO_KEYPAIRS[1],
            MEMO_GENESIS,
            runtime,
            NodeConfig(cold_store=self.cold, snapshot_interval=1),
            head_moves=self.head_moves,
        )
        self.clock = 0.0
        self.unregistered = list(MEMO_KEYPAIRS)
        self.memo = ReadMemo()
        self.gateway = InProcessGateway(self.node, memo=self.memo)
        self.oracle = UnmemoisedGateway(self.node)
        self.rival_gateway = InProcessGateway(self.rival, memo=self.memo)
        self.rival_oracle = UnmemoisedGateway(self.rival)
        self.registry = self._deploy(contract="participant_registry", open_enrollment=True)
        self.ledger = self._deploy(contract="reputation_ledger")
        self.rival_follows_node()
        self.reads = memo_reads(
            self.registry, self.ledger, self.node.address, MEMO_KEYPAIRS[2].address
        )
        self.rival_reads = memo_reads(
            self.registry, self.ledger, self.rival.address, MEMO_KEYPAIRS[2].address
        )

    def side(self, who: str) -> tuple[Node, InProcessGateway, UnmemoisedGateway, dict]:
        """(node, gateway, oracle, reads) of ``"node"`` or ``"rival"``."""
        if who == "node":
            return self.node, self.gateway, self.oracle, self.reads
        return self.rival, self.rival_gateway, self.rival_oracle, self.rival_reads

    # -- chain steering ----------------------------------------------------

    @contextmanager
    def _counting(self, node: Node):
        """Count one head change if the block leaves ``node`` on another
        head."""
        before = node.head_hash
        yield
        self.head_changes += node.head_hash != before

    def _import(self, node: Node, block) -> None:
        with self._counting(node):
            node.import_block(block)

    def _mine(self, miner: Node, difficulty: int = 1):
        self.clock += 1.0
        block = miner.build_block_candidate(self.clock, difficulty=difficulty)
        with self._counting(miner):
            miner.seal_and_import(block, nonce=0)
        return block

    def _deploy(self, **args) -> str:
        self.clock += 1.0
        with self._counting(self.node):
            return deploy_contract(self.node, MEMO_KEYPAIRS[0], self.clock, **args)

    def canonical_blocks(self, node: Node) -> list:
        return [
            node.store.get(node.store.canonical_hash(number))
            for number in range(1, node.height + 1)
        ]

    def submit_registration(self) -> None:
        """Register the next unused key through the gateway under test."""
        if not self.unregistered:
            return
        kp = self.unregistered.pop(0)
        tx = Transaction(
            sender=kp.address,
            to=self.registry,
            nonce=self.node.next_nonce_for(kp.address),
            method="register",
            args={"display_name": f"peer-{len(self.unregistered)}"},
        ).sign_with(kp)
        self.gateway.submit(tx)
        self.oracle.submit(tx)

    def node_mines(self) -> None:
        self._mine(self.node)

    def rival_mines(self, difficulty: int = 1) -> None:
        """One empty rival block, imported by the node: a side chain while
        the rival's branch is no heavier, a reorg once it is (to the same
        height or a lower one, when ``difficulty`` makes up the weight)."""
        self._import(self.node, self._mine(self.rival, difficulty))

    def rival_follows_node(self) -> None:
        for block in self.canonical_blocks(self.node):
            self._import(self.rival, block)

    def failed_reorg(self) -> None:
        """A heavier rival block whose state root is wrong: fork choice
        switches the node's head to it, execution fails, the switch is
        rolled back."""
        self.clock += 1.0
        lead = self.node.store.total_difficulty(self.node.head_hash) - (
            self.rival.store.total_difficulty(self.rival.head_hash)
        )
        bad = self.rival.build_block_candidate(self.clock, difficulty=max(lead, 0) + 1)
        bad.header.state_root = "0x" + "de" * 32
        bad.header.tx_root = bad.compute_tx_root()
        before = self.node.head_hash
        with pytest.raises(InvalidBlockError):
            self.node.import_block(bad)
        assert self.node.head_hash == before
        self.head_changes += 2  # to the bad block, and back

    def snapshot_sync(self, ahead: int) -> None:
        """The rival gets ``ahead`` >= 2 blocks in front of the node, which
        fast-forwards from the rival's snapshot one block below its head."""
        self.rival_follows_node()
        if self.rival.head_hash != self.node.head_hash:
            self.rival_mines()  # equal weight on another branch: break the tie
        assert self.rival.head_hash == self.node.head_hash
        base = self.node.height
        for _ in range(ahead):
            self._mine(self.rival)
        lineage = self.canonical_blocks(self.rival)[base:]
        payload = self.cold.get(snapshot_key(lineage[-2].block_hash))
        assert self.node.sync_from(payload, lineage[:-1], lineage[-1:]) == 1
        assert self.node.head_hash == self.rival.head_hash
        self.head_changes += len(lineage)

    # -- reads -------------------------------------------------------------

    def read_both(self, how: str, names: list[str], who: str = "node"):
        """One ``call`` / ``batch_call`` on ``who``'s gateway and on its
        oracle; returns (gateway outcome, oracle outcome, reads the gateway
        had either node execute)."""
        _, gateway, oracle, reads = self.side(who)
        requests = [reads[name] for name in names]

        def ask(gateway):
            if how == "call":
                (request,) = requests
                return outcome(
                    lambda: gateway.call(request.contract, request.method, **request.args)
                )
            return outcome(lambda: gateway.batch_call(requests))

        executed = 0

        def counting(original):
            def call_contract(contract, method, **args):
                nonlocal executed
                executed += 1
                return original(contract, method, **args)

            return call_contract

        nodes = (self.node, self.rival)
        for node in nodes:
            node.call_contract = counting(node.call_contract)
        try:
            got = ask(gateway)
        finally:
            for node in nodes:
                del node.call_contract
        return got, ask(oracle), executed

    def close(self) -> None:
        self.cold.close()


class ReadMemoMachine(RuleBasedStateMachine):
    """Random reads from two nodes sharing one ``ReadMemo``, interleaved
    with every way the head can move.

    After every step: each read equals that node's un-memoised oracle,
    both gateways' ``GatewayStats`` equal their oracles', the two nodes
    together executed exactly the reads the memo cannot answer — once per
    (head, request) across both, once per caller for a read of
    ``ctx.sender``, again after the last gateway standing on a head left
    it — ``Node.head_hash`` is the hash of the head block, and the shared
    ``HeadMoves`` counted every head change of either node.
    """

    read_names = st.sampled_from(READ_NAMES)
    sides = st.sampled_from(["node", "rival"])

    @initialize(poll_everything=st.booleans())
    def build(self, poll_everything):
        self.chain = SteeredChain()
        # The model of the memo: the head each side's gateway stands on,
        # and what has been answered at each head someone stands on.
        self.standing: dict[str, str] = {}
        self.answered: dict[str, set] = {}
        # Half the runs re-read everything after every step (any stale
        # answer shows at once); the other half leave the memo as sparse
        # as the drawn reads make it.
        self.poll_everything = poll_everything

    def _stand(self, who: str, head: str) -> set:
        left = self.standing.get(who)
        self.standing[who] = head
        if left is not None and left not in self.standing.values():
            del self.answered[left]
        return self.answered.setdefault(head, set())

    def _expect_executions(self, who: str, names: list[str]) -> int:
        """Reads the memo cannot answer: first at this head (for this
        caller, where it matters), or raising.  A batch stops at its first
        raising read."""
        node, _, _, reads = self.chain.side(who)
        if not names:
            return 0
        answered = self._stand(who, node.head_hash)
        expected = 0
        for name in names:
            request = reads[name]
            key = (request.key(), node.address if name in CALLER_READS else None)
            if key in answered:
                continue
            expected += 1
            result = outcome(
                lambda: node.call_contract(request.contract, request.method, **request.args)
            )
            if result[0] == "raised":
                break
            answered.add(key)
        return expected

    def _read(self, who: str, how: str, names: list[str]) -> None:
        expected = self._expect_executions(who, names)
        got, want, executed = self.chain.read_both(how, names, who)
        assert got == want
        assert executed == expected

    @rule(who=sides, name=read_names)
    def call(self, who, name):
        self._read(who, "call", [name])

    @rule(who=sides, names=st.lists(read_names, max_size=6))
    def batch_call(self, who, names):
        self._read(who, "batch_call", names)

    @rule(register=st.booleans())
    def submit_mine_import(self, register):
        if register:
            self.chain.submit_registration()
        self.chain.node_mines()

    @rule(difficulty=st.integers(min_value=1, max_value=3))
    def rival_block(self, difficulty):
        head = self.chain.node.head_hash
        answered = dict(self.chain.memo._reads.get(head, {}))
        self.chain.rival_mines(difficulty)
        if self.chain.node.head_hash == head and self.standing.get("node") == head:
            # A side-chain import leaves the head where it was: nothing
            # answered at this head is forgotten.
            assert self.chain.memo._reads[head] == answered

    @rule()
    def rival_follows_node(self):
        self.chain.rival_follows_node()

    @rule()
    def failed_reorg(self):
        self.chain.failed_reorg()

    @rule(ahead=st.integers(min_value=2, max_value=4))
    def snapshot_sync(self, ahead):
        self.chain.snapshot_sync(ahead)

    @invariant()
    def every_read_matches(self):
        if self.poll_everything:
            for who in ("node", "rival"):
                for name in READ_NAMES:
                    self._read(who, "call", [name])

    @invariant()
    def counters_match_the_oracle(self):
        for who in ("node", "rival"):
            _, gateway, oracle, _ = self.chain.side(who)
            assert gateway.stats.as_dict() == oracle.stats.as_dict()

    @invariant()
    def memo_holds_only_heads_a_gateway_stands_on(self):
        assert self.chain.memo.heads() == set(self.standing.values())

    @invariant()
    def stored_head_hash_is_the_head_blocks_hash(self):
        for node in (self.chain.node, self.chain.rival):
            assert node.head_hash == node.head.block_hash

    @invariant()
    def head_moves_counts_every_head_change(self):
        assert self.chain.head_moves.count == self.chain.head_changes

    def teardown(self):
        self.chain.close()


TestReadMemoMachine = ReadMemoMachine.TestCase
TestReadMemoMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


#: ``run_tiny_driver`` configurations whose FL layers consume reads differently.
TINY_DRIVER_VARIANTS = {
    "reputation": {},
    "global_vote": {"mode": "global_vote"},
    "transient_faults": {"faults": FaultSpec(transient_rate=0.15, timeout_rate=0.05)},
}


class TestReadMemo:
    def test_each_read_runs_once_per_head_and_counts_every_time(self):
        chain = SteeredChain()
        polls = [chain.read_both("call", ["members"]) for _ in range(5)]
        assert [executed for _, _, executed in polls] == [1, 0, 0, 0, 0]
        assert all(got == want for got, want, _ in polls)
        assert chain.gateway.stats.calls == 5
        assert chain.gateway.stats.as_dict() == chain.oracle.stats.as_dict()
        chain.submit_registration()
        chain.node_mines()
        got, want, executed = chain.read_both("call", ["members"])
        assert executed == 1 and got == want == ("ok", [chain.node.address])
        chain.close()

    def test_head_hash_is_the_head_blocks_hash_through_every_head_move(self):
        chain = SteeredChain()

        def check():
            for node in (chain.node, chain.rival):
                assert node.head_hash == node.head.block_hash
            assert chain.gateway.head_hash() == chain.node.head.block_hash

        check()  # after import (the two deployments)
        chain.node_mines()
        chain.node_mines()
        head = chain.node.head_hash
        chain.rival_mines()  # side chain: one rival block against two
        assert chain.node.head_hash == head
        check()
        chain.rival_mines()
        chain.rival_mines()  # the rival's branch is heavier now
        assert chain.node.head_hash == chain.rival.head_hash != head
        assert chain.node.reorgs_seen == 1
        check()
        chain.failed_reorg()
        check()
        chain.snapshot_sync(3)
        assert chain.node.scale_stats()["storage"]["snap_syncs"] == 1
        check()
        chain.close()

    def test_a_failure_is_never_served_at_a_later_head(self):
        """``register`` simulated by the node reverts while the node's own
        registration is canonical (head A) and succeeds once a reorg has
        dropped it (head B)."""
        chain = SteeredChain()
        chain.submit_registration()  # the node's own key comes first
        chain.node_mines()
        reverted, want, _ = chain.read_both("call", ["register"])
        assert reverted == want == ("raised", "CallRevertedError")
        # Still head A: a raised read is not kept, it runs (and raises) again.
        again, _, executed = chain.read_both("call", ["register"])
        assert again == reverted and executed == 1
        chain.rival_mines()
        chain.rival_mines()  # two empty blocks outweigh the registration
        assert chain.node.head_hash == chain.rival.head_hash
        got, want, executed = chain.read_both("call", ["register"])
        assert got == want and got[0] == "ok" and executed == 1
        assert got[1]["address"] == chain.node.address
        chain.close()

    def test_caller_dependent_reads_are_kept_per_caller(self):
        """At one head ``register`` hands each reading node its own
        record, and ``rate`` of the first node reverts for that node only;
        a raised read is never kept, and a read of no caller runs once for
        both nodes."""
        chain = SteeredChain()
        assert chain.node.head_hash == chain.rival.head_hash
        for who, node in (("node", chain.node), ("rival", chain.rival)):
            got, want, executed = chain.read_both("call", ["register"], who)
            assert got == want and got[1]["address"] == node.address and executed == 1
        for who in ("node", "rival"):
            assert chain.read_both("call", ["register"], who)[2] == 0
        for _ in range(2):
            got, want, executed = chain.read_both("call", ["rate_first"])
            assert got == want == ("raised", "CallRevertedError") and executed == 1
        for expected in (1, 0):
            got, want, executed = chain.read_both("call", ["rate_first"], "rival")
            assert got == want and got[0] == "ok" and executed == expected
        assert chain.read_both("call", ["rate_first"])[2] == 1
        assert [chain.read_both("call", ["members"], who)[2] for who in ("node", "rival")] == [1, 0]
        chain.close()

    def test_a_head_is_dropped_when_its_last_gateway_leaves(self):
        chain = SteeredChain()
        head = chain.node.head_hash
        assert [chain.read_both("call", ["members"], who)[2] for who in ("node", "rival")] == [1, 0]
        chain.node_mines()
        assert chain.read_both("call", ["members"])[2] == 1  # the node's gateway left
        assert chain.memo.heads() == {head, chain.node.head_hash}
        assert chain.read_both("call", ["members"], "rival")[2] == 0  # the rival's did not
        chain.rival_follows_node()
        assert chain.read_both("call", ["members"], "rival")[2] == 0  # answered for the node
        assert chain.memo.heads() == {chain.node.head_hash}
        chain.close()

    @pytest.mark.parametrize("variant", sorted(TINY_DRIVER_VARIANTS))
    def test_fl_layer_leaves_shared_read_results_untouched(self, monkeypatch, variant):
        """A read's value is shared between its repeats and between every
        peer standing on the same head, so its consumers —
        ``fetch_updates``, the registration check, the reputation reads,
        the finalization polls and votes, a retried read — must treat it
        as read-only: after a whole run some value has reached more than
        one peer's gateway, and every value the transport handed out still
        equals the deep copy taken when it was first returned."""
        handed_out: dict[int, tuple] = {}
        execute_read = InProcessGateway._execute_read

        def recording(self, request):
            value = execute_read(self, request)
            if id(value) not in handed_out:
                handed_out[id(value)] = (value, copy.deepcopy(value), set())
            handed_out[id(value)][2].add(id(self))
            return value

        monkeypatch.setattr(InProcessGateway, "_execute_read", recording)
        run_tiny_driver("inprocess", **TINY_DRIVER_VARIANTS[variant])
        assert any(
            len(readers) > 1
            for value, _, readers in handed_out.values()
            if isinstance(value, (list, dict))
        )
        for value, first_seen, _ in handed_out.values():
            assert value == first_seen

    def test_driver_memo_keeps_only_heads_a_gateway_stands_on(self):
        driver, _ = run_tiny_driver("inprocess")
        transports = [gateway_layers(peer.gateway)[-1] for peer in driver.peers.values()]
        assert all(transport.memo is driver.read_memo for transport in transports)
        standing = {transport._head for transport in transports}
        assert None not in standing
        assert driver.read_memo.heads() == standing


class TestErrorMappingParity:
    """The typed error surface is identical across backends."""

    @pytest.mark.parametrize("backend", ["inprocess", "batching"])
    def test_unknown_contract(self, node_and_registry, backend):
        node, _, _ = node_and_registry
        gateway = backends(node)[backend]
        with pytest.raises(UnknownContractError):
            gateway.call("0x" + "ee" * 20, "member_count")

    @pytest.mark.parametrize("backend", ["inprocess", "batching"])
    def test_unknown_method(self, node_and_registry, backend):
        node, _, registry = node_and_registry
        gateway = backends(node)[backend]
        with pytest.raises(UnknownMethodError):
            gateway.call(registry, "no_such_method")

    @pytest.mark.parametrize("backend", ["inprocess", "batching"])
    def test_non_public_method(self, node_and_registry, backend):
        node, _, registry = node_and_registry
        gateway = backends(node)[backend]
        with pytest.raises(UnknownMethodError):
            gateway.call(registry, "init")

    @pytest.mark.parametrize("backend", ["inprocess", "batching"])
    def test_reverted_call(self, node_and_registry, backend):
        node, kp, _ = node_and_registry
        ledger = deploy_contract(node, kp, 26.0, contract="reputation_ledger")
        gateway = backends(node)[backend]
        # Self-rating reverts inside the contract.
        with pytest.raises(CallRevertedError):
            gateway.call(ledger, "rate", round_id=1, subject=kp.address, delta=5)

    @pytest.mark.parametrize("backend", ["inprocess", "batching"])
    def test_rejected_transaction(self, node_and_registry, backend):
        node, kp, registry = node_and_registry
        gateway = backends(node)[backend]
        stale = Transaction(
            sender=kp.address, to=registry, nonce=0, method="register", args={}
        ).sign_with(kp)  # nonce 0 already consumed by the deployment
        with pytest.raises(TransactionRejectedError):
            gateway.submit(stale)

    @pytest.mark.parametrize("backend", ["inprocess", "batching"])
    def test_batch_call_maps_errors_too(self, node_and_registry, backend):
        node, _, registry = node_and_registry
        gateway = backends(node)[backend]
        with pytest.raises(UnknownMethodError):
            gateway.batch_call(
                [
                    CallRequest(registry, "member_count"),
                    CallRequest(registry, "no_such_method"),
                ]
            )


class TestBatchingGateway:
    def test_repeated_read_hits_cache(self, node_and_registry):
        node, _, registry = node_and_registry
        inner = InProcessGateway(node)
        gateway = BatchingGateway(inner)
        assert gateway.call(registry, "member_count") == 0
        assert gateway.call(registry, "member_count") == 0
        assert inner.stats.calls == 1
        assert gateway.stats.calls == 2
        assert gateway.stats.cache_hits == 1

    def test_head_change_invalidates(self, node_and_registry):
        node, kp, registry = node_and_registry
        inner = InProcessGateway(node)
        gateway = BatchingGateway(inner)
        assert gateway.call(registry, "member_count") == 0
        register = Transaction(
            sender=kp.address,
            to=registry,
            nonce=node.next_nonce_for(kp.address),
            method="register",
            args={"display_name": "A"},
        ).sign_with(kp)
        node.submit_transaction(register)
        mine(node, 26.0)
        assert gateway.call(registry, "member_count") == 1
        assert inner.stats.calls == 2

    def test_staleness_window_expires_entries(self, node_and_registry):
        node, _, registry = node_and_registry
        sim = Simulator()
        inner = InProcessGateway(node, simulator=sim)
        gateway = BatchingGateway(inner, staleness=5.0)
        assert gateway.call(registry, "member_count") == 0
        sim.schedule_in(10.0, lambda: None)
        sim.step()  # advance the transport clock past the window
        assert gateway.call(registry, "member_count") == 0
        assert inner.stats.calls == 2  # head unchanged but entry expired

    def test_batch_call_forwards_only_misses(self, node_and_registry):
        node, kp, registry = node_and_registry
        inner = InProcessGateway(node)
        gateway = BatchingGateway(inner)
        gateway.call(registry, "member_count")
        values = gateway.batch_call(
            [
                CallRequest(registry, "member_count"),
                CallRequest(registry, "is_member", {"address": kp.address}),
            ]
        )
        assert values == [0, False]
        assert inner.stats.batch_calls == 1
        assert inner.stats.batched_reads == 1  # only the miss crossed
        assert gateway.stats.cache_hits == 1

    def test_has_contract_cached_nonce_not(self, node_and_registry):
        node, kp, registry = node_and_registry
        inner = InProcessGateway(node)
        gateway = BatchingGateway(inner)
        assert gateway.has_contract(registry)
        assert gateway.has_contract(registry)
        assert inner.stats.contract_checks == 1
        gateway.next_nonce(kp.address)
        gateway.next_nonce(kp.address)
        assert inner.stats.nonce_reads == 2

    def test_reorg_invalidates_cache_within_staleness_window(self, node_and_registry):
        """A cached read is never served across a reorg.

        The cache is head-keyed, not height- or time-keyed: when a
        competing fork wins, the head *hash* changes even though the
        staleness window is nowhere near expiring, and the next read must
        reflect the post-reorg state (here: the registration transaction
        dropped back out of the canonical chain)."""
        node, kp, registry = node_and_registry
        fork_node, _ = make_node()
        fork_node.import_block(node.head)  # sync the registry block
        assert fork_node.height == node.height
        inner = InProcessGateway(node)
        # Huge window: only head changes may invalidate in this test.
        gateway = BatchingGateway(inner, staleness=1e9)
        assert gateway.call(registry, "member_count") == 0
        register = Transaction(
            sender=kp.address,
            to=registry,
            nonce=node.next_nonce_for(kp.address),
            method="register",
            args={"display_name": "A"},
        ).sign_with(kp)
        node.submit_transaction(register)
        mine(node, 26.0)
        assert gateway.call(registry, "member_count") == 1
        reads_before = inner.stats.calls
        # A longer empty fork outweighs the single block with the tx.
        for timestamp in (26.5, 27.0):
            block = fork_node.build_block_candidate(timestamp, difficulty=1)
            fork_node.seal_and_import(block, nonce=0)
            node.import_block(fork_node.head)
        assert node.head.block_hash == fork_node.head.block_hash
        # Post-reorg the cached value 1 would be wrong; the gateway must
        # read through and see the fork's state.
        assert gateway.call(registry, "member_count") == 0
        assert inner.stats.calls == reads_before + 1

    def test_invalid_staleness_rejected(self, node_and_registry):
        node, _, _ = node_and_registry
        with pytest.raises(GatewayError):
            BatchingGateway(InProcessGateway(node), staleness=0.0)

    def test_transport_stats_unwraps_to_innermost(self, node_and_registry):
        node, _, _ = node_and_registry
        inner = InProcessGateway(node)
        gateway = BatchingGateway(inner)
        assert transport_stats(gateway) is inner.stats
        assert transport_stats(inner) is inner.stats

    def test_stats_add_and_dict_shape(self):
        a, b = GatewayStats(calls=2, batch_calls=1, batched_reads=3), GatewayStats(calls=1)
        a.add(b)
        payload = a.as_dict()
        assert payload["calls"] == 3
        assert payload["contract_call_round_trips"] == 4
        assert payload["requested_reads"] == 6
        assert "wire_seconds" not in payload  # wall-clock stays off results


def easy_dataset(rng, n=60):
    x = rng.normal(size=(n, 4))
    y = (x[:, 0] > 0).astype(np.int64)
    return Dataset(x, y)


def run_tiny_driver(gateway_backend: str, **config):
    """Three peers, two rounds, reputation on; ``config`` overrides any
    other ``DecentralizedConfig`` field."""
    peers = ("A", "B", "C")
    data_rng = np.random.default_rng(0)
    driver = DecentralizedFL(
        [
            PeerConfig(peer_id=p, train_config=TrainConfig(epochs=1), training_time=5.0)
            for p in peers
        ],
        {p: easy_dataset(data_rng, n=60) for p in peers},
        {p: easy_dataset(data_rng, n=40) for p in peers},
        lambda rng: Sequential([Dense(2, name="out")]).build(np.random.default_rng(42), (4,)),
        DecentralizedConfig(
            **{
                "rounds": 2,
                "enable_reputation": True,
                "chain": ChainSpec(gateway=gateway_backend),
                **config,
            }
        ),
        rng_factory=RngFactory(5),
    )
    logs = driver.run()
    return driver, logs


class TestBackendEquivalence:
    """The batching backend never changes an end-to-end result."""

    def test_batching_run_identical_to_inprocess(self):
        raw_driver, raw_logs = run_tiny_driver("inprocess")
        bat_driver, bat_logs = run_tiny_driver("batching")
        assert [
            (log.peer_id, log.round_id, log.chosen_combination, log.chosen_accuracy,
             log.combination_accuracy, log.wait_time)
            for log in raw_logs
        ] == [
            (log.peer_id, log.round_id, log.chosen_combination, log.chosen_accuracy,
             log.combination_accuracy, log.wait_time)
            for log in bat_logs
        ]
        for peer_id in raw_driver.peers:
            raw_weights = raw_driver.peers[peer_id].client.model.get_weights()
            bat_weights = bat_driver.peers[peer_id].client.model.get_weights()
            assert weights_hash(raw_weights) == weights_hash(bat_weights)
            assert raw_driver.reputation_of(peer_id) == bat_driver.reputation_of(peer_id)

    def test_batching_reduces_transport_round_trips(self):
        """Batching's view token is ``None``, so the driver waiting on it
        re-reads every peer after every event, and its cache coalesces
        those reads into fewer transport round trips.  The in-process
        driver re-reads a peer only after its head moved, so it asks for
        no more reads than batching does — and both runs end the same."""
        raw_driver, raw_logs = run_tiny_driver("inprocess")
        bat_driver, bat_logs = run_tiny_driver("batching")
        raw = raw_driver.gateway_stats()
        bat = bat_driver.gateway_stats()
        assert raw["backend"] == "inprocess" and bat["backend"] == "batching"
        assert bat["requested"]["cache_hits"] > 0
        assert (
            bat["transport"]["contract_call_round_trips"]
            < bat["requested"]["requested_reads"]
        )
        assert raw["requested"]["requested_reads"] <= bat["requested"]["requested_reads"]
        # Reads are coalesced or skipped, never the submits.
        assert bat["requested"]["submits"] == raw["requested"]["submits"]
        assert [
            (log.peer_id, log.round_id, log.submitted_at, log.ready_at, log.aggregated_at)
            for log in raw_logs
        ] == [
            (log.peer_id, log.round_id, log.submitted_at, log.ready_at, log.aggregated_at)
            for log in bat_logs
        ]
        assert raw_driver.model_digests() == bat_driver.model_digests()

    def test_chain_stats_carries_gateway_instrumentation(self):
        driver, _ = run_tiny_driver("inprocess")
        stats = driver.chain_stats()
        gateway = stats["gateway"]
        assert gateway["backend"] == "inprocess"
        assert gateway["requested"] == gateway["transport"]
        assert gateway["requested"]["contract_call_round_trips"] > 0
        assert gateway["requested"]["submits"] > 0
        assert stats["heights"]  # heights come from gateway.height()


REPO_ROOT = Path(__file__).resolve().parent.parent
DIGEST_FIXTURE = REPO_ROOT / "tests" / "fixtures" / "chain_stats_digests.json"


def digest_specs() -> dict:
    """Five small runs whose transport counters take different paths."""
    base = replace(cohort_scenario(4).quick(), rounds=2)
    sampled = replace(cohort_scenario(8, sampled_k=3).quick(), rounds=2)
    return {
        "inprocess": base,
        "batching": replace(base, chain=replace(base.chain, gateway="batching")),
        "faults": replace(
            base,
            faults=FaultSpec(transient_rate=0.05, timeout_rate=0.02, latency_rate=0.1),
        ),
        "cold_storage_sampling": replace(
            sampled,
            chain=replace(sampled.chain, cold_storage=True, hot_window=4, snapshot_interval=4),
        ),
        "multiprocess": replace(base, runtime="multiprocess", runtime_workers=2),
    }


def scrubbed_chain_stats(spec) -> dict:
    """The run's whole ``chain_stats()`` minus its wall-clock fields:
    in-process it holds none (``GatewayStats.as_dict`` leaves those out);
    the multiprocess runtime's ``wire`` block names each one ``*seconds*``."""
    stats = run_scenario(spec).chain_stats
    wire = stats["gateway"].get("wire")
    if wire is not None:
        stats["gateway"]["wire"] = {
            key: value for key, value in wire.items() if "seconds" not in key
        }
    return stats


def stats_digest(stats: dict) -> str:
    return hashlib.sha256(canonical_dumps(stats)).hexdigest()


def flatten(value, prefix: str = "") -> dict:
    """``{"gateway.requested.calls": 412, "heights.P00": 9, ...}``: one
    entry per leaf, dict keys joined with ``.`` and list items as ``[i]``;
    an empty container is a leaf.  :func:`unflatten` inverts it."""
    if isinstance(value, dict) and value:
        assert not any(set(".[]") & set(str(key)) for key in value), sorted(value)
        children = [(f"{prefix}.{key}" if prefix else str(key), item) for key, item in value.items()]
    elif isinstance(value, list) and value:
        children = [(f"{prefix}[{index}]", item) for index, item in enumerate(value)]
    else:
        return {prefix: value}
    flat: dict = {}
    for key, item in children:
        flat.update(flatten(item, key))
    return flat


def runtime_only(key: str) -> bool:
    """The flattened ``chain_stats`` keys a runtime may change: the
    workers' wire traffic and the coordinator store's marshalling
    counters.  Every ledger operation runs in the driver under both
    runtimes, so every other counter — ``gateway.requested`` and
    ``gateway.transport`` included — is the in-process run's."""
    return key == "gateway.runtime" or key.startswith(
        ("gateway.wire.", "gateway.worker_stats", "offchain_marshalling.")
    )


def unflatten(flat: dict):
    tree: dict = {}
    for key, leaf in flat.items():
        path = [name or int(index) for name, index in re.findall(r"([^.\[\]]+)|\[(\d+)\]", key)]
        node = tree
        for token in path[:-1]:
            node = node.setdefault(token, {})
        node[path[-1]] = leaf

    def lists_restored(node):
        if not isinstance(node, dict) or not node:
            return node
        if all(isinstance(key, int) for key in node):
            return [lists_restored(node[index]) for index in range(len(node))]
        return {key: lists_restored(item) for key, item in node.items()}

    return lists_restored(tree)


def first_difference(pinned: dict, got: dict) -> str:
    """Name the first (in key order) flattened counter that moved, or ""."""
    absent = "<absent>"
    for key in sorted(pinned.keys() | got.keys()):
        if pinned.get(key, absent) != got.get(key, absent):
            return f"{key}: pinned {pinned.get(key, absent)!r}, got {got.get(key, absent)!r}"
    return ""


class TestChainStatsDigests:
    """Every counter of ``chain_stats()`` — not only the heights the
    benchmark's ``result_digest`` covers — is a pinned function of the
    run.  The in-process entries were recorded at the commit before the
    read memo; ``multiprocess`` at the commit before the ``PeerShard``
    refactor, then re-recorded once for the 22 bytes per worker the
    ``init`` frame's encoded spec lost with ``selection_workers`` (every
    other frame and counter stayed equal).  All five were re-recorded
    when the block executor's process pool went: its two always-zero
    ``execution.pool_*`` counters left every run, and ``multiprocess``
    also lost the 22 bytes per worker the pool's worker-count field took
    in that same ``init`` frame.  ``multiprocess`` was re-recorded once
    more when every ledger operation moved into the driver: its
    ``gateway.requested`` / ``gateway.transport`` counters became the
    in-process run's, and its ``wire`` / ``worker_stats`` blocks shrank to
    the workers' blob pulls.  It was re-recorded once more when worker
    fleets began to outlive a run: a run's channel counters now start at
    its ``init`` task, so the launch's ``hello`` frames (42 bytes per
    worker) and, worker-side, the ``init`` frame itself are no longer in
    them.  It was re-recorded once more when every round step began to
    cross the wire in the one task format of ``repro.runtime.steps``: a
    task's per-peer inputs travel under ``inputs``, ``init`` names the
    worker's peers instead of the worker count, and results drop the
    per-entry peer ids and the round logs' field names — so only the
    channel byte counters (``gateway.wire.bytes_*``,
    ``worker_stats[*].channel.*``) moved.  ``inprocess``,
    ``cold_storage_sampling`` and ``multiprocess`` were re-recorded once
    more when the driver's chain-view waits began to re-read a peer only
    after its head moved: only the read counters of ``gateway.requested``
    and ``gateway.transport`` moved (``calls``, ``batch_calls``,
    ``batched_reads``, ``contract_checks``, their request/response bytes
    and the two derived totals); ``faults`` and ``batching``, whose stacks
    have no view token, still poll every event.  ``multiprocess`` was
    re-recorded once more when 21 spec fields nothing set became
    constants: the ``init`` frame's encoded spec lost 499 bytes per
    worker, and ``gateway.wire.bytes_sent`` was the only counter that
    moved.  It was re-recorded once more when the adversary's
    ``noise_std`` / ``scale`` and the generator's ``modes_per_class`` /
    ``latent_dim`` left the spec: the ``init`` frame lost 65 bytes per
    worker (``gateway.wire.bytes_sent`` 4 000 024 -> 3 999 894, the only
    counter that moved).  It was re-recorded once more when the
    generator's ``image_shape`` left the spec: the ``init`` frame lost 24
    bytes per worker (``gateway.wire.bytes_sent`` 3 999 894 -> 3 999 846,
    the only counter that moved).  All five were re-recorded when the
    duplicate and stale fault kinds went: ``faults`` was first re-recorded
    without its two rates for those kinds, then every entry lost the
    always-zero ``messages_duplicated`` counter, and ``multiprocess`` also
    lost 182 bytes per worker of ``init`` frame with the eight spec fields
    that became constants (``gateway.wire.bytes_sent`` 3 999 846 ->
    3 999 482; no other counter moved).  Beside each digest the fixture
    keeps the flattened counters it was computed from (recorded at the
    commit before the ``Round`` refactor), so a failure names what moved."""

    @pytest.mark.parametrize("name", sorted(digest_specs()))
    def test_full_chain_stats_unchanged(self, name):
        fixture = json.loads(DIGEST_FIXTURE.read_text())
        stats = scrubbed_chain_stats(digest_specs()[name])
        moved = first_difference(fixture["stats"][name], flatten(stats))
        if moved:
            print(f"chain_stats[{name}] first differing key — {moved}")
        assert stats_digest(stats) == fixture["digests"][name], moved

    def test_pinned_counters_rehash_to_their_digests(self):
        """The readable half of the fixture is the hashed half: a map
        edited by hand, or recorded from a different run, fails here."""
        fixture = json.loads(DIGEST_FIXTURE.read_text())
        assert sorted(fixture["stats"]) == sorted(fixture["digests"]) == sorted(digest_specs())
        for name, digest in fixture["digests"].items():
            assert stats_digest(unflatten(fixture["stats"][name])) == digest, name

    def test_multiprocess_counters_are_the_inprocess_ones(self):
        """The same spec, two runtimes: every pinned counter but the
        runtime's own wire and marshalling traffic is equal."""
        pinned = json.loads(DIGEST_FIXTURE.read_text())["stats"]
        inprocess, multiprocess = pinned["inprocess"], pinned["multiprocess"]
        assert any(runtime_only(key) for key in multiprocess)  # non-vacuous

        def ledger(stats: dict) -> dict:
            return {key: value for key, value in stats.items() if not runtime_only(key)}

        moved = first_difference(ledger(inprocess), ledger(multiprocess))
        assert moved == "", moved

    def test_flattening_round_trips_and_names_what_moved(self):
        stats = {
            "heights": {"A": 3, "B": 3},
            "gateway": {"workers": [{"peers": ["A"], "calls": 7}, {"peers": [], "calls": 0}]},
            "storage": {},
            "skipped": [2, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20],
        }
        flat = flatten(stats)
        assert flat["gateway.workers[0].peers[0]"] == "A" and flat["storage"] == {}
        assert unflatten(flat) == stats
        assert unflatten(dict(sorted(flat.items()))) == stats  # as json.dumps(sort_keys) stores it
        assert first_difference(flat, flat) == ""
        moved = {**flat, "gateway.workers[0].calls": 9}
        del moved["heights.B"]
        assert first_difference(flat, moved) == "gateway.workers[0].calls: pinned 7, got 9"
        assert first_difference(flat, {**flat, "new": 1}) == "new: pinned '<absent>', got 1"


class TestGatewaySeam:
    """Architecture test: the FL layer never touches a node.

    Delegates to the ``seam`` lint rule (AST-accurate, aliased-import
    aware) — the tokenizer scan that used to live here is retired.  The
    linter's own suite covers the rule's corners; this test keeps the
    seam failure local to the gateway suite where it was born.
    """

    def test_no_node_access_outside_chain_package(self):
        from repro.devtools.lint import LintEngine
        from repro.devtools.lint.rules import SeamRule

        engine = LintEngine(rules=[SeamRule()], root=REPO_ROOT)
        offenders = engine.lint_paths(
            [REPO_ROOT / "src" / "repro", REPO_ROOT / "examples"]
        )
        assert offenders == [], (
            "FL-layer code must go through the ChainGateway protocol; "
            "found raw node access:\n"
            + "\n".join(f.render() for f in offenders)
        )

    def test_full_peer_exposes_gateway_not_node(self):
        assert "gateway" in FullPeer.__init__.__code__.co_varnames
        assert "node" not in FullPeer.__init__.__code__.co_varnames

    def test_gateway_protocol_is_satisfied_by_both_backends(self):
        node, _ = make_node()
        inner = InProcessGateway(node)
        assert isinstance(inner, ChainGateway)
        assert isinstance(BatchingGateway(inner), ChainGateway)


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        fixture = json.loads(DIGEST_FIXTURE.read_text())
        fixture.setdefault("stats", {})
        for name, spec in digest_specs().items():
            flat = flatten(scrubbed_chain_stats(spec))
            digest = stats_digest(unflatten(flat))
            pinned = fixture["digests"].setdefault(name, digest)
            if digest != pinned:
                sys.exit(
                    f"{name}: this run hashes to {digest}, the fixture pins {pinned}; first "
                    f"differing key — {first_difference(fixture['stats'].get(name, {}), flat)}\n"
                    f"nothing written (to re-pin deliberately, delete {name!r} from "
                    f"\"digests\" in {DIGEST_FIXTURE.name} first)"
                )
            fixture["stats"][name] = flat
        DIGEST_FIXTURE.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
        print(f"wrote {DIGEST_FIXTURE}")
    else:
        sys.exit(pytest.main([__file__, "-q"]))
