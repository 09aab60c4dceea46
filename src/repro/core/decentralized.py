"""Decentralized blockchain-based FL orchestrator (Tables II-IV, Figure 4).

Wires :class:`~repro.core.peer.FullPeer` objects into the simulated
Ethereum network and drives communication rounds end to end:

1. a peer deploys the contract suite (registry, model store, coordinator)
   and everyone registers — all mined through PoW like any other tx;
2. each round is a short sequence of named phases that hand one
   :class:`~repro.core.rounds.Round` — the round's working set and clock
   marks — to each other.  *Open*: enact crash windows and absences, pick
   the live subcohort, broadcast ``open_round``.  *Train + submit*: every
   live peer trains locally (simulated duration), uploads its weights
   off-chain, and its ``submit_model`` transaction is scheduled for when
   training ends;
3. *quorum*: miners include the submissions in blocks; each peer reads
   its *own* chain view until its waiting policy fires against the peers
   still in the round (wait-for-all reproduces the paper's tables;
   wait-for-k drives the async trade-off benchmark).  A peer's view is
   re-read only when its head moved (:meth:`DecentralizedFL._wait_views`).
   *Fetch views*: each surviving peer's visible updates are fetched once;
4. *aggregate | vote*: the peer enumerates model combinations against its
   private test set, logs the full accuracy table and adopts the best
   combination (ties broken uniformly at random, as the paper specifies)
   — or, in global-vote mode, votes a common aggregate on chain.  *Rate*
   (reputation extension) and *close* finish the round.

The result object holds, for every (peer, round, combination), the accuracy
that Tables II-IV report, plus the timing telemetry behind the headline
speed/precision claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from itertools import islice
from typing import Any, Callable, Optional

import numpy as np

from repro.chain.crypto import Address
from repro.chain.gateway import (
    BatchingGateway,
    CallRequest,
    ChainGateway,
    GatewayStats,
    InProcessGateway,
    ReadMemo,
    stacked_stats,
    transport_stats,
)
from repro.chain import BlockExecutionMemo, ColdStore, GenesisSpec, HeadMoves, Node, NodeConfig
from repro.chain.network import LatencyModel, P2PNetwork
from repro.chain.pow import ProofOfWork, RetargetRule
from repro.chain.runtime import ContractRuntime
from repro.chain.spec import ChainSpec
from repro.contracts import register_all
from repro.core.offchain import OffchainStore
from repro.core.participation import ParticipationPlan, ParticipationSpec
from repro.core.peer import FullPeer, PeerConfig, peer_keypair, registration_transaction
from repro.core.rounds import Round
from repro.core.shard import PeerRoundLog, PeerShard
from repro.data.dataset import Dataset
from repro.errors import (
    ConfigError,
    GatewayError,
    RoundError,
    WireProtocolError,
    WorkerCrashedError,
)
from repro.faults import FaultInjector, FaultPlan, FaultSpec, FaultyGateway, ResilientGateway
from repro.fl.async_policy import AsyncPolicy, WaitForAll
from repro.nn.model import Sequential
from repro.utils.events import Simulator
from repro.utils.hashing import sha256_bytes
from repro.utils.rng import RngFactory

#: Initial balance funding each peer's gas spend.
PEER_ALLOCATION = 10**15

#: The paper's one private chain, in simulated seconds: the PoW target
#: block interval and every node's hashrate (genesis difficulty starts at
#: their product, the retarget equilibrium), the per-link gossip delay,
#: how long a link coalesces messages, and every ledger wait's deadline.
TARGET_BLOCK_INTERVAL = 13.0
HASHRATE = 1000.0
LATENCY_BASE = 0.05
LATENCY_JITTER = 0.02
GOSSIP_BATCH_WINDOW = 0.01
MAX_ROUND_TIME = 100_000.0

#: Score every participant starts with on the reputation ledger; scores
#: below it mark peers the cohort has rated down (the exclusion signal).
REPUTATION_INITIAL_SCORE = 100


@dataclass
class DecentralizedConfig:
    """The decentralized driver's parameters: FL knobs plus three sub-specs.

    The chain, fault and participation axes are held whole — declared,
    documented and validated on :class:`~repro.chain.spec.ChainSpec`,
    :class:`~repro.faults.FaultSpec` and
    :class:`~repro.core.participation.ParticipationSpec` — so every field
    name here is also a :class:`~repro.scenarios.spec.ScenarioSpec` field
    with the same default, and :meth:`project` reads one off the other.
    The checks that tie the axes to ``rounds`` live here, so a scenario
    spec and a hand-built driver pass the same ones.

    ``mode`` selects between the paper's two operating modes (§III-B):

    * ``"personalized"`` — each peer customizes its aggregation with an
      arbitrary subset of local models (decentralized learning; the
      default, and what Tables II-IV report);
    * ``"global_vote"`` — peers aggregate the full visible set, vote the
      resulting hash on chain, and adopt whichever aggregate reaches the
      finalization threshold: a common global model without a fixed single
      aggregator.

    ``enable_reputation`` adds the incentive extension: after aggregating,
    each peer rates the others on the reputation ledger according to
    whether their solo models scored within
    :data:`~repro.core.shard.REPUTATION_FITNESS_MARGIN` of its own.

    ``selection`` picks the combination-search strategy in personalized
    mode: ``"exhaustive"`` enumerates every subset (the paper's Tables
    II-IV), ``"greedy"`` runs forward selection (O(n^2) instead of
    O(2^n)), and ``"auto"`` — the default — stays exhaustive up to
    :data:`~repro.core.shard.EXHAUSTIVE_LIMIT` visible updates and
    switches to greedy beyond it, so the paper's 3-peer tables are
    bit-identical while 10-50-peer cohorts stay tractable.  Searches run
    through the memoized :class:`~repro.fl.scoring.CombinationEngine`; the
    seed per-subset loops in :mod:`repro.fl.selection` are the oracle its
    tests compare against.

    An active ``faults`` spec puts a :class:`~repro.faults.FaultyGateway`
    (and, with ``faults.resilience``, a
    :class:`~repro.faults.ResilientGateway`) into every peer's gateway
    stack, degrades rounds to the live quorum, and makes ``run()`` record
    ``completed_rounds`` / ``abort_reason`` instead of propagating round
    failures.  An engaged ``participation`` spec restricts each round to
    its sampled subcohort, partitions absent peers like a crash, and never
    materializes peers that are never selected.  Both defaults change
    nothing: the stack, rng draws and results are byte-identical to builds
    without the axis.
    """

    rounds: int = 10
    policy: AsyncPolicy = field(default_factory=WaitForAll)
    mode: str = "personalized"
    enable_reputation: bool = False
    selection: str = "auto"
    chain: ChainSpec = field(default_factory=ChainSpec)
    faults: FaultSpec = field(default_factory=FaultSpec)
    participation: ParticipationSpec = field(default_factory=ParticipationSpec)

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigError(f"rounds must be >= 1, got {self.rounds}")
        if self.mode not in ("personalized", "global_vote"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.selection not in ("exhaustive", "greedy", "auto"):
            raise ConfigError(f"unknown selection strategy {self.selection!r}")
        if self.faults.crash_fraction > 0 and self.faults.crash_round > self.rounds:
            raise ConfigError(
                f"crash_round {self.faults.crash_round} is after the last "
                f"round {self.rounds} (rounds are 1-based): no peer would crash"
            )
        for peer_index, first_round, _length in self.participation.windows:
            if first_round > self.rounds:
                raise ConfigError(
                    f"availability window of peer index {peer_index} opens at "
                    f"round {first_round}, after the last round {self.rounds} "
                    f"(rounds are 1-based): the peer would never go offline"
                )

    @classmethod
    def project(cls, spec: Any) -> "DecentralizedConfig":
        """The config read off ``spec`` (a ScenarioSpec) by field name: the
        one a scenario validates itself with and the runner drives."""
        return cls(**{f.name: getattr(spec, f.name) for f in fields(cls)})


class DecentralizedFL:
    """Drives the full blockchain-FL deployment."""

    def __init__(
        self,
        peer_configs: list[PeerConfig],
        train_sets: dict[str, Dataset],
        test_sets: dict[str, Dataset],
        model_builder: Callable[[np.random.Generator], Sequential],
        config: DecentralizedConfig,
        rng_factory: Optional[RngFactory] = None,
    ) -> None:
        if len(peer_configs) < 2:
            raise ConfigError("decentralized FL needs at least two peers")
        self.config = config
        chain = config.chain
        self.rngs = rng_factory if rng_factory is not None else RngFactory(0)

        # --- chain fabric -------------------------------------------------
        self.sim = Simulator()
        self.pow = ProofOfWork(
            self.rngs.get("pow"),
            retarget=RetargetRule(target_interval=TARGET_BLOCK_INTERVAL),
        )
        self.runtime = ContractRuntime()
        register_all(self.runtime)
        self.offchain = OffchainStore()

        keypairs = {pc.peer_id: peer_keypair(pc.peer_id) for pc in peer_configs}
        # Start at the retarget equilibrium so the very first blocks already
        # arrive near the target interval (a real private net warms up the
        # same way via its genesis difficulty).
        equilibrium_difficulty = max(int(HASHRATE * TARGET_BLOCK_INTERVAL), 1)
        genesis = GenesisSpec(
            allocations={kp.address: PEER_ALLOCATION for kp in keypairs.values()},
            difficulty=equilibrium_difficulty,
        )
        self.network = P2PNetwork(
            self.sim,
            self.pow,
            latency=LatencyModel(base=LATENCY_BASE, jitter=LATENCY_JITTER),
            rng=self.rngs.get("network"),
            drop_rate=chain.drop_rate,
            batch_window=GOSSIP_BATCH_WINDOW,
            drop_rng=self.rngs.get("network", "drop"),
        )
        self.peer_ids = [pc.peer_id for pc in peer_configs]
        self.keypairs = keypairs
        self.addresses: dict[str, Address] = {
            peer_id: keypairs[peer_id].address for peer_id in self.peer_ids
        }
        # Participation plan: who is offline/selected each round, resolved
        # once from the dedicated participation/* streams.  With the
        # default spec it draws nothing and selects everyone, so the loop
        # below materializes the whole cohort exactly as before.
        self.participation = ParticipationPlan(
            config.participation, self.peer_ids, config.rounds, self.rngs
        )
        # Fault harness (inactive spec -> no plan, no injector, and the
        # gateway stack below stays exactly the pre-fault one).
        self.fault_plan: Optional[FaultPlan] = None
        self.fault_injector: Optional[FaultInjector] = None
        if config.faults.active:
            self.fault_plan = FaultPlan(config.faults, self.peer_ids)
            self.fault_injector = FaultInjector(self.fault_plan, self.rngs)
        # Everything local to a peer — model, datasets, rng streams, scoring
        # engine — lives in the shard; the driver keeps the round barrier,
        # the event engine and the ledger.  Handed no datasets (the
        # multiprocess coordinator), the shard's peers are chain-only
        # handles and the coordinator swaps in a proxy over its workers.
        self.shard = PeerShard(config, self.offchain, self.rngs, model_builder)
        self.peers: dict[str, FullPeer] = self.shard.peers
        # One content-addressed cold store backs the whole cohort: blocks,
        # receipts, and snapshots are consensus data, so the first node to
        # spill pays the encode and everyone else dedups against it.
        self.cold_store: Optional[ColdStore] = ColdStore() if chain.cold_storage else None
        # Likewise one record of block executions: the first node to
        # execute a block pays for it, the rest verify the key and install
        # the result.  Per run, never shared between drivers.
        self.block_memo = BlockExecutionMemo()
        # And one record of contract reads: every peer standing on a head
        # is answered from the first one's execution of each read.
        self.read_memo = ReadMemo()
        # And one count of head moves across the cohort's nodes: a wait
        # whose inputs are chain views has nothing new to see until it moves.
        self.head_moves = HeadMoves()
        #: Node address -> peer id, to read a drained wake set as peers.
        self._peer_of: dict[Address, str] = {}
        node_config = NodeConfig(
            execution=chain.execution,
            parallel_min_txs=chain.parallel_min_txs,
            cold_store=self.cold_store,
            hot_window=chain.hot_window if self.cold_store is not None else None,
            snapshot_interval=chain.snapshot_interval,
        )
        for pc in peer_configs:
            if pc.peer_id not in self.participation.ever_active:
                continue  # registered on chain below, but never trains
            node = Node(
                keypairs[pc.peer_id],
                genesis,
                self.runtime,
                replace(node_config),
                block_memo=self.block_memo,
                head_moves=self.head_moves,
            )
            self.network.add_node(node, hashrate=HASHRATE)
            self._peer_of[node.address] = pc.peer_id
            gateway: ChainGateway = InProcessGateway(
                node,
                network=self.network,
                simulator=self.sim,
                default_deadline=MAX_ROUND_TIME,
                memo=self.read_memo,
            )
            if self.fault_injector is not None:
                gateway = FaultyGateway(
                    gateway,
                    pc.peer_id,
                    self.fault_injector,
                    simulator=self.sim,
                    network_stats=self.network.stats,
                )
            if chain.gateway == "batching":
                gateway = BatchingGateway(gateway, staleness=chain.gateway_staleness)
            if self.fault_injector is not None and config.faults.resilience:
                gateway = ResilientGateway(gateway)
            self.shard.add_peer(
                pc, gateway, train_sets.get(pc.peer_id), test_sets.get(pc.peer_id)
            )
        self.round_logs: list[PeerRoundLog] = []
        self.reputation_address: Optional[Address] = None
        self._deployed = False
        #: Id of the last round the open phase accepted; rounds only move
        #: forward, so replaying one is refused before any side effect.
        self._last_opened = 0
        #: Rounds that ran to completion (== config.rounds on a clean run).
        self.completed_rounds = 0
        #: Why ``run()`` stopped early, or "" (faults-active runs only).
        self.abort_reason = ""
        #: Crash-window bookkeeping: who is down now, and every rejoin
        #: catch-up performed ({"peer", "round", "models"} records).
        self._down_prev: frozenset = frozenset()
        self.catch_ups: list[dict] = []
        #: Participation bookkeeping: rounds skipped because fewer than two
        #: peers were available, and the id of the last round that actually
        #: finished (what rejoin catch-up fetches — never the dense count).
        self.skipped_rounds: list[int] = []
        self.last_finished_round = 0

    # ------------------------------------------------------------------
    # Deployment phase
    # ------------------------------------------------------------------

    def deploy_contracts(self) -> None:
        """Deploy registry/store/coordinator and register every peer.

        The first peer deploys (any peer could — no special role beyond
        paying the gas); all contract addresses are deterministic, so every
        peer derives them locally, like reading a Truffle artifact.
        """
        deployer = self.peers[self.peer_ids[0]]

        def deploy(contract: str, **args) -> Address:
            tx = deployer.make_transaction(to=None, args={"contract": contract, **args})
            deployer.gateway.submit(tx)
            return self.runtime.contract_address(deployer.address, tx.nonce)

        registry_address = deploy("participant_registry", open_enrollment=True)
        store_address = deploy("model_store", registry_address=registry_address)
        coordinator_address = deploy(
            "aggregation_coordinator",
            model_store_address=store_address,
            quorum=len(self.peer_ids),
            vote_threshold=(len(self.peer_ids) // 2) + 1,
        )
        self.reputation_address = deploy("reputation_ledger", initial_score=REPUTATION_INITIAL_SCORE)

        # Phase 1: mine the deployments everywhere before anyone registers,
        # otherwise registration transactions execute against an address
        # with no code yet and revert.
        self.network.start_mining()
        deployed = self._views(
            lambda peer: peer.gateway.has_contract(coordinator_address)
            and peer.gateway.has_contract(self.reputation_address)
        )
        self._wait_views(
            self._all_views(list(self.peers.values()), deployed), "contract deployment"
        )

        # Phase 2: every peer self-registers (open enrollment).  Identities
        # that participation never materializes still register — the
        # on-chain roster is the whole cohort — but their transactions,
        # signed with their own keys, are broadcast through the deployer's
        # gateway since they have none.  Full-participation runs take only
        # the first branch, exactly the pre-participation path.
        for peer_id in self.peer_ids:
            peer = self.peers.get(peer_id)
            if peer is not None:
                register_tx = peer.make_transaction(
                    to=registry_address, method="register", args={"display_name": peer_id}
                )
                peer.gateway.submit(register_tx)
            else:
                address = self.addresses[peer_id]
                register_tx = registration_transaction(
                    self.keypairs[peer_id],
                    registry_address,
                    peer_id,
                    deployer.gateway.next_nonce(address),
                )
                deployer.gateway.submit(register_tx)
        # Every peer asks the same reads, so they are built once per wait.
        reads = self._membership_reads(registry_address)
        registered = self._views(lambda peer: self._is_registered(peer, registry_address, reads))
        self._wait_views(
            self._all_views(list(self.peers.values()), registered), "participant registration"
        )
        self.shard.configure(store_address, coordinator_address, self.addresses)
        self._deployed = True

    def _membership_reads(self, registry_address: Address) -> list[CallRequest]:
        """One ``is_member`` read per identity of the cohort."""
        return [
            CallRequest(registry_address, "is_member", {"address": self.addresses[peer_id]})
            for peer_id in self.peer_ids
        ]

    @staticmethod
    def _is_registered(peer: FullPeer, registry_address: Address, reads: list[CallRequest]) -> bool:
        """Does ``peer``'s replica list the whole cohort as members?  One
        batched round trip answers all of :meth:`_membership_reads`."""
        if not peer.gateway.has_contract(registry_address):
            return False
        return all(peer.gateway.batch_call(reads))

    def _registry_address(self) -> Address:
        deployer = self.peers[self.peer_ids[0]]
        return self.runtime.contract_address(deployer.address, 0)

    def _wait_until(self, predicate: Callable[[], bool], what: str, deadline: Optional[float] = None) -> float:
        """Advance the ledger transport until ``predicate`` holds.

        Delegates to the gateway's ``wait_for`` (all in-process gateways
        share one event engine, so any peer's gateway can drive it); the
        deadline defaults to :data:`MAX_ROUND_TIME`, and timeout/drain raise
        the same error types the pre-gateway driver did.
        """
        gateway = self.peers[self.peer_ids[0]].gateway
        return gateway.wait_for(predicate, what, deadline=deadline)

    def _views(self, read: Callable[[FullPeer], Any]) -> Callable[[FullPeer], Any]:
        """``read`` of one peer's chain view, asked again only once the
        peer's :meth:`~repro.chain.gateway.ChainGateway.view_token` moved
        (every time, for a stack whose token is ``None``).  ``read`` must
        be a function of the peer's chain view alone."""
        seen: dict[str, tuple[str, Any]] = {}

        def view(peer: FullPeer) -> Any:
            token = peer.gateway.view_token()
            if token is not None:
                known = seen.get(peer.peer_id)
                if known is not None and known[0] == token:
                    return known[1]
            value = read(peer)
            if token is not None:
                seen[peer.peer_id] = (token, value)
            return value

        return view

    def _wait_views(
        self,
        predicate: Callable[[Optional[set[str]]], bool],
        what: str,
        reads_clock: bool = False,
        marks: Callable[[], Any] = lambda: None,
    ) -> float:
        """:meth:`_wait_until` for a ``predicate`` over peers' chain views.

        The predicate reads views through :meth:`_views`; besides them it
        may depend on ``marks()`` (the driver's own state, such as the
        round's submissions) and, when ``reads_clock``, on the clock.  It is
        called with its *wake set*: the ids of the peers whose node moved
        its head (:class:`~repro.chain.HeadMoves`) since its last call, or
        ``None`` for "assume every view moved" — its first call, and every
        call of an ungated wait.  It re-reads the woken peers and may leave
        the others standing: their views, and so its answer for them, are
        what they were.

        When it depends on neither the clock nor a stack without view
        tokens, an event that moved no head and no mark cannot turn it
        true, and it is skipped in O(1).  Otherwise it runs after every
        event with ``None``, as in :meth:`_wait_until`.
        """
        gated = not reads_clock and all(
            peer.gateway.view_token() is not None for peer in self.peers.values()
        )
        last: Optional[tuple] = None
        peer_of = self._peer_of

        def changed() -> bool:
            nonlocal last
            if not gated:
                return predicate(None)
            now = (self.head_moves.count, marks())
            if now == last:
                return False
            first, last = last is None, now
            moved = self.head_moves.drain()
            return predicate(None if first else {peer_of[node] for node in moved})

        return self._wait_until(changed, what)

    @staticmethod
    def _all_views(
        peers: list[FullPeer], view: Callable[[FullPeer], bool]
    ) -> Callable[[Optional[set[str]]], bool]:
        """``all(view(peer) for peer in peers)`` as a :meth:`_wait_views`
        predicate, asking the same views in the same order.

        A cursor sits on the first peer not yet found true.  The peers
        before it were true when last asked, so of those only woken ones
        are asked again, in list order (a view can turn false again, say
        on a reorg, and the cursor goes back to it); then the walk goes on
        from the cursor, exactly where the short-circuiting ``all()`` would
        be.  An unwoken peer before the cursor would answer from its
        unmoved view, which is why it need not be asked.
        """
        position = {peer.peer_id: index for index, peer in enumerate(peers)}
        cursor = 0

        def holds(woken: Optional[set[str]]) -> bool:
            nonlocal cursor
            if woken is None:
                cursor = 0
            else:
                behind = sorted(
                    position[peer_id]
                    for peer_id in woken
                    if position.get(peer_id, cursor) < cursor
                )
                for index in behind:
                    if not view(peers[index]):
                        cursor = index
                        return False
            while cursor < len(peers):
                if not view(peers[cursor]):
                    return False
                cursor += 1
            return True

        return holds

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------

    def run_round(self, round_id: int) -> list[PeerRoundLog]:
        """Execute one communication round for every live peer.

        Every phase splits the same way: the driver does the ledger half —
        nonce and view reads, off-chain puts, signed submits, through each
        peer's own gateway stack, in the same per-peer order under every
        runtime — and hands what it read to the shard's compute half.

        Fault-free runs execute exactly the pre-fault logic (``live`` is
        the whole cohort and nothing can be dropped).  With the fault
        harness active, crashed peers sit the round out, a peer whose
        gateway gives up mid-round (:class:`GatewayUnavailableError`) is
        dropped from it, and the waiting policy quorums against the
        survivors — the round completes on whoever is left.
        """
        rnd = self._open_round(round_id)
        if rnd is None:
            return []  # scheduled but skipped
        self._train_and_submit(rnd)
        self._await_quorum(rnd)
        self._fetch_views(rnd)
        if self.config.mode == "global_vote":
            logs = self._vote_global(rnd)
        else:
            logs = self.shard.score(round_id, views=rnd.view_records)
        self._record(rnd, logs)
        if self.config.enable_reputation:
            self._rate(rnd)
        self.last_finished_round = round_id
        return list(logs.values())

    def _open_round(self, round_id: int) -> Optional[Round]:
        """Open phase: enact absences, pick the working set, broadcast
        ``open_round``.  Returns ``None`` for a round that is skipped."""
        if not self._deployed:
            raise RoundError("deploy_contracts() must run before rounds")
        if round_id <= self._last_opened:
            raise RoundError(f"round {round_id} already opened")
        self._last_opened = round_id
        fault_down: frozenset = frozenset()
        if self.fault_injector is not None:
            self.fault_injector.begin_round(round_id)
            fault_down = self.fault_plan.down(round_id)
        self._transition_crashes(fault_down | self.participation.offline(round_id), round_id)
        # The round's working set: the participation plan's selected
        # subcohort (the whole cohort under full participation) minus any
        # fault-plan crash window.
        live = [pid for pid in self.participation.active(round_id) if pid not in fault_down]
        if len(live) < 2:
            # Churn/windows left no workable subcohort: the scheduled round
            # is skipped outright (no open_round, no training) rather than
            # degenerating to single-peer "federation".  (Crash windows
            # alone always leave ``MIN_LIVE_PEERS`` standing.)
            self.skipped_rounds.append(round_id)
            return None
        # The first peer is never in a crash window (windows take the
        # cohort tail and always leave the head live), so the coordinator
        # and the wait-driving gateway stay the same peer as fault-free.
        coordinator = self.peers[self.peer_ids[0]]
        open_args: dict = {"round_id": round_id}
        if self.participation.engaged and len(live) != len(self.peer_ids):
            # Partial participation: the round is quorate over — and its
            # global vote thresholded against — the selected subcohort, not
            # the full roster.  Full-participation rounds pass no override,
            # keeping their transaction bytes identical to older builds.
            open_args["quorum"] = len(live)
            open_args["vote_threshold"] = (len(live) // 2) + 1
        open_tx = coordinator.make_transaction(
            to=coordinator.coordinator_address, method="open_round", args=open_args
        )
        coordinator.gateway.submit(open_tx)
        return Round(
            round_id, live, opened_at=self.sim.now, degradable=self.fault_injector is not None
        )

    def _train_and_submit(self, rnd: Round) -> None:
        """Read each live peer's nonce, train them all now, and schedule
        each submission for when the peer's simulated training time has
        elapsed.

        The simulated clock is frozen throughout ``shard.train`` and
        off-chain puts are content-addressed — so the per-peer work is
        order-independent and the multiprocess coordinator fans it out to
        workers; submissions stay serialized on the event engine either way.
        """
        nonces = {
            peer_id: self.peers[peer_id].gateway.next_nonce(self.addresses[peer_id])
            for peer_id in rnd.live
        }
        trained = self.shard.train(rnd.round_id, nonces=nonces)
        for peer_id in rnd.live:
            tx, duration = trained[peer_id]

            def submit(peer_id=peer_id, tx=tx) -> None:
                with rnd.may_drop(peer_id):
                    self.peers[peer_id].gateway.submit(tx)
                    rnd.submitted_at[peer_id] = self.sim.now

            self.sim.schedule_in(duration, submit, label=f"train-{peer_id}-r{rnd.round_id}")

    def _await_quorum(self, rnd: Round) -> None:
        """Each submitted peer reads its own chain view until the waiting
        policy fires; ``ready_at`` is recorded once, because a ready peer
        leaves ``pending``.

        A non-clock policy's answer for a peer moves only with the peer's
        view, its own submission, and ``rnd.expected()``, so a gated wait
        asks it only for the peers its wake set names and the peers that
        submitted since the last call — and everyone pending once a drop
        moved ``expected()``.  Peers are asked in sorted order, as the walk
        over all of them always has been.  (No peer drops in the middle of
        a gated walk: the in-process gateway, the only stack with a view
        token, never gives up on a peer.)
        """
        policy = self.config.policy
        pending = set(rnd.live)
        visible = self._views(lambda peer: len(peer.visible_submissions(rnd.round_id)))
        submitted = dropped = 0  # submissions and drops seen by the last call

        def ask(peer_id: str) -> None:
            if peer_id in rnd.submitted_at:
                with rnd.may_drop(peer_id):
                    seen = visible(self.peers[peer_id])
                    if policy.ready(seen, rnd.expected(), self.sim.now - rnd.opened_at):
                        rnd.ready_at[peer_id] = self.sim.now
                        pending.discard(peer_id)
            if peer_id in rnd.dropped:
                pending.discard(peer_id)

        def poll(woken: Optional[set[str]]) -> bool:
            nonlocal submitted, dropped
            everyone = woken is None or len(rnd.dropped) != dropped
            if not everyone and len(rnd.submitted_at) != submitted:
                woken = woken.union(islice(rnd.submitted_at, submitted, None))
            submitted, dropped = len(rnd.submitted_at), len(rnd.dropped)
            for peer_id in sorted(pending if everyone else pending.intersection(woken)):
                ask(peer_id)
            return not pending

        self._wait_views(
            poll,
            f"round {rnd.round_id} quorum",
            reads_clock=policy.reads_clock,
            marks=lambda: (len(rnd.submitted_at), len(rnd.dropped)),
        )

    def _fetch_views(self, rnd: Round) -> None:
        """Read each remaining peer's view of the round into
        ``rnd.view_records``, in cohort order — fault-free its keys ARE
        ``self.peer_ids``, so every downstream iteration is byte-identical
        to the seed's.  A view holds the submissions whose weights the
        off-chain store has, so every blob a compute step fetches exists."""
        for peer_id in rnd.live:
            if peer_id in rnd.dropped:
                continue
            with rnd.may_drop(peer_id):
                records = self._available(self.peers[peer_id].visible_submissions(rnd.round_id))
                if not records:
                    raise RoundError(f"{peer_id}: no updates visible in round {rnd.round_id}")
                rnd.view_records[peer_id] = records
        if not rnd.view_records:
            raise RoundError(f"round {rnd.round_id}: every peer crashed or was dropped")

    def _available(self, records: list[dict]) -> list[dict]:
        """The submission records whose weights are in the off-chain store."""
        return [record for record in records if record["weights_hash"] in self.offchain]

    def _finalized_hash(self, peer: FullPeer, round_id: int) -> Optional[str]:
        return peer.gateway.call(peer.coordinator_address, "finalized_hash", round_id=round_id)

    def _vote_global(self, rnd: Round) -> dict[str, PeerRoundLog]:
        """Operating mode 2: vote a common global model on chain.

        Every peer aggregates everything it can see, uploads the aggregate
        off-chain, and votes its hash through the coordinator.  Once a hash
        reaches the finalization threshold, all peers adopt it — a global
        model without a fixed single aggregator (the paper's single-point-
        of-failure fix in its FL-flavoured mode).  Votes go out one voter
        at a time, in cohort order, so mempool arrival order is the same
        under every runtime.
        """
        round_id = rnd.round_id
        aggregates = self.shard.vote(round_id, views=rnd.view_records)
        for peer_id in rnd.view_records:
            peer = self.peers[peer_id]
            aggregate_hash = self.offchain.put_archive(aggregates[peer_id])
            vote_tx = peer.make_transaction(
                to=peer.coordinator_address,
                method="vote_global",
                args={"round_id": round_id, "aggregate_hash": aggregate_hash},
            )
            peer.gateway.submit(vote_tx)
        peers = [self.peers[peer_id] for peer_id in rnd.view_records]
        finalized = self._views(lambda peer: self._finalized_hash(peer, round_id) is not None)
        self._wait_views(self._all_views(peers, finalized), f"round {round_id} finalization")
        finals = {peer.peer_id: self._finalized_hash(peer, round_id) for peer in peers}
        return self.shard.adopt_final(round_id, views=rnd.view_records, finals=finals)

    def _rate(self, rnd: Round) -> None:
        """Reputation extension: every survivor rates the updates it saw.

        The shard scores; the ratings go out one rater at a time, cohort
        order, so rating transactions reach the mempool in the same order
        under every runtime.
        """
        ratings = self.shard.rate(rnd.round_id, views=rnd.view_records)
        for rater_id in rnd.view_records:
            rater = self.peers[rater_id]
            for subject, delta, reason in ratings[rater_id]:
                rate_tx = rater.make_transaction(
                    to=self.reputation_address,
                    method="rate",
                    args={
                        "round_id": rnd.round_id,
                        "subject": subject,
                        "delta": delta,
                        "reason": reason,
                    },
                )
                rater.gateway.submit(rate_tx)

    def _record(self, rnd: Round, logs: dict[str, PeerRoundLog]) -> None:
        """Copy the round's clock marks onto its logs and keep them."""
        for log in logs.values():
            log.submitted_at = rnd.submitted_at[log.peer_id]
            log.ready_at = rnd.ready_at[log.peer_id]
            log.aggregated_at = self.sim.now
            self.round_logs.append(log)

    def _transition_crashes(self, now_down: frozenset, round_id: int) -> None:
        """Enact crash windows and participation absences at a round boundary.

        A peer *entering* an absence (fault-plan crash window, availability
        window, or churn) is partitioned from every other node and stops
        mining — its chain view freezes, exactly a powered-off VM.  A peer
        *leaving* one is healed and restarted; its node catches up over the
        existing sync-on-orphan path (the next block the others broadcast
        triggers a chain pull), and the FL layer catches up by adopting the
        federated average of the last finished round's on-chain updates —
        the same weights a vanilla client joining late would pull.

        Merely *unsampled* peers are not absences: their nodes keep mining
        and they simply do no FL work this round.  With nobody entering or
        leaving — every boundary of a run with neither axis on — nothing
        is drawn and no gateway is called.
        """
        # Identities participation never materialized have no node to
        # partition or heal; their planned absences are vacuous.
        now_down = frozenset(pid for pid in now_down if pid in self.peers)
        if now_down == self._down_prev:
            return
        entering = now_down - self._down_prev
        leaving = self._down_prev - now_down
        self._down_prev = now_down
        addresses = {
            peer_id: self.addresses[peer_id]
            for peer_id in self.peer_ids
            if peer_id in self.peers
        }
        for peer_id in sorted(entering):
            addr = addresses[peer_id]
            for other_id, other_addr in addresses.items():
                if other_id != peer_id:
                    self.network.partition(addr, other_addr)
            self.network.stop_mining([addr])
        for peer_id in sorted(leaving):
            addr = addresses[peer_id]
            for other_id, other_addr in addresses.items():
                if other_id != peer_id:
                    self.network.heal(addr, other_addr)
            self.network.start_mining([addr])
            rejoined = self.peers[peer_id]
            reference = self.peers[self.peer_ids[0]]
            self._wait_until(
                lambda: rejoined.gateway.head_hash() == reference.gateway.head_hash(),
                f"{peer_id} chain catch-up after rejoin",
            )
            # Fetch the last round that actually *finished* — under
            # participation skips that can be further back than round_id-1,
            # and for fault-only runs it is exactly round_id-1 as before.
            records = self._available(rejoined.visible_submissions(self.last_finished_round))
            models = self.shard.catch_up(self.last_finished_round, records={peer_id: records})
            self.catch_ups.append(
                {"peer": peer_id, "round": round_id, "models": models[peer_id]}
            )

    def _finalize_faults(self) -> None:
        """Rejoin any peers still crashed or absent when the run ends.

        A crash or availability window reaching the final round would
        otherwise leave its peers partitioned and "down" forever —
        post-run reporting (height reads, reputation queries) must see a
        whole cohort again.  The rejoin uses the same heal/catch-up path
        as a mid-run window end, anchored on the last finished round, and
        the injector leaves its round context so no further calls count
        as crashed.
        """
        if self.fault_injector is not None:
            # Leave round context first: the rejoin wait below reads the
            # rejoining peer's own gateway, which must no longer refuse.
            self.fault_injector.end_run()
        self._transition_crashes(frozenset(), self.last_finished_round + 1)

    def reputation_of(self, peer_id: str, viewer_id: Optional[str] = None) -> int:
        """Current on-chain reputation score of ``peer_id``."""
        viewer = self.peers[viewer_id if viewer_id is not None else self.peer_ids[0]]
        return int(
            viewer.gateway.call(
                self.reputation_address, "score_of", address=self.addresses[peer_id]
            )
        )

    def reputation_scores(self, viewer_id: Optional[str] = None) -> dict[str, int]:
        """Every peer's reputation score in one batched gateway round trip."""
        viewer = self.peers[viewer_id if viewer_id is not None else self.peer_ids[0]]
        scores = viewer.gateway.batch_call(
            [
                CallRequest(self.reputation_address, "score_of", {"address": self.addresses[peer_id]})
                for peer_id in self.peer_ids
            ]
        )
        return {peer_id: int(score) for peer_id, score in zip(self.peer_ids, scores)}

    def run(self) -> list[PeerRoundLog]:
        """Deploy (if needed) and run every configured round.

        With the fault harness active, a round that still fails after
        degradation (quorum unreachable, every peer dropped, coordinator
        circuit-broken) *aborts the run* instead of raising: the logs so
        far are returned, ``completed_rounds`` counts the rounds that
        finished, and ``abort_reason`` says why.  Fault-free runs keep
        the original raise-on-failure contract.  A failure of the runtime
        itself — a dead worker, a malformed wire frame — is not a round
        failure and always raises.
        """
        self.completed_rounds = 0
        self.abort_reason = ""
        self.skipped_rounds = []
        self.last_finished_round = 0
        step = "deploy"
        try:
            if not self._deployed:
                self.deploy_contracts()
            for round_id in range(1, self.config.rounds + 1):
                step = f"round {round_id}"
                self.run_round(round_id)
                if self.skipped_rounds and self.skipped_rounds[-1] == round_id:
                    continue  # scheduled but skipped: not a completed round
                self.completed_rounds += 1
        except (WorkerCrashedError, WireProtocolError):
            raise
        except (RoundError, GatewayError) as exc:
            if self.fault_injector is None:
                raise
            self.abort_reason = f"{step}: {exc}"
        self._finalize_faults()
        # Let the final round's rating transactions get mined before the
        # chain quiesces (a run that aborted in deployment has none).
        if self.config.enable_reputation and self._deployed:
            self.network.run_for(5 * TARGET_BLOCK_INTERVAL)
        self.network.stop_mining()
        return self.round_logs

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def combination_series(self, peer_id: str, combination: str) -> list[float]:
        """Per-round accuracy of one combination row (a Table II-IV row)."""
        return [
            log.combination_accuracy[combination]
            for log in self.round_logs
            if log.peer_id == peer_id and combination in log.combination_accuracy
        ]

    def export_model_bytes(self, peer_id: str) -> bytes:
        """One peer's current model weights as canonical codec-v2 bytes.

        This is the byte surface the runtime-equivalence tests compare: a
        multiprocess run must produce exactly these bytes for every peer.
        """
        return self.shard.export(self.last_finished_round, peers={peer_id: None})[peer_id]

    def model_digests(self) -> dict[str, str]:
        """SHA-256 of every materialized peer's model bytes, in cohort order.

        Under client sampling, never-selected identities have no model to
        digest (they were never instantiated); full participation covers
        the whole cohort as before.
        """
        return {
            peer_id: sha256_bytes(self.export_model_bytes(peer_id)).hex()
            for peer_id in self.peer_ids
            if peer_id in self.peers
        }

    def wait_time_summary(self) -> dict[str, float]:
        """Mean wait time per peer (the speed metric)."""
        totals: dict[str, list[float]] = {}
        for log in self.round_logs:
            totals.setdefault(log.peer_id, []).append(log.wait_time)
        return {peer_id: float(np.mean(times)) for peer_id, times in sorted(totals.items())}

    def gateway_stats(self) -> dict:
        """Cohort-aggregated ledger-gateway instrumentation.

        ``requested`` sums what the FL layer asked of the peers' gateways;
        ``transport`` sums what actually reached the ledger transport —
        identical for the in-process backend, and fewer round trips for
        the batching backend (``tests/test_chain_gateway.py`` pins both).
        """
        requested = GatewayStats()
        transport = GatewayStats()
        everything = GatewayStats()
        for peer_id in self.peer_ids:
            if peer_id not in self.peers:
                continue  # never materialized under sampling: no gateway
            gateway = self.peers[peer_id].gateway
            requested.add(gateway.stats)
            # For an undecorated backend this is the same object, so the
            # two aggregates coincide — no backend-specific branching.
            transport.add(transport_stats(gateway))
            everything.add(stacked_stats(gateway))
        payload = {
            "backend": self.config.chain.gateway,
            "requested": requested.as_dict(),
            "transport": transport.as_dict(),
        }
        # The resilience counters live mid-stack (injection on the fault
        # layer, retries on the top layer), so they are summed across
        # every layer of every peer's stack rather than read off either
        # end.  All zero when the fault harness is inactive.
        payload["resilience"] = {
            name: getattr(everything, name)
            for name in (
                "retries",
                "faults_injected",
                "deadline_misses",
                "gave_up",
                "deduped_submits",
                "backoff_seconds",
            )
        }
        return payload

    def chain_stats(self) -> dict:
        """Network counters, per-peer heights, and gateway instrumentation.

        Every number here comes from the service surfaces — the network's
        own counters, the gateways' height reads and request telemetry,
        and the off-chain store — never from reaching into peer nodes.
        """
        heights = {
            peer_id: peer.gateway.height() for peer_id, peer in sorted(self.peers.items())
        }
        stats = self.network.stats.as_dict()
        stats["heights"] = heights
        stats["offchain_blobs"] = len(self.offchain)
        stats["offchain_bytes"] = self.offchain.total_bytes()
        stats["offchain_marshalling"] = self.offchain.marshalling_stats()
        stats["gateway"] = self.gateway_stats()
        # Scale-out telemetry: per-node storage/execution counters summed
        # across the cohort, plus the shared cold store's own stats.
        storage: dict = {}
        execution: dict = {}
        for node in self.network.nodes():
            node_scale = node.scale_stats()
            for key, value in node_scale["storage"].items():
                storage[key] = storage.get(key, 0) + value
            for key, value in node_scale["execution"].items():
                execution[key] = execution.get(key, 0) + value
        if self.cold_store is not None:
            storage["cold"] = self.cold_store.stats.as_dict()
            storage["cold_entries"] = len(self.cold_store)
            storage["cold_bytes"] = self.cold_store.bytes_stored()
        stats["storage"] = storage
        stats["execution"] = execution
        if self.participation.engaged:
            stats["participation"] = {
                "registered": len(self.peer_ids),
                "instantiated": len(self.peers),
                "skipped_rounds": list(self.skipped_rounds),
                "last_finished_round": self.last_finished_round,
                "catch_ups": len(self.catch_ups),
            }
        if self.fault_injector is not None:
            stats["faults"] = {
                "injected": len(self.fault_injector.trace),
                "crashed_peers": list(self.fault_plan.crashed_peers),
                "catch_ups": len(self.catch_ups),
                "completed_rounds": self.completed_rounds,
                "abort_reason": self.abort_reason,
            }
        return stats
