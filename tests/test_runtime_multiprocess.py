"""The multiprocess runtime is byte-identical to the in-process driver.

The acceptance surface of the out-of-process runtime: at the same seed, a
run with ``runtime="multiprocess"`` must reproduce the in-process run's
final model weights (SHA-256 of the canonical codec-v2 export), per-round
accuracy tables and chosen combinations, reputation scores, and chain
shape (heights, off-chain blob counts/bytes) — for every operating mode,
and with injected faults, which fire in the coordinator's driver on the
same gateway stacks under both runtimes.  Worker count must be invisible
(workers=1 vs workers=3 identical), no worker-side object may hold a
ledger gateway, a worker crash must end the run as a typed
:class:`~repro.errors.WorkerCrashedError` (faults on or off), and the
spec gates must reject the configurations the runtime does not support.

Each scenario runs once per (spec, runtime, workers) triple and is
memoized module-wide — the suite spawns real worker OS processes, so
repeated runs would dominate tier-1 wall clock.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_chain_gateway import flatten, runtime_only

from repro.chain.gateway import ChainGateway
from repro.core.participation import ParticipationSpec
from repro.errors import ConfigError, GatewayUnavailableError, WorkerCrashedError
from repro.scenarios import cohort_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import ScenarioContext, decentralized_inputs, run_scenario
from repro.scenarios.spec import RUNTIME_KINDS, ScenarioSpec, replace_axis
from repro.utils.rng import RngFactory

_CACHE: dict = {}


def base_spec(**overrides) -> ScenarioSpec:
    spec = ScenarioSpec(name="mp-equiv", kind="decentralized", seed=23).quick()
    return dataclasses.replace(spec, **overrides) if overrides else spec


def run_cached(spec: ScenarioSpec):
    key = (spec.fingerprint() if hasattr(spec, "fingerprint") else repr(spec))
    if key not in _CACHE:
        _CACHE[key] = run_scenario(spec)
    return _CACHE[key]


def comparable(result) -> dict:
    """Everything a runtime may not change, in one comparable payload."""
    return {
        "digests": result.model_digests,
        "logs": [
            (
                log.peer_id,
                log.round_id,
                tuple(log.combination_accuracy.items()),
                log.chosen_combination,
                log.chosen_accuracy,
                log.models_used,
                log.updates_visible,
                log.submitted_at,
                log.ready_at,
                log.aggregated_at,
            )
            for log in result.round_logs
        ],
        "heights": result.chain_stats["heights"],
        "offchain_blobs": result.chain_stats["offchain_blobs"],
        "offchain_bytes": result.chain_stats["offchain_bytes"],
        "reputation": getattr(result, "reputation", None),
    }


def pair(spec: ScenarioSpec, workers: int = 2):
    inproc = run_cached(spec)
    multi = run_cached(
        dataclasses.replace(spec, runtime="multiprocess", runtime_workers=workers)
    )
    return inproc, multi


class TestByteIdenticalEquivalence:
    def test_personalized_mode(self):
        inproc, multi = pair(base_spec())
        assert comparable(inproc) == comparable(multi)
        assert inproc.model_digests  # non-vacuous: every peer has a digest

    def test_reputation_mode(self):
        inproc, multi = pair(base_spec(enable_reputation=True))
        assert comparable(inproc) == comparable(multi)
        assert inproc.reputation is not None

    def test_global_vote_mode(self):
        inproc, multi = pair(base_spec(mode="global_vote"))
        assert comparable(inproc) == comparable(multi)
        # Global vote converges on one common model.
        assert len(set(multi.model_digests.values())) == 1

    def test_paper_scenario_with_adversary(self):
        # The registry's paper-faithful decentralized spec, including a
        # label-flipping adversary — the worker must re-derive the
        # attack rng stream exactly as the in-process driver does.
        from repro.scenarios.registry import get_scenario

        (spec,) = get_scenario("adversarial/label_flip").build(seed=23, quick=True)
        inproc, multi = pair(spec)
        assert comparable(inproc) == comparable(multi)
        assert inproc.adversaries  # non-vacuous: the adversary is present

    def test_five_peer_cohort(self):
        spec = base_spec()
        spec = dataclasses.replace(
            spec, cohort=dataclasses.replace(spec.cohort, size=5, client_ids=None)
        )
        inproc, multi = pair(spec, workers=2)
        assert comparable(inproc) == comparable(multi)
        assert len(multi.model_digests) == 5


class TestWorkerInterleavingInvariance:
    def test_one_vs_three_workers_identical(self):
        # Different worker counts mean different task interleavings and
        # different per-process rng object lifetimes; the named-stream
        # scheme must make that invisible.
        base = base_spec()
        one = run_cached(
            dataclasses.replace(base, runtime="multiprocess", runtime_workers=1)
        )
        three = run_cached(
            dataclasses.replace(base, runtime="multiprocess", runtime_workers=3)
        )
        assert comparable(one) == comparable(three)


class TestParticipationEquivalence:
    """Client sampling composes with the runtime: the participation plan
    is rebuilt from the spec inside every process, so the selected
    subcohorts — and therefore the bytes — cannot depend on the topology."""

    def sampled_spec(self, **overrides) -> ScenarioSpec:
        spec = base_spec(**overrides)
        spec = dataclasses.replace(
            spec, cohort=dataclasses.replace(spec.cohort, size=6, client_ids=None)
        )
        return replace_axis(spec, "participation.sampled_k", 3)

    def test_sampled_run_matches_inprocess(self):
        spec = self.sampled_spec()
        inproc, multi = pair(spec)
        assert comparable(inproc) == comparable(multi)
        stats = multi.chain_stats["participation"]
        assert stats["instantiated"] < 6  # lazy instantiation crossed the wire

    def test_sampled_one_vs_three_workers_identical(self):
        spec = self.sampled_spec()
        one = run_cached(
            dataclasses.replace(spec, runtime="multiprocess", runtime_workers=1)
        )
        three = run_cached(
            dataclasses.replace(spec, runtime="multiprocess", runtime_workers=3)
        )
        assert comparable(one) == comparable(three)

    def test_window_rejoin_catch_up_matches_inprocess(self):
        # The rejoin FedAvg catch-up runs as a worker task ("catch_up");
        # its adoption must land on the owning worker's peer exactly as
        # the in-process driver applies it locally.
        spec = base_spec()
        spec = dataclasses.replace(
            spec,
            cohort=dataclasses.replace(spec.cohort, size=4, client_ids=None),
            participation=ParticipationSpec(windows=((2, 2, 1),)),
        )
        inproc, multi = pair(spec)
        assert comparable(inproc) == comparable(multi)
        assert multi.chain_stats["participation"]["catch_ups"] == 1

    def test_global_vote_sampled_reputation_matches_inprocess(self):
        # The three axes share every shard step (vote, adopt_final, rate
        # over a sampled subcohort's views); 3 workers over 6 identities
        # puts each voter/rater sequence across every worker.
        spec = self.sampled_spec(mode="global_vote", enable_reputation=True)
        inproc, multi = pair(spec, workers=3)
        assert comparable(inproc) == comparable(multi)
        assert inproc.reputation


def ledger_side(stats: dict) -> dict:
    return {key: value for key, value in flatten(stats).items() if not runtime_only(key)}


def faults_spec(name: str) -> ScenarioSpec:
    (spec,) = get_scenario(name).build(seed=42, quick=True)
    return spec


class TestFaultsEquivalence:
    """Faults x multiprocess: the faults fire in the driver, so the fault
    draws, retries, drops and catch-ups — and everything they decide —
    are the in-process run's."""

    @staticmethod
    def faulted(result) -> dict:
        return {
            **comparable(result),
            "completed_rounds": result.completed_rounds,
            "abort_reason": result.abort_reason,
            "catch_ups": result.chain_stats["faults"]["catch_ups"],
            "faults": result.chain_stats["faults"],
            "resilience": result.chain_stats["gateway"]["resilience"],
        }

    @pytest.mark.parametrize(
        "name,workers",
        [("faults/transient", 2), ("faults/crash", 2), ("faults/lossy", 2), ("faults/lossy", 1)],
    )
    def test_matches_inprocess(self, name, workers):
        inproc, multi = pair(faults_spec(name), workers=workers)
        assert self.faulted(inproc) == self.faulted(multi)
        assert ledger_side(inproc.chain_stats) == ledger_side(multi.chain_stats)
        faults = inproc.chain_stats["faults"]
        assert faults["injected"] or faults["catch_ups"]  # non-vacuous


class TestChainScaleComposition:
    """Sampling x cold storage x speculate/merge execution x runtime: the
    chain's work is the coordinator's, so no worker count can move it —
    nor any ledger counter (see ``runtime_only``)."""

    def spec(self) -> ScenarioSpec:
        spec = cohort_scenario(8, sampled_k=3).quick()
        chain = dataclasses.replace(
            spec.chain, cold_storage=True, execution="parallel", parallel_min_txs=2
        )
        return dataclasses.replace(spec, chain=chain)

    @staticmethod
    def chain_side(result) -> dict:
        return ledger_side(result.chain_stats)

    def multiprocess(self, workers: int):
        return run_cached(
            dataclasses.replace(self.spec(), runtime="multiprocess", runtime_workers=workers)
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_inprocess(self, workers):
        inproc, multi = run_cached(self.spec()), self.multiprocess(workers)
        assert comparable(inproc) == comparable(multi)
        assert self.chain_side(inproc) == self.chain_side(multi)

    def test_one_and_two_workers_request_the_same_reads(self):
        one, two = self.multiprocess(1), self.multiprocess(2)
        assert one.chain_stats["gateway"]["requested"] == two.chain_stats["gateway"]["requested"]

    def test_every_axis_of_the_cell_did_work(self):
        stats = run_cached(self.spec()).chain_stats
        assert stats["execution"]["parallel_blocks"] > 0 and stats["execution"]["clean_txs"] > 0
        assert stats["storage"]["spilled_blocks"] > 0
        assert stats["participation"]["instantiated"] < 8


class TestRuntimeStatsSurface:
    def test_multiprocess_surfaces_wire_telemetry(self):
        inproc, multi = pair(base_spec())
        gateway = multi.chain_stats["gateway"]
        assert gateway["runtime"] == "multiprocess"
        wire = gateway["wire"]
        assert wire["workers"] == 2
        assert wire["bytes_sent"] > 0 and wire["bytes_received"] > 0
        assert wire["rpc_round_trips"] > 0  # blob pulls
        assert wire["rpc_round_trips"] == sum(
            worker["wire"]["rpc_round_trips"] for worker in gateway["worker_stats"]
        )
        assert len(gateway["worker_stats"]) == 2
        # Blob pulls are wire traffic, not ledger transport.
        assert gateway["transport"] == inproc.chain_stats["gateway"]["transport"]

    def test_inprocess_wire_counters_stay_zero(self):
        inproc, _ = pair(base_spec())
        gateway = inproc.chain_stats["gateway"]
        assert "runtime" not in gateway
        for side in ("requested", "transport"):
            assert gateway[side]["wire_bytes_sent"] == 0
            assert gateway[side]["wire_bytes_received"] == 0
            assert gateway[side]["rpc_round_trips"] == 0


def two_worker_driver(spec=None):
    """A hand-built coordinator over ``spec`` (default ``base_spec()``),
    workers not yet launched."""
    from repro.runtime.coordinator import MultiprocessDecentralizedFL

    spec = spec if spec is not None else base_spec()
    spec = dataclasses.replace(spec, runtime="multiprocess", runtime_workers=2)
    rngs = RngFactory(spec.seed)
    inputs = decentralized_inputs(spec, rngs, ScenarioContext(), materialize=frozenset())
    return MultiprocessDecentralizedFL(
        spec, inputs.peer_configs, config=inputs.config, rng_factory=rngs.spawn("chain")
    )


class TestWorkerCrash:
    def test_crash_surfaces_typed_error_and_cleans_up(self):
        # Faults on: a dead worker is a runtime failure, not a round
        # failure, so it is never turned into an abort reason.
        driver = two_worker_driver(faults_spec("faults/transient"))
        assert driver.fault_injector is not None
        driver.crash_worker(0)
        with pytest.raises(WorkerCrashedError) as excinfo:
            driver.run()
        assert isinstance(excinfo.value, GatewayUnavailableError)
        assert "worker 0" in str(excinfo.value)
        assert driver.abort_reason == ""
        assert driver.broker.handles
        for handle in driver.broker.handles:
            assert handle.process.poll() is not None  # no zombies

    def test_failure_during_launch_terminates_every_worker(self, monkeypatch):
        # A worker that dies right after launch fails `init`; the workers
        # that did come up must not outlive the error.
        from repro.runtime.broker import Broker

        driver = two_worker_driver()
        launch = Broker.launch

        def launch_then_lose_worker_zero(broker):
            handles = launch(broker)
            handles[0].process.kill()
            handles[0].process.wait(timeout=30)
            return handles

        monkeypatch.setattr(Broker, "launch", launch_then_lose_worker_zero)
        try:
            with pytest.raises(WorkerCrashedError):
                driver.run()
            assert len(driver.broker.handles) == 2
            for handle in driver.broker.handles:
                assert handle.process.poll() is not None
        finally:
            driver.broker.terminate()

    def test_clean_run_reaps_every_worker(self):
        driver = two_worker_driver()
        logs = driver.run()
        assert logs
        assert driver.handles == []  # shutdown handshake completed
        for handle in driver.broker.handles:
            assert handle.process.poll() == 0  # exited cleanly, reaped
        # Exports were collected before shutdown.
        assert sorted(driver.model_digests()) == sorted(driver.spec.client_ids())


def shared_driver(context: ScenarioContext, spec=None):
    """:func:`two_worker_driver`, borrowing its fleet from ``context``."""
    from repro.runtime.coordinator import MultiprocessDecentralizedFL

    spec = spec if spec is not None else base_spec()
    spec = dataclasses.replace(spec, runtime="multiprocess", runtime_workers=2)
    rngs = RngFactory(spec.seed)
    inputs = decentralized_inputs(spec, rngs, context, materialize=frozenset())
    return MultiprocessDecentralizedFL(
        spec,
        inputs.peer_configs,
        config=inputs.config,
        rng_factory=rngs.spawn("chain"),
        fleets=context.fleet,
    )


def wall_clock_free(stats: dict) -> dict:
    """``chain_stats`` minus the fields named ``*seconds*`` (wall clock)."""
    return {key: value for key, value in flatten(stats).items() if "seconds" not in key}


def equivalence(result) -> list:
    """What ``benchmarks/perf`` compares across runtimes."""
    return [result.model_digests, result.client_accuracy, result.wait_times]


class TestSharedFleet:
    """A :class:`ScenarioContext` launches one fleet per worker count and
    keeps it between runs; each run sends it an ``init`` and reports what
    the same run on a fresh fleet does."""

    def test_runs_on_one_context_share_the_fleet_and_count_per_run(self):
        spec = dataclasses.replace(base_spec(), runtime="multiprocess", runtime_workers=2)
        with ScenarioContext() as context:
            first = run_scenario(spec, context)
            pids = [handle.process.pid for handle in context.fleet(2).handles]
            second = run_scenario(spec, context)
            assert [handle.process.pid for handle in context.fleet(2).handles] == pids
        fresh = run_cached(spec)
        assert wall_clock_free(first.chain_stats) == wall_clock_free(second.chain_stats)
        assert wall_clock_free(second.chain_stats) == wall_clock_free(fresh.chain_stats)
        assert second.chain_stats["gateway"]["wire"]["rpc_round_trips"] > 0  # mirror reset
        assert comparable(second) == comparable(fresh)

    def test_close_reaps_every_worker(self):
        spec = dataclasses.replace(base_spec(), runtime="multiprocess", runtime_workers=2)
        context = ScenarioContext()
        run_scenario(spec, context)
        fleet = context.fleet(2)
        assert fleet.running and all(h.process.poll() is None for h in fleet.handles)
        context.close()
        assert not fleet.running
        assert [handle.process.poll() for handle in fleet.handles] == [0, 0]
        assert context.fleet(2) is not fleet  # the next run launches anew

    def test_leaving_the_with_block_reaps_every_worker(self):
        spec = dataclasses.replace(base_spec(), runtime="multiprocess", runtime_workers=1)
        with ScenarioContext() as context:
            run_scenario(spec, context)
            fleet = context.fleet(1)
        assert [handle.process.poll() for handle in fleet.handles] == [0]

    def test_crash_removes_the_fleet_and_the_next_run_relaunches(self):
        with ScenarioContext() as context:
            driver = shared_driver(context)
            fleet = driver.broker
            assert fleet is context.fleet(2)
            driver.crash_worker(0)
            with pytest.raises(WorkerCrashedError):
                driver.run()
            assert all(handle.process.poll() is not None for handle in fleet.handles)
            assert context.fleet(2) is not fleet
            spec = dataclasses.replace(base_spec(), runtime="multiprocess", runtime_workers=2)
            again = run_scenario(spec, context)
            assert context.fleet(2).running
        inproc, _ = pair(base_spec())
        assert comparable(again) == comparable(inproc)

    def test_unclosed_context_reaps_its_workers_at_exit(self, tmp_path):
        """The context's finalizer joins the fleet when the interpreter
        exits: the script's own exit hook, registered before any finalizer
        and so run after them, finds every worker reaped."""
        script = tmp_path / "unclosed.py"
        script.write_text(
            "import atexit, dataclasses\n"
            "from repro.scenarios.runner import ScenarioContext, run_scenario\n"
            "from repro.scenarios.spec import ScenarioSpec\n"
            "handles = []\n"
            "atexit.register(lambda: print('exit', [h.process.poll() for h in handles]))\n"
            "spec = ScenarioSpec(name='mp-equiv', kind='decentralized', seed=23).quick()\n"
            "spec = dataclasses.replace(spec, runtime='multiprocess', runtime_workers=2)\n"
            "context = ScenarioContext()\n"
            "run_scenario(spec, context)\n"
            "handles.extend(context.fleet(2).handles)\n"
            "print('pids', *[h.process.pid for h in handles])\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
        lines = dict(line.split(" ", 1) for line in done.stdout.splitlines())
        assert lines["exit"] == "[0, 0]"
        if Path("/proc/self").exists():
            for pid in lines["pids"].split():
                assert not Path(f"/proc/{pid}").exists()  # reaped, not a zombie

    def test_worker_memo_never_serves_a_stale_split(self):
        """One context and one 2-worker fleet through cells whose datasets
        differ, then back: every cell is the in-process run's."""
        tradeoff = list(get_scenario("paper/tradeoff").build(seed=42, quick=True))
        reseeded = dataclasses.replace(
            tradeoff[0],
            data_spec=dataclasses.replace(
                tradeoff[0].data_spec, seed=tradeoff[0].data_spec.seed + 1
            ),
        )
        sampled = TestParticipationEquivalence().sampled_spec()
        cells = [*tradeoff, reseeded, sampled, tradeoff[0]]
        with ScenarioContext() as context:
            multi = [
                run_scenario(
                    dataclasses.replace(spec, runtime="multiprocess", runtime_workers=2),
                    context,
                )
                for spec in cells
            ]
        for spec, result in zip(cells, multi):
            assert equivalence(result) == equivalence(run_cached(spec)), spec.name
        assert equivalence(multi[0]) != equivalence(multi[len(tradeoff)])  # reseeding bites


class TestShardSurface:
    """A peer's local round work has one home, ``PeerShard``, and one wire
    form, the ``STEPS`` table: a step added to one and not the other fails
    here, not at the first wire run."""

    def test_worker_ops_and_proxy_are_the_shard_methods(self):
        from repro.core.shard import PeerShard
        from repro.runtime.coordinator import RemoteShard
        from repro.runtime.steps import STEPS

        def public(cls) -> set:
            return {
                name
                for name, member in vars(cls).items()
                if callable(member) and not name.startswith("_")
            }

        # `add_peer` builds the shard (the worker's `init` calls it),
        # `configure` is the lifecycle broadcast, and `view` has no op: it
        # is the decode step the round steps share.
        assert public(PeerShard) - {"add_peer", "configure", "view"} == set(STEPS)
        # The proxy spells out no step: each is the one generic dispatch.
        assert public(RemoteShard) == {"configure"}
        for op, step in STEPS.items():
            parameters = list(inspect.signature(getattr(PeerShard, op)).parameters)
            assert parameters[2:] == list(step.inputs), op  # after self, round_id

    def test_no_worker_side_object_holds_a_gateway(self):
        """Workers compute; the coordinator owns the ledger.  A worker's
        runtime, store, shard and peers neither are nor hold a gateway."""
        from repro.runtime.speccodec import encode_spec
        from repro.runtime.worker import WorkerRuntime

        runtime = WorkerRuntime(channel=None, index=0)
        owned, _blobs = runtime.dispatch(
            "init", {"spec": encode_spec(base_spec()), "peers": two_worker_driver().shard.owned[0]}
        )
        peers = [runtime.shard.peers[peer_id] for peer_id in owned]
        assert peers and all(peer.gateway is None for peer in peers)
        for held in (runtime, runtime.offchain, runtime.shard, *peers):
            assert not isinstance(held, ChainGateway)
            assert not any(isinstance(value, ChainGateway) for value in vars(held).values())


class TestOwnership:
    """The coordinator deals the ever-selected peers round-robin in cohort
    order, and ``init`` hands each worker its hand: a worker builds those
    peers and samples nothing else."""

    def unbalanced_spec(self) -> ScenarioSpec:
        """Ever-selected: A, C, D, E of six — cohort positions 0, 2, 3, 4."""
        return cohort_scenario(6, sampled_k=3).quick()

    def test_a_worker_materialises_only_its_peers(self):
        from repro.runtime.speccodec import encode_spec
        from repro.runtime.worker import WorkerRuntime

        spec = base_spec()
        hand = two_worker_driver(spec).shard.owned[0]
        assert 0 < len(hand) < len(spec.client_ids())
        runtime = WorkerRuntime(channel=None, index=0)
        runtime.dispatch("init", {"spec": encode_spec(spec), "peers": hand})
        assert sorted(runtime.shard.peers) == sorted(hand)
        # A train and a test split per owned peer; no aggregator split.
        assert runtime.context.stats["dataset_misses"] == 2 * len(hand)

    def test_sampled_hands_are_balanced(self):
        driver = two_worker_driver(self.unbalanced_spec())
        dealt = list(driver.peers)
        by_position = [driver.peer_ids.index(peer_id) % 2 for peer_id in dealt]
        assert abs(by_position.count(0) - by_position.count(1)) > 1  # the full-roster rule
        sizes = [len(hand) for hand in driver.shard.owned]
        assert max(sizes) - min(sizes) <= 1
        assert sorted(peer_id for hand in driver.shard.owned for peer_id in hand) == sorted(dealt)

    def test_sampled_hands_run_like_inprocess(self):
        inproc, multi = pair(self.unbalanced_spec())
        assert comparable(inproc) == comparable(multi)
        hands = [stats["peers"] for stats in multi.chain_stats["gateway"]["worker_stats"]]
        assert [len(hand) for hand in hands] == [2, 2]


class TestSpecGates:
    def test_runtime_kinds_constant(self):
        assert RUNTIME_KINDS == ("inprocess", "multiprocess")

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ConfigError):
            base_spec(runtime="distributed")

    def test_zero_workers_rejected(self):
        with pytest.raises(ConfigError):
            base_spec(runtime="multiprocess", runtime_workers=0)

    def test_vanilla_ignores_runtime_knob(self):
        spec = ScenarioSpec(name="v", kind="vanilla", seed=1, runtime="multiprocess")
        assert spec.runtime == "multiprocess"  # validated, tolerated, unused
