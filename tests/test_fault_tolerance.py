"""Failure injection: partitions, healing, message loss, and chain sync.

The paper's pitch for blockchain-based FL is removing the single point of
failure; these tests verify the substrate actually delivers that — a
partitioned peer catches back up (via sync-on-orphan), lossy links don't
wedge the chain, and FL rounds survive temporary faults.
"""

import numpy as np
import pytest

from repro.chain.crypto import KeyPair
from repro.chain.network import LatencyModel, P2PNetwork
from repro.chain.node import GenesisSpec, Node, NodeConfig
from repro.chain.pow import ProofOfWork, RetargetRule
from repro.chain.runtime import ContractRuntime
from repro.contracts import register_all
from repro.core.decentralized import DecentralizedConfig, DecentralizedFL
from repro.core.peer import PeerConfig
from repro.data.dataset import Dataset
from repro.fl.trainer import TrainConfig
from repro.nn.layers import Dense
from repro.nn.model import Sequential
from repro.utils.events import Simulator
from repro.utils.rng import RngFactory


def build_network(n_nodes=3, seed=0, target_interval=5.0, drop_rate=0.0):
    runtime = ContractRuntime()
    register_all(runtime)
    keypairs = [KeyPair.from_seed(f"ft-{i}") for i in range(n_nodes)]
    genesis = GenesisSpec(
        allocations={kp.address: 10**15 for kp in keypairs},
        difficulty=max(int(n_nodes * 1000 * target_interval), 1),
    )
    sim = Simulator()
    network = P2PNetwork(
        sim,
        ProofOfWork(np.random.default_rng(seed), retarget=RetargetRule(target_interval=target_interval)),
        latency=LatencyModel(base=0.05, jitter=0.02),
        rng=np.random.default_rng(seed + 1),
        drop_rate=drop_rate,
    )
    nodes = []
    for kp in keypairs:
        node = Node(kp, genesis, runtime, NodeConfig())
        network.add_node(node)
        nodes.append(node)
    return network, nodes


class TestPartitionRecovery:
    def test_partitioned_node_syncs_after_heal(self):
        """A node cut off for several blocks catches up via chain sync."""
        network, nodes = build_network(3)
        isolated = nodes[2].address
        for other in (nodes[0].address, nodes[1].address):
            network.partition(isolated, other)
        network.start_mining([nodes[0].address, nodes[1].address])
        while min(nodes[0].height, nodes[1].height) < 5:
            network.sim.step()
        assert nodes[2].height == 0

        network.heal_all()
        network.start_mining([isolated])
        # The next block the healed node receives references unknown
        # ancestors; sync-on-orphan back-fills them.
        target = min(nodes[0].height, nodes[1].height)
        while nodes[2].height < target and network.sim.now < 10**5:
            if not network.sim.step():
                break
        network.stop_mining()
        assert nodes[2].height >= target
        assert network.stats.syncs >= 1

    def test_synced_node_agrees_on_state(self):
        network, nodes = build_network(2, seed=3)
        a, b = nodes[0].address, nodes[1].address
        network.partition(a, b)
        network.start_mining([a])
        while nodes[0].height < 4:
            network.sim.step()
        network.heal(a, b)
        while nodes[1].height < 4 and network.sim.now < 10**5:
            if not network.sim.step():
                break
        network.stop_mining()
        network.run_for(5.0)
        # Identical canonical prefix => identical executed state root.
        h = min(nodes[0].height, nodes[1].height)
        assert h >= 4
        block_a = nodes[0].store.get(nodes[0].store.canonical_hash(h))
        block_b = nodes[1].store.get(nodes[1].store.canonical_hash(h))
        assert block_a.block_hash == block_b.block_hash


class TestLossyLinks:
    @pytest.mark.parametrize("drop_rate", [0.2, 0.5])
    def test_chain_progresses_under_loss(self, drop_rate):
        network, nodes = build_network(3, seed=7, drop_rate=drop_rate)
        network.start_mining()
        # Every node keeps mining locally, so height advances regardless of
        # drops; sync-on-orphan repairs the gaps that drops create.
        while max(node.height for node in nodes) < 6 and network.sim.now < 10**5:
            network.sim.step()
        network.stop_mining()
        assert max(node.height for node in nodes) >= 6
        assert network.stats.messages_dropped > 0


class TestFLRoundSurvivesFault:
    def _easy(self, rng, n=80):
        x = rng.normal(size=(n, 4))
        y = (x[:, 0] > 0).astype(np.int64)
        return Dataset(x, y)

    def test_round_completes_after_mid_round_partition(self):
        peers = ("A", "B", "C")
        data_rng = np.random.default_rng(0)
        driver = DecentralizedFL(
            [
                PeerConfig(peer_id=p, train_config=TrainConfig(epochs=1), training_time=10.0)
                for p in peers
            ],
            {p: self._easy(data_rng) for p in peers},
            {p: self._easy(data_rng, n=40) for p in peers},
            lambda rng: Sequential([Dense(2, name="out")]).build(np.random.default_rng(42), (4,)),
            DecentralizedConfig(rounds=1),
            rng_factory=RngFactory(21),
        )
        driver.deploy_contracts()

        # Cut C off, then heal it shortly after the round starts: its
        # submission gossip is lost but C's own miner still includes it, and
        # the sync path carries everything across once healed.
        c_address = driver.peers["C"].address
        for other_id in ("A", "B"):
            driver.network.partition(c_address, driver.peers[other_id].address)
        heal_done = []

        def heal():
            driver.network.heal_all()
            heal_done.append(True)

        driver.sim.schedule_in(60.0, heal)
        logs = driver.run_round(1)
        assert heal_done, "heal event never fired"
        assert len(logs) == 3
        for log in logs:
            assert log.chosen_combination
