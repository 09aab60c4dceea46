"""Shared fixtures: tiny datasets, funded chains, quick experiment configs."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.chain.crypto import KeyPair
from repro.chain.node import GenesisSpec, Node, NodeConfig
from repro.chain.runtime import ContractRuntime
from repro.contracts import register_all
from repro.data.dataset import Dataset
from repro.data.synthetic import SyntheticImageDataset, SyntheticSpec


def live_runtime_workers(parent: int) -> list[int]:
    """Pids of ``parent``'s children running ``repro.runtime.worker``,
    read from ``/proc`` (a zombie has an empty command line: not live)."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            cmdline = (entry / "cmdline").read_bytes()
        except OSError:
            continue  # exited while we looked
        ppid = int(stat.rpartition(")")[2].split()[1])
        if ppid == parent and b"repro.runtime.worker" in cmdline:
            found.append(int(entry.name))
    return found


@pytest.fixture(scope="session", autouse=True)
def no_runtime_worker_outlives_the_session():
    """A worker fleet lives as long as its ``ScenarioContext``; one still
    running when the session ends is a context somebody forgot to close."""
    yield
    if not Path("/proc/self").exists():
        return
    leaked = live_runtime_workers(os.getpid())
    if leaked:
        pytest.fail(f"runtime workers still alive at session end: pids {leaked}")


@pytest.fixture
def rng() -> np.random.Generator:
    """A fixed-seed generator for deterministic tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_spec() -> SyntheticSpec:
    """A low-noise, easy synthetic spec for fast convergent tests."""
    return SyntheticSpec(noise_std=0.5, label_noise=0.0, seed=7)


@pytest.fixture
def tiny_factory(tiny_spec) -> SyntheticImageDataset:
    """Factory over the tiny spec."""
    return SyntheticImageDataset(tiny_spec)


@pytest.fixture
def tiny_dataset(tiny_factory, rng) -> Dataset:
    """120 easy samples."""
    return tiny_factory.sample(120, rng)


@pytest.fixture
def keypairs() -> dict[str, KeyPair]:
    """Three named keypairs (the paper's A/B/C peers)."""
    return {name: KeyPair.from_seed(f"test-{name}") for name in ("A", "B", "C")}


@pytest.fixture
def runtime() -> ContractRuntime:
    """Contract runtime with the full FL suite registered."""
    rt = ContractRuntime()
    register_all(rt)
    return rt


@pytest.fixture
def genesis_spec(keypairs) -> GenesisSpec:
    """Genesis allocating generous balances to A/B/C."""
    return GenesisSpec(allocations={kp.address: 10**15 for kp in keypairs.values()})


@pytest.fixture
def node(keypairs, genesis_spec, runtime) -> Node:
    """A single funded node owned by A."""
    return Node(keypairs["A"], genesis_spec, runtime, NodeConfig())


@pytest.fixture
def three_nodes(keypairs, genesis_spec, runtime) -> dict[str, Node]:
    """Three nodes sharing one genesis (not yet networked)."""
    return {
        name: Node(kp, genesis_spec, runtime, NodeConfig())
        for name, kp in keypairs.items()
    }


def make_weights(rng: np.random.Generator, scale: float = 1.0) -> dict[str, np.ndarray]:
    """Helper: a small arbitrary weight dict."""
    return {
        "layer/W": rng.normal(0, scale, size=(4, 3)),
        "layer/b": rng.normal(0, scale, size=(3,)),
    }
