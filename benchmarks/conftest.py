"""Shared fixtures for the benchmark harness.

Each bench regenerates one of the paper's tables or figures.  Experiments
are deterministic functions of their spec, so a session-scoped cache lets
the table bench and the figure bench of the same experiment share one run
(exactly like the paper derives Table I and Figure 3 from the same logs).

Benchmarks that wrap a full federated experiment use
``benchmark.pedantic(..., rounds=1, iterations=1)`` — the experiment is the
unit of work being timed, and repeating a deterministic 10-round training
run adds nothing but wall-clock.
"""

from __future__ import annotations

import pytest

from _bench_util import run_once  # noqa: F401  (re-export for the bench modules)
from repro.scenarios import paper_spec, run_scenario


def pytest_addoption(parser) -> None:
    """``--smoke``: tiny cohorts and 1-2 rounds, so a bench finishes in
    seconds (used by the tier-1 suite and quick local sanity runs)."""
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="run benchmarks in fast smoke mode (tiny cohort, 1-2 rounds)",
    )


@pytest.fixture(scope="session")
def smoke(request) -> bool:
    """Whether this session runs in ``--smoke`` fast mode."""
    return bool(request.config.getoption("--smoke"))


class ExperimentCache:
    """Memoizes experiment results across benchmark modules."""

    def __init__(self) -> None:
        self._vanilla = {}
        self._decentralized = {}

    def vanilla(self, model_kind: str, consider: bool):
        key = (model_kind, consider)
        if key not in self._vanilla:
            self._vanilla[key] = run_scenario(
                paper_spec(model_kind, kind="vanilla", consider=consider)
            )
        return self._vanilla[key]

    def decentralized(self, model_kind: str):
        if model_kind not in self._decentralized:
            self._decentralized[model_kind] = run_scenario(paper_spec(model_kind))
        return self._decentralized[model_kind]


@pytest.fixture(scope="session")
def experiments() -> ExperimentCache:
    """Session-wide experiment result cache."""
    return ExperimentCache()


# run_once lives in _bench_util (re-exported above): bench modules that
# import it at runtime must not say ``from conftest import ...`` — that
# module name is ambiguous with tests/conftest.py under mixed invocations.
