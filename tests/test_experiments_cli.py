"""Tests for the ``python -m repro.experiments`` CLI (fast paths only)."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest
from test_core_decentralized import platform_key

from repro import experiments as cli
from repro.scenarios import get_scenario, replace_axis

DIGEST_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "paper_artifact_digests.json"


class TestArgumentParsing:
    def test_unknown_artifact_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["table99"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_help_lists_scenario_commands(self, capsys):
        """``run``, ``sweep`` and ``list`` are the whole interface."""
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--help"])
        assert excinfo.value.code == 0
        assert "{run,sweep,list}" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1"],
            ["all"],
            ["fig3", "--model", "simple_nn"],
            ["--seed", "1", "run", "paper/table1"],
            ["--model", "simple_nn", "run", "paper/table1"],
        ],
        ids=["table1", "all", "fig3", "top-seed", "top-model"],
    )
    def test_pre_scenario_invocations_rejected(self, argv, capsys):
        """The artifact commands and the top-level ``--seed``/``--model``
        mirror are gone, not aliased: argparse's usage error, exit 2."""
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "invalid choice" in err

    def test_unknown_model_rejected(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["run", "paper/table1", "--model", "resnet"])
        assert "invalid choice" in capsys.readouterr().err


class TestHelpers:
    """The paper's tables and figures through ``run paper/*`` at quick
    scale (paper-scale runs live in benchmarks/)."""

    @pytest.fixture(scope="class")
    def stdout_of(self):
        """``run <scenario> --quick --seed 1 --model simple_nn``, run once."""
        outputs = {}

        def run(scenario: str) -> str:
            if scenario not in outputs:
                buffer = io.StringIO()
                argv = ["run", scenario, "--quick", "--seed", "1", "--model", "simple_nn"]
                with contextlib.redirect_stdout(buffer):
                    assert cli.main(argv) == 0
                outputs[scenario] = buffer.getvalue()
            return outputs[scenario]

        return run

    def test_table1_text(self, stdout_of):
        text = stdout_of("paper/table1")
        assert "Table I" in text
        assert "Consider" in text and "Not consider" in text

    def test_combination_table_text(self, stdout_of):
        text = stdout_of("paper/tables234")
        for peer_id in ("A", "B", "C"):
            assert f"Client {peer_id}" in text
        assert "A,B,C" in text

    def test_fig3_text(self, stdout_of):
        text = stdout_of("paper/fig3")
        assert "Fig 3" in text
        assert "Client A" in text

    def test_fig4_text(self, stdout_of):
        assert "Fig 4" in stdout_of("paper/fig4")

    @pytest.mark.parametrize(
        "scenario", ["paper/table1", "paper/tables234", "paper/fig3", "paper/fig4"]
    )
    def test_stdout_matches_the_pre_port_bytes(self, scenario, stdout_of):
        """SHA-256 of each artifact's stdout, recorded from the last commit
        that still had the ``fig3``/``fig4`` commands (platform-keyed: float
        results are exact only on the numpy build and CPU that recorded
        them)."""
        fixture = json.loads(DIGEST_FIXTURE.read_text())
        if fixture["platform"] != platform_key():
            pytest.skip(f"artifact digests were recorded on {fixture['platform']!r}")
        digest = hashlib.sha256(stdout_of(scenario).encode("utf-8")).hexdigest()
        assert digest == fixture["digests"][scenario]


class TestListCommand:
    def test_list_prints_registry(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("paper/table1", "cohort/25", "adversarial/label_flip", "hetero/stragglers"):
            assert name in out


class TestRunCommand:
    """Scenario runs at quick scale (paper-scale runs live in benchmarks/)."""

    def test_run_unknown_scenario_exits_2(self, capsys):
        assert cli.main(["run", "paper/tabel1"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "paper/table1" in err

    def test_run_adversarial_scenario_quick(self, capsys):
        assert cli.main(["run", "adversarial/label_flip", "--quick", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Scenario summary" in out
        assert "C" in out  # the flipped client is reported

    def test_run_hetero_scenario_quick(self, capsys):
        assert cli.main(["run", "hetero/stragglers", "--quick", "--seed", "1"]) == 0
        assert "Scenario summary" in capsys.readouterr().out

    def test_run_negative_workers_exits_cleanly(self, capsys):
        assert cli.main(["run", "cohort/3", "--quick", "--runtime-workers", "-1"]) == 2
        assert "runtime_workers" in capsys.readouterr().err

    def test_run_workers_flag_changes_nothing(self, capsys):
        """Worker processes are a pure wall-clock knob: output bytes identical."""
        assert cli.main(["run", "cohort/3", "--quick", "--seed", "1"]) == 0
        serial = capsys.readouterr().out
        multiprocess = ["--runtime", "multiprocess", "--runtime-workers", "2"]
        assert cli.main(["run", "cohort/3", "--quick", "--seed", "1", *multiprocess]) == 0
        assert capsys.readouterr().out == serial

    def test_run_faults_under_workers_changes_nothing(self, capsys):
        """Injected faults fire in the driver under both runtimes, so the
        fault report — injected, retries, completion — is byte-identical."""
        assert cli.main(["run", "faults/transient", "--quick"]) == 0
        inprocess = capsys.readouterr().out
        multiprocess = ["--runtime", "multiprocess", "--runtime-workers", "2"]
        assert cli.main(["run", "faults/transient", "--quick", *multiprocess]) == 0
        assert capsys.readouterr().out == inprocess
        assert "Fault resilience" in inprocess


#: One valid and one invalid command-line value per override flag.
FLAG_VALUES = {
    "--gateway": ("batching", None),            # argparse `choices` guards it
    "--runtime": ("multiprocess", None),
    "--runtime-workers": ("3", "-1"),
    "--sampled-k": ("2", "1"),
    "--execution": ("parallel", None),
    "--cold-storage": (None, None),             # store_true: no value
}


class TestAxisFlags:
    """The flag -> axis table is the only wiring between CLI and spec."""

    def test_every_flag_has_test_values(self):
        assert set(FLAG_VALUES) == set(cli.AXIS_FLAGS)
        assert set(cli.SWEEP_FLAGS) <= set(cli.AXIS_FLAGS)

    @pytest.mark.parametrize(
        "command,flag",
        [("run", flag) for flag in cli.AXIS_FLAGS] + [("sweep", flag) for flag in cli.SWEEP_FLAGS],
    )
    def test_flag_lands_on_exactly_its_axis(self, command, flag, monkeypatch):
        axis = cli.AXIS_FLAGS[flag][0]
        value = FLAG_VALUES[flag][0]
        argv = ["run", "cohort/3"] if command == "run" else ["sweep", "cohort"]
        argv += [flag] if value is None else [flag, value]
        seen = []
        monkeypatch.setattr(cli, "_run_named_scenario", lambda *a: seen.append(a[-1]) or 0)
        monkeypatch.setattr(cli, "_run_sweep", lambda *a: seen.append(a[-1]) or 0)
        assert cli.main(argv) == 0
        (overrides,) = seen
        assert list(overrides) == [axis]
        decentralized = get_scenario("cohort/4").build(seed=1, quick=True)[0]
        vanilla = get_scenario("paper/table1").build(seed=1, quick=True)[0]
        assert vanilla.kind == "vanilla"
        applied = cli._apply_overrides((vanilla, decentralized), overrides)
        assert applied[0] is vanilla
        assert applied[1] == replace_axis(decentralized, axis, overrides[axis]) != decentralized

    def test_no_flags_no_overrides(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "_run_named_scenario", lambda *a: seen.append(a[-1]) or 0)
        assert cli.main(["run", "cohort/3", "--quick", "--seed", "1"]) == 0
        assert seen == [{}]

    @pytest.mark.parametrize(
        "flag", sorted(flag for flag, (_ok, bad) in FLAG_VALUES.items() if bad is not None)
    )
    def test_invalid_value_exits_2_with_config_error(self, flag, capsys):
        axis = cli.AXIS_FLAGS[flag][0]
        assert cli.main(["run", "cohort/3", "--quick", flag, FLAG_VALUES[flag][1]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and axis.rpartition(".")[2] in err
        if flag in cli.SWEEP_FLAGS:
            assert cli.main(["sweep", "cohort", "--sizes", "3", "--quick", flag, FLAG_VALUES[flag][1]]) == 2
            assert capsys.readouterr().err == err


class TestSweepCommand:
    def test_sweep_cohort_prints_rows(self, capsys):
        assert cli.main(["sweep", "cohort", "--sizes", "3", "4", "--quick", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Cohort scaling sweep" in out
        assert "mean_wait_s" in out and "final_accuracy" in out
        # One row per requested size.
        assert len([line for line in out.splitlines() if line.startswith(("3 ", "4 "))]) == 2

    def test_sweep_invalid_wait_for_exits_cleanly(self, capsys):
        assert cli.main(["sweep", "cohort", "--sizes", "3", "--wait-for", "0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_sweep_workers_flag_changes_nothing(self, capsys):
        """Identical rows modulo the wall-clock column (the one thing
        worker processes are allowed to change)."""

        def sans_wall(out: str) -> list[str]:
            return [" ".join(line.split()[:-1]) for line in out.splitlines() if line.strip()]

        assert cli.main(["sweep", "cohort", "--sizes", "3", "--quick", "--seed", "1"]) == 0
        serial = capsys.readouterr().out
        assert (
            cli.main(
                ["sweep", "cohort", "--sizes", "3", "--quick", "--seed", "1"]
                + ["--runtime", "multiprocess", "--runtime-workers", "2"]
            )
            == 0
        )
        assert sans_wall(capsys.readouterr().out) == sans_wall(serial)

    def test_sweep_unknown_axis_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["sweep", "policy"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
