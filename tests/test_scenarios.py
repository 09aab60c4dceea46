"""Tests for the declarative scenario API (spec, registry, runner, sweep)."""

import contextlib
import hashlib
import io
import json
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest
from test_core_decentralized import platform_key

from repro import experiments as cli
from repro.core.decentralized import DecentralizedConfig
from repro.data.synthetic import FLAT_DIM, NUM_CLASSES, SyntheticImageDataset, SyntheticSpec
from repro.errors import ConfigError, DataError
from repro.faults import RetryPolicy
from repro.fl.async_policy import WaitForK
from repro.fl import poisoning
from repro.fl.poisoning import LabelFlipAttacker
from repro.fl.trainer import TrainConfig
from repro.nn.models import build_efficientnet_b0_sim
from repro.scenarios import (
    AdversarySpec,
    ChainSpec,
    CohortSpec,
    FaultSpec,
    HeterogeneitySpec,
    ParticipationSpec,
    ScenarioContext,
    ScenarioSpec,
    cohort_scenario,
    cohort_sweep,
    default_client_ids,
    get_scenario,
    grid,
    list_scenarios,
    paper_spec,
    replace_axis,
    run_grid,
    run_scenario,
)
from repro.scenarios import spec as spec_module
from repro.scenarios.runner import _train_config, decentralized_inputs
from repro.utils.rng import RngFactory

ADVERSARY_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "adversary_digests.json"


def tiny_spec(**overrides) -> ScenarioSpec:
    """A seconds-scale decentralized spec for runner tests."""
    defaults = dict(
        kind="decentralized",
        rounds=1,
        local_epochs=1,
        cohort=CohortSpec(size=3, train_samples=60, test_samples=40),
        aggregator_test_samples=40,
        seed=11,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestSpecValidation:
    def test_cohort_size_floor(self):
        with pytest.raises(ConfigError):
            CohortSpec(size=1)

    def test_cohort_ids_must_match_size(self):
        with pytest.raises(ConfigError):
            CohortSpec(size=3, client_ids=("A", "B"))

    def test_attacker_fraction_range(self):
        with pytest.raises(ConfigError):
            AdversarySpec(kind="label_flip", fraction=1.5)
        with pytest.raises(ConfigError):
            AdversarySpec(kind="label_flip", fraction=-0.1)

    def test_attacker_kind_needs_fraction(self):
        with pytest.raises(ConfigError, match="needs fraction"):
            AdversarySpec(kind="label_flip", fraction=0.0)

    @pytest.mark.parametrize("kind", ["gradient_inversion", "noise", "scale"])
    def test_unknown_attacker_kind(self, kind):
        with pytest.raises(ConfigError, match="unknown attacker kind"):
            AdversarySpec(kind=kind, fraction=0.5)

    def test_attacker_fraction_needs_a_kind(self):
        with pytest.raises(ConfigError):
            AdversarySpec(kind="none", fraction=0.3)

    @pytest.mark.parametrize(
        "knobs",
        [
            dict(kind="custom", times=(1.0, 2.0, 3.0), base_time=99.0),
            dict(kind="custom", times=(1.0, 2.0, 3.0), spread=5.0),
            dict(kind="homogeneous", spread=5.0),
            dict(kind="stragglers", spread=5.0),
        ],
        ids=lambda knobs: ",".join(f"{k}={v}" for k, v in knobs.items()),
    )
    def test_heterogeneity_knobs_its_kind_ignores_are_rejected(self, knobs):
        """A knob the kind never reads used to validate and be dropped."""
        ignored = [name for name in knobs if name not in ("kind", "times")][-1]
        with pytest.raises(ConfigError, match=f"{ignored} is read only by"):
            HeterogeneitySpec(**knobs)

    @pytest.mark.parametrize(
        "knobs",
        [
            dict(kind="none", fraction=0.3),
        ],
        ids=lambda knobs: ",".join(f"{k}={v}" for k, v in knobs.items()),
    )
    def test_attacker_knobs_its_kind_ignores_are_rejected(self, knobs):
        ignored = [name for name in knobs if name != "kind"][-1]
        with pytest.raises(ConfigError, match=f"{ignored} is read only by label_flip"):
            AdversarySpec(**knobs)

    def test_knobs_each_kind_reads_are_accepted(self):
        HeterogeneitySpec(kind="uniform", base_time=60.0, spread=40.0)
        HeterogeneitySpec(kind="lognormal", base_time=10.0, spread=0.5)
        HeterogeneitySpec(kind="stragglers", base_time=10.0)
        AdversarySpec(kind="label_flip", fraction=0.3)

    @pytest.mark.parametrize(
        "knobs, message",
        [
            (dict(kind="bimodal"), "unknown heterogeneity kind"),
            (dict(kind="uniform", spread=-0.5), "spread must be non-negative"),
            (dict(kind="lognormal", spread=-0.5), "spread must be non-negative"),
            (dict(kind="uniform", spread=30.0), "< base_time for uniform"),
        ],
        ids=["kind=bimodal", "kind=uniform,spread=-0.5", "kind=lognormal,spread=-0.5",
             "kind=uniform,spread=30.0"],
    )
    def test_invalid_heterogeneity_rejected(self, knobs, message):
        """Only ``uniform`` has an upper bound on ``spread``; a negative
        spread is refused as such for every kind that reads it."""
        with pytest.raises(ConfigError, match=message):
            HeterogeneitySpec(**knobs)

    def test_lognormal_spread_has_no_upper_bound(self):
        """``spread`` is a sigma for ``lognormal``, not an offset from
        ``base_time``: a value at or past ``base_time`` is accepted and
        still draws positive times."""
        spec = HeterogeneitySpec(kind="lognormal", base_time=30.0, spread=30.0)
        times = spec.training_times(("a", "b", "c"), np.random.default_rng(0))
        assert set(times) == {"a", "b", "c"}
        assert all(t > 0 for t in times.values())

    def test_custom_heterogeneity_needs_times(self):
        with pytest.raises(ConfigError):
            HeterogeneitySpec(kind="custom")

    def test_custom_heterogeneity_rejects_empty_times(self):
        """``min(())`` used to escape as a bare ``ValueError``."""
        with pytest.raises(ConfigError, match="times"):
            HeterogeneitySpec(kind="custom", times=())

    def test_times_are_read_only_by_custom_heterogeneity(self):
        with pytest.raises(ConfigError, match="custom"):
            HeterogeneitySpec(kind="stragglers", times=(1.0, 2.0, 3.0))

    def test_hetero_times_must_match_cohort(self):
        with pytest.raises(ConfigError):
            tiny_spec(heterogeneity=HeterogeneitySpec(kind="custom", times=(10.0, 20.0)))

    def test_unknown_selection(self):
        with pytest.raises(ConfigError):
            tiny_spec(selection="simulated_annealing")

    def test_unknown_kind_and_mode(self):
        with pytest.raises(ConfigError):
            tiny_spec(kind="hierarchical")
        with pytest.raises(ConfigError):
            tiny_spec(mode="dictatorship")

    def test_training_and_cohort_knobs_validated(self):
        with pytest.raises(ConfigError):
            tiny_spec(learning_rate=0.0)
        with pytest.raises(ConfigError):
            tiny_spec(local_epochs=0)
        with pytest.raises(ConfigError):
            CohortSpec(size=3, client_ids=("A", "A", "B"))
        with pytest.raises(ConfigError):
            CohortSpec(label_skew=-1.0)

    @pytest.mark.parametrize(
        "spec_type",
        [
            CohortSpec,
            AdversarySpec,
            HeterogeneitySpec,
            ScenarioSpec,
            FaultSpec,
            RetryPolicy,
            ChainSpec,
            ParticipationSpec,
            SyntheticSpec,
        ],
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_every_float_field_rejects_non_finite_values(self, spec_type, bad):
        """Range checks like ``x <= 0`` are false for NaN: every float field
        of every sub-spec must still refuse NaN and +-inf at construction."""
        error = DataError if spec_type is SyntheticSpec else ConfigError
        valid = spec_type()
        floats = [f for f in fields(valid) if "float" in str(f.type)]
        assert floats, spec_type
        for spec_field in floats:
            value = (20.0, bad) if "tuple" in str(spec_field.type) else bad
            with pytest.raises(error, match=spec_field.name):
                replace(valid, **{spec_field.name: value})

    def test_nan_training_time_fails_at_construction_not_mid_run(self):
        with pytest.raises(ConfigError, match="times"):
            paper_spec(
                "simple_nn",
                heterogeneity=HeterogeneitySpec(kind="custom", times=(20.0, float("nan"), 150.0)),
            )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_training_rates_reject_non_finite_values(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=bad)

    def test_unknown_model_and_zero_rounds(self):
        with pytest.raises(ConfigError):
            tiny_spec(model_kind="gpt4")
        with pytest.raises(ConfigError):
            paper_spec("gpt4")
        with pytest.raises(ConfigError):
            tiny_spec(rounds=0)


def _default(spec_field):
    if spec_field.default_factory is not MISSING:
        return spec_field.default_factory()
    return spec_field.default


class TestDriverProjection:
    """A spec validates with, and the runner drives, one DecentralizedConfig."""

    def test_every_driver_field_is_a_spec_field_with_the_same_default(self):
        spec_fields = {spec_field.name: spec_field for spec_field in fields(ScenarioSpec)}
        for driver_field in fields(DecentralizedConfig):
            assert driver_field.name in spec_fields, driver_field.name
            assert _default(spec_fields[driver_field.name]) == _default(driver_field), (
                driver_field.name
            )

    def test_the_runner_drives_the_config_the_spec_validated(self, monkeypatch):
        validated = []
        check = DecentralizedConfig.__post_init__

        def record(config):
            check(config)
            validated.append(config)

        monkeypatch.setattr(DecentralizedConfig, "__post_init__", record)
        spec = tiny_spec(
            rounds=2,
            policy=WaitForK(2),
            mode="global_vote",
            enable_reputation=True,
            selection="greedy",
            chain=ChainSpec(gateway="batching"),
            faults=FaultSpec(transient_rate=0.1),
            participation=ParticipationSpec(sampled_k=2),
        )
        assert len(validated) == 1
        for driver_field in fields(DecentralizedConfig):  # every field is exercised
            assert getattr(validated[0], driver_field.name) != _default(driver_field)
        inputs = decentralized_inputs(
            spec, RngFactory(spec.seed), ScenarioContext(), materialize=frozenset()
        )
        assert inputs.config == validated[0]


class TestSpecAxes:
    def test_default_client_ids(self):
        assert default_client_ids(3) == ("A", "B", "C")
        assert default_client_ids(26)[-1] == "Z"
        assert default_client_ids(30)[:2] == ("P00", "P01")

    def test_adversary_ids_are_last_clients(self):
        ids = default_client_ids(3)
        assert AdversarySpec(kind="label_flip", fraction=1 / 3).adversary_ids(ids) == ("C",)
        assert AdversarySpec(kind="label_flip", fraction=1.0).adversary_ids(ids) == ids
        assert AdversarySpec().adversary_ids(ids) == ()

    def test_build_attacker_types(self):
        spec = AdversarySpec(kind="label_flip", fraction=0.5)
        assert spec.build_attacker() == LabelFlipAttacker()
        assert AdversarySpec().build_attacker() is None

    def test_straggler_times_deterministic(self, monkeypatch):
        monkeypatch.setattr(spec_module, "STRAGGLER_FRACTION", 0.4)
        monkeypatch.setattr(spec_module, "STRAGGLER_FACTOR", 3.0)
        hetero = HeterogeneitySpec(kind="stragglers", base_time=10.0)
        times = hetero.training_times(default_client_ids(5), RngFactory(0).get("hetero"))
        assert times["A"] == 10.0 and times["D"] == 30.0 and times["E"] == 30.0

    def test_stragglers_slow_one_client_in_five(self):
        """The registered ``hetero/stragglers`` cohort: one 5x device."""
        hetero = HeterogeneitySpec(kind="stragglers", base_time=30.0)
        times = hetero.training_times(default_client_ids(5), RngFactory(0).get("hetero"))
        assert times == {"A": 30.0, "B": 30.0, "C": 30.0, "D": 30.0, "E": 150.0}

    @pytest.mark.parametrize("size,count", [(1, 1), (2, 1), (5, 1), (6, 1), (8, 2), (10, 2), (11, 2), (13, 3)])
    def test_stragglers_are_the_cohort_tail(self, size, count):
        """``round(STRAGGLER_FRACTION * n)`` clients, at least one, from
        the end of the cohort, each ``STRAGGLER_FACTOR`` times slower."""
        ids = default_client_ids(size)
        hetero = HeterogeneitySpec(kind="stragglers", base_time=30.0)
        times = hetero.training_times(ids, RngFactory(0).get("hetero"))
        assert [times[cid] for cid in ids] == [30.0] * (size - count) + [150.0] * count

    def test_stragglers_draw_nothing_from_the_stream(self):
        stream = RngFactory(3).get("hetero")
        HeterogeneitySpec(kind="stragglers").training_times(default_client_ids(5), stream)
        assert float(stream.random()) == float(RngFactory(3).get("hetero").random())

    def test_efficientnet_runs_build_the_default_trunk(self):
        """A scenario's trunk is the one ``build_efficientnet_b0_sim`` and
        ``pretrained_backbone`` give by default: same sigma, same arrays."""
        spec = tiny_spec(model_kind="efficientnet_b0_sim")
        inputs = decentralized_inputs(
            spec, RngFactory(spec.seed), ScenarioContext(), materialize=frozenset({"A"})
        )
        trunk = inputs.model_builder(np.random.default_rng(0)).layers[0]
        backbone = SyntheticImageDataset(spec.data_spec).pretrained_backbone()
        default = build_efficientnet_b0_sim(np.random.default_rng(0), backbone=backbone).layers[0]
        assert trunk.sigma == default.sigma == 0.55
        np.testing.assert_array_equal(trunk.projection, default.projection)
        np.testing.assert_array_equal(trunk.anchors, default.anchors)

    def test_uniform_times_draw_from_stream(self):
        hetero = HeterogeneitySpec(kind="uniform", base_time=30.0, spread=10.0)
        a = hetero.training_times(("A", "B"), RngFactory(1).get("hetero"))
        b = hetero.training_times(("A", "B"), RngFactory(1).get("hetero"))
        assert a == b
        assert all(20.0 <= t <= 40.0 for t in a.values())

    def test_replace_axis_nested(self):
        spec = tiny_spec()
        bigger = replace_axis(spec, "cohort.size", 5)
        assert bigger.cohort.size == 5
        assert bigger.client_ids() == ("A", "B", "C", "D", "E")
        assert replace_axis(spec, "policy", WaitForK(1)).policy == WaitForK(1)

    def test_replace_axis_unknown_path(self):
        with pytest.raises(ConfigError):
            replace_axis(tiny_spec(), "cohort.flavour", 1)
        with pytest.raises(ConfigError):
            replace_axis(tiny_spec(), "warp_factor", 9)

    def test_quick_shrinks_to_test_scale(self):
        spec = paper_spec("simple_nn").quick()
        assert (spec.rounds, spec.local_epochs) == (2, 1)
        assert (spec.cohort.train_samples, spec.cohort.test_samples) == (200, 150)
        assert spec.aggregator_test_samples == 150
        assert spec.client_ids() == ("A", "B", "C")

    @pytest.mark.parametrize(
        "late",
        [
            {"faults": FaultSpec(crash_fraction=0.3, crash_round=4)},
            {"participation": ParticipationSpec(windows=((1, 4, 1),))},
        ],
        ids=["crash_window", "availability_window"],
    )
    def test_quick_opens_late_windows_at_its_last_round(self, late):
        spec = ScenarioSpec(rounds=5, cohort=CohortSpec(size=4), **late).quick()
        assert spec.rounds == 2
        assert spec.faults.crash_round == 2
        assert [first for _peer, first, _length in spec.participation.windows] == (
            [2] if "participation" in late else []
        )


class TestRegistry:
    def test_expected_names_registered(self):
        names = {definition.name for definition in list_scenarios()}
        assert {
            "paper/table1",
            "paper/tables234",
            "paper/tradeoff",
            "cohort/10",
            "cohort/25",
            "cohort/50",
            "adversarial/label_flip",
            "adversarial/reputation",
            "hetero/stragglers",
        } <= names

    def test_unknown_name_did_you_mean(self):
        with pytest.raises(ConfigError, match="paper/table1"):
            get_scenario("paper/tabel1")

    def test_dynamic_cohort_names(self):
        definition = get_scenario("cohort/17")
        (spec,) = definition.build(seed=1, quick=True)
        assert spec.cohort.size == 17
        with pytest.raises(ConfigError):
            get_scenario("cohort/1")

    def test_dynamic_and_registered_cohorts_described_identically(self):
        registered = get_scenario("cohort/25")
        dynamic = get_scenario("cohort/12")
        assert registered.description.replace("25", "12") == dynamic.description

    def test_every_registered_scenario_builds(self):
        for definition in list_scenarios():
            specs = definition.build(seed=1, quick=True)
            assert specs, definition.name
            for spec in specs:
                assert isinstance(spec, ScenarioSpec)

    def test_builds_honor_every_requested_model(self):
        both = ("simple_nn", "efficientnet_b0_sim")
        for definition in list_scenarios():
            specs = definition.build(seed=1, quick=True, models=both)
            assert {spec.model_kind for spec in specs} == set(both), definition.name

    @pytest.mark.parametrize(
        "name", [definition.name for definition in list_scenarios()]
    )
    def test_every_registered_scenario_runs_quick(self, name):
        definition = get_scenario(name)
        specs = [
            # Big cohorts additionally shrink data/rounds (size is the point).
            replace(
                spec,
                rounds=1,
                cohort=replace(spec.cohort, train_samples=50, test_samples=40),
                aggregator_test_samples=40,
            )
            if spec.cohort.size > 6
            else spec
            for spec in definition.build(seed=1, quick=True, models=("simple_nn",))
        ]
        context = ScenarioContext()
        results = [run_scenario(spec, context=context) for spec in specs]
        for spec, result in zip(specs, results):
            assert set(result.client_accuracy) == set(spec.client_ids())
        blocks = definition.render(specs, results)
        assert blocks and all(isinstance(block, str) for block in blocks)


    @pytest.mark.parametrize(
        "name", [definition.name for definition in list_scenarios()]
    )
    def test_every_registered_scenario_feeds_flat_vectors(self, name):
        """Every split a registered scenario hands its peers holds
        (rows, FLAT_DIM) float64 samples, and its initial model maps them to
        class logits, for both models (splits shrunk: shape is the point)."""
        context = ScenarioContext()
        specs = get_scenario(name).build(
            seed=1, quick=True, models=("simple_nn", "efficientnet_b0_sim")
        )
        for spec in specs:
            spec = replace(
                spec, cohort=replace(spec.cohort, train_samples=12, test_samples=8)
            )
            inputs = decentralized_inputs(spec, RngFactory(spec.seed), context)
            splits = [*inputs.train_sets.values(), *inputs.test_sets.values()]
            assert splits, (name, spec.model_kind)
            for split in splits:
                assert split.x.ndim == 2 and split.x.shape[1] == FLAT_DIM, split.name
                assert split.x.dtype == np.float64, split.name
            model = inputs.model_builder(np.random.default_rng(0))
            assert model.input_shape == (FLAT_DIM,)
            assert model.predict(splits[0].x).shape == (len(splits[0]), NUM_CLASSES)


class TestRunner:
    def test_same_seed_identical_result(self, monkeypatch):
        monkeypatch.setattr(poisoning, "FLIP_FRACTION", 0.5)
        spec = tiny_spec(
            cohort=CohortSpec(size=4, train_samples=60, test_samples=40),
            adversary=AdversarySpec(kind="label_flip", fraction=0.25),
            heterogeneity=HeterogeneitySpec(kind="uniform", base_time=30.0, spread=15.0),
        )
        assert run_scenario(spec) == run_scenario(spec)

    def test_seed_changes_result(self):
        spec = tiny_spec()
        assert run_scenario(spec) != run_scenario(replace(spec, seed=spec.seed + 1))

    def test_adversaries_recorded_and_effective(self):
        honest = tiny_spec()
        attacked = replace(honest, adversary=AdversarySpec(kind="label_flip", fraction=1 / 3))
        honest_result = run_scenario(honest)
        attacked_result = run_scenario(attacked)
        assert honest_result.adversaries == ()
        assert attacked_result.adversaries == ("C",)
        # C commits a model of flipped labels: the combinations containing
        # it score differently than in the honest run, the others do not.
        assert attacked_result.combination_accuracy != honest_result.combination_accuracy
        for rater, table in honest_result.combination_accuracy.items():
            for combination, series in table.items():
                if "C" not in combination:
                    assert attacked_result.combination_accuracy[rater][combination] == series

    def test_label_flip_poisons_training_data(self):
        spec = tiny_spec(adversary=AdversarySpec(kind="label_flip", fraction=1 / 3))
        from repro.scenarios.runner import _cohort_datasets

        context = ScenarioContext()
        honest, _ = _cohort_datasets(tiny_spec(), RngFactory(spec.seed), context)
        train_sets, _ = _cohort_datasets(spec, RngFactory(spec.seed), context)
        assert train_sets["C"].name.endswith("label_flipped")
        assert (train_sets["C"].y == 0).all()
        assert not (train_sets["A"].y == 0).all()
        # The memoised honest split keeps its labels; the samples are shared.
        assert not (honest["C"].y == 0).all()
        assert train_sets["C"].x is honest["C"].x

    def test_memoised_splits_are_read_only(self):
        from repro.scenarios.runner import _cohort_datasets

        spec = tiny_spec()
        train_sets, test_sets = _cohort_datasets(spec, RngFactory(spec.seed), ScenarioContext())
        for split in (*train_sets.values(), *test_sets.values()):
            assert not split.x.flags.writeable and not split.y.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            train_sets["A"].y[0] = 1

    def test_only_the_vanilla_kind_samples_the_aggregator_split(self):
        spec = tiny_spec()
        with ScenarioContext() as ctx:
            inputs = decentralized_inputs(spec, RngFactory(spec.seed), ctx)
            assert ctx.stats["dataset_misses"] == 2 * len(inputs.train_sets) == 6
            run_scenario(replace(spec, kind="vanilla"), context=ctx)
            # The peers' splits hit the memo; the central test set is new.
            assert ctx.stats["dataset_misses"] == 7

    @pytest.mark.parametrize("kind", ["decentralized", "vanilla"])
    def test_label_flip_to_the_last_class_runs(self, kind, monkeypatch):
        monkeypatch.setattr(poisoning, "TARGET_CLASS", NUM_CLASSES - 1)
        spec = tiny_spec(kind=kind, adversary=AdversarySpec(kind="label_flip", fraction=0.34))
        from repro.scenarios.runner import _cohort_datasets

        train_sets, _ = _cohort_datasets(spec, RngFactory(spec.seed), ScenarioContext())
        assert (train_sets["C"].y == 9).all()
        result = run_scenario(spec)
        assert result.adversaries == ("C",)
        assert all(len(series) == 1 for series in result.client_accuracy.values())

    def test_custom_heterogeneity_reaches_wait_times(self):
        spec = tiny_spec(
            heterogeneity=HeterogeneitySpec(kind="custom", times=(5.0, 5.0, 500.0)),
            rounds=1,
        )
        result = run_scenario(spec)
        assert result.training_times == {"A": 5.0, "B": 5.0, "C": 500.0}
        # The two fast peers wait for the straggler under wait-for-all.
        assert result.wait_times["A"] > 400.0
        assert result.wait_times["C"] < 100.0

    def test_greedy_selection_engages(self):
        spec = tiny_spec(selection="greedy")
        result = run_scenario(spec)
        for log in result.round_logs:
            assert len(log.combination_accuracy) == 1

    def test_global_vote_mode(self):
        spec = tiny_spec(mode="global_vote")
        result = run_scenario(spec)
        for log in result.round_logs:
            assert log.chosen_combination == ("A", "B", "C")

    @pytest.mark.parametrize("model_kind", ["simple_nn", "efficientnet_b0_sim"])
    def test_the_initial_model_is_built_once_and_copied(self, monkeypatch, model_kind):
        """Every peer starts from the ``model-init`` weights: one build per
        run for its peers, each of which gets its own model with the bytes
        of a build (a frozen trunk shared); a caller past the peers gets a
        build of its own."""
        import repro.scenarios.runner as runner
        from repro.nn.serialize import weights_to_bytes

        spec = tiny_spec(model_kind=model_kind)
        builds = []
        build_model = runner.build_model

        def counting(kind, rng, **kwargs):
            builds.append(kind)
            return build_model(kind, rng, **kwargs)

        monkeypatch.setattr(runner, "build_model", counting)
        with ScenarioContext() as ctx:
            inputs = decentralized_inputs(spec, RngFactory(spec.seed), ctx)
            models = [inputs.model_builder(np.random.default_rng(index)) for index in range(3)]
            assert builds == [model_kind]
            models.append(inputs.model_builder(np.random.default_rng(3)))
            assert builds == [model_kind] * 2
            seed = RngFactory(spec.seed).integers("model-init")
            fresh = runner._builder(spec, ctx)(np.random.default_rng(seed))
        assert len({id(model) for model in models}) == 4
        # The frozen trunk (efficientnet's) is one object for the cohort.
        depth = models[0].frozen_depth()
        assert depth == (1 if model_kind == "efficientnet_b0_sim" else 0)
        assert all(model.layers[:depth] == models[0].layers[:depth] for model in models[:3])
        for model in models:
            assert weights_to_bytes(model.get_weights()) == weights_to_bytes(fresh.get_weights())
        models[0].parameters()["head/b"][...] = 1.0  # independent copies
        assert weights_to_bytes(models[1].get_weights()) == weights_to_bytes(fresh.get_weights())

    def test_vanilla_kind(self):
        spec = tiny_spec(kind="vanilla", consider=False)
        result = run_scenario(spec)
        assert set(result.client_accuracy) == {"A", "B", "C"}
        assert result.combination_accuracy == {}
        assert result.mean_wait() == 0.0


class TestPaperSpec:
    """``paper_spec`` is the literal the paper's numbers hang off: the perf
    harness calls it, the worker's ``init`` frame encodes it, every golden
    depends on it.  Written out here so a drifted default shows as a diff."""

    @pytest.mark.parametrize(
        "model_kind,learning_rate,seed",
        [("simple_nn", 0.008, 42), ("efficientnet_b0_sim", 0.5, 7)],
    )
    def test_equals_the_literal_spec(self, model_kind, learning_rate, seed):
        assert paper_spec(model_kind, seed=seed) == ScenarioSpec(
            kind="decentralized",
            model_kind=model_kind,
            rounds=10,
            local_epochs=5,
            batch_size=32,
            learning_rate=learning_rate,
            seed=seed,
            cohort=CohortSpec(
                size=3,
                client_ids=("A", "B", "C"),
                label_skew=1.0,
                train_samples=800,
                test_samples=500,
            ),
            data_spec=SyntheticSpec(seed=1234),
            aggregator_test_samples=500,
        )

    def test_overrides_land_on_the_spec(self):
        spec = paper_spec(
            "simple_nn", seed=3, kind="vanilla", consider=False, policy=WaitForK(2), name="x"
        )
        assert spec == ScenarioSpec(
            name="x",
            kind="vanilla",
            consider=False,
            policy=WaitForK(2),
            learning_rate=0.008,
            seed=3,
            cohort=CohortSpec(client_ids=("A", "B", "C")),
        )

    def test_train_config_derived(self):
        spec = paper_spec("simple_nn")
        inputs = decentralized_inputs(
            spec, RngFactory(spec.seed), ScenarioContext(), materialize=frozenset()
        )
        for peer in inputs.peer_configs:
            assert (peer.train_config.epochs, peer.train_config.batch_size) == (5, 32)
            assert peer.train_config.learning_rate == 0.008

    def test_every_train_config_field_comes_from_the_spec(self):
        """Local training has no knob a scenario cannot set."""
        config = _train_config(tiny_spec(local_epochs=3, batch_size=7, learning_rate=0.02))
        assert {f.name: getattr(config, f.name) for f in fields(TrainConfig)} == {
            "epochs": 3,
            "batch_size": 7,
            "learning_rate": 0.02,
        }


class TestPaperCohortAtQuickScale:
    """The paper's 3-client deployment through ``run_scenario``, both kinds
    (calibration at full scale is benched, not unit-tested)."""

    @pytest.fixture(scope="class")
    def context(self):
        return ScenarioContext()

    @pytest.fixture(scope="class")
    def vanilla(self, context):
        spec = paper_spec("simple_nn", kind="vanilla", consider=False).quick()
        return run_scenario(spec, context=context)

    @pytest.fixture(scope="class")
    def decentralized(self, context):
        return run_scenario(paper_spec("simple_nn").quick(), context=context)

    @pytest.mark.parametrize("consider", [False, True])
    def test_vanilla_series_for_all_clients(self, consider, context):
        spec = paper_spec("simple_nn", kind="vanilla", consider=consider).quick()
        result = run_scenario(spec, context=context)
        assert set(result.client_accuracy) == {"A", "B", "C"}
        for client_id, series in result.client_accuracy.items():
            assert len(series) == spec.rounds
            assert all(0.0 <= value <= 1.0 for value in series)
            assert result.final_accuracy(client_id) == series[-1]

    def test_vanilla_same_seed_same_series(self, vanilla):
        assert run_scenario(vanilla.spec).client_accuracy == vanilla.client_accuracy

    def test_vanilla_seed_changes_series(self, vanilla):
        other = run_scenario(replace(vanilla.spec, seed=vanilla.spec.seed + 1))
        assert other.client_accuracy != vanilla.client_accuracy

    def test_efficientnet_variant_runs(self):
        spec = paper_spec("efficientnet_b0_sim", kind="vanilla", consider=False).quick()
        assert 0.0 <= run_scenario(spec).final_accuracy("A") <= 1.0

    def test_combination_tables_waits_and_chain_stats(self, decentralized):
        assert set(decentralized.combination_accuracy) == {"A", "B", "C"}
        for table in decentralized.combination_accuracy.values():
            assert len(table["A,B,C"]) == decentralized.spec.rounds
        assert set(decentralized.wait_times) == {"A", "B", "C"}
        assert decentralized.chain_stats["blocks_mined"] > 0

    def test_decentralized_same_seed_same_tables(self, decentralized):
        again = run_scenario(decentralized.spec)
        assert again.combination_accuracy == decentralized.combination_accuracy
        assert again.wait_times == decentralized.wait_times

    def test_wait_for_k_policy_accepted(self, decentralized, context):
        result = run_scenario(replace(decentralized.spec, policy=WaitForK(1)), context=context)
        assert min(log.models_used for log in result.round_logs) >= 1

    def test_comparable_accuracy(self, vanilla, decentralized):
        """The paper's headline: both settings reach comparable accuracy."""
        v_final = np.mean([vanilla.final_accuracy(c) for c in ("A", "B", "C")])
        d_final = np.mean(
            [decentralized.combination_accuracy[c]["A,B,C"][-1] for c in ("A", "B", "C")]
        )
        # Quick scale is tiny, so allow slack; full shape checked in benches.
        assert abs(v_final - d_final) < 0.25


class TestTradeoffScenario:
    """``paper/tradeoff`` must show a trade-off: on equal devices wait-for-k
    never fires early and the three policies are one run printed thrice."""

    @pytest.mark.parametrize("model_kind", ["simple_nn", "efficientnet_b0_sim"])
    def test_wait_rises_strictly_with_k(self, model_kind):
        definition = get_scenario("paper/tradeoff")
        specs = definition.build(seed=42, quick=True, models=(model_kind,))
        assert [spec.policy.describe() for spec in specs] == [
            "wait-for-1", "wait-for-2", "wait-for-all",
        ]
        context = ScenarioContext()
        results = [run_scenario(spec, context=context) for spec in specs]
        waits = [result.mean_wait() for result in results]
        assert waits[0] < waits[1] < waits[2]
        # The frozen trunk passes over each of the 3 + 3 splits once, for
        # all three policy cells; simple_nn has no frozen prefix to cache.
        trunk = model_kind == "efficientnet_b0_sim"
        assert context.stats["feature_misses"] == (6 if trunk else 0)
        assert (context.stats["feature_hits"] > 6) == trunk
        (table,) = definition.render(specs, results)
        visible = [line.split()[-1] for line in table.splitlines()[3:]]
        assert len(visible) == 3 and set(visible) != {"3.00"}


class TestSweepDriver:
    def test_grid_product_labels(self):
        points = grid(tiny_spec(), {"cohort.size": [3, 4], "selection": ["greedy"]})
        assert [label for label, _ in points] == [
            "cohort.size=3,selection=greedy",
            "cohort.size=4,selection=greedy",
        ]
        assert points[1][1].cohort.size == 4

    def test_grid_needs_axes(self):
        with pytest.raises(ConfigError):
            grid(tiny_spec(), {})

    def test_cohort_sweep_rows_deterministic(self):
        base = replace(
            cohort_scenario(3, seed=2).quick(),
            rounds=1,
            cohort=CohortSpec(size=3, train_samples=60, test_samples=40),
            aggregator_test_samples=40,
        )
        rows = cohort_sweep([3, 4], base=base, seed=2)
        again = cohort_sweep([3, 4], base=base, seed=2)
        assert [row["cohort"] for row in rows] == [3, 4]
        for row, row2 in zip(rows, again):
            assert row["mean_wait_s"] == row2["mean_wait_s"]
            assert row["final_accuracy"] == row2["final_accuracy"]
            assert 0.0 < row["final_accuracy"] <= 1.0

    def test_context_shares_datasets_across_points(self):
        base = tiny_spec()
        context = ScenarioContext()
        run_grid(grid(base, {"policy": [WaitForK(1), WaitForK(2)]}), context=context)
        # Same cohort and data axes: the second point re-uses every split.
        assert context.stats["dataset_hits"] >= context.stats["dataset_misses"]


class TestGatewayAxis:
    """The ledger-gateway knobs on the chain axis."""

    def test_unknown_gateway_rejected(self):
        with pytest.raises(ConfigError, match="gateway"):
            replace_axis(tiny_spec(), "chain.gateway", "carrier-pigeon")

    def test_nonpositive_staleness_rejected(self):
        with pytest.raises(ConfigError, match="staleness"):
            replace_axis(tiny_spec(), "chain.gateway_staleness", 0.0)

    def test_batching_backend_matches_inprocess(self):
        base = tiny_spec(rounds=2, enable_reputation=True)
        raw = run_scenario(base)
        batched = run_scenario(replace_axis(base, "chain.gateway", "batching"))
        assert raw.client_accuracy == batched.client_accuracy
        assert raw.combination_accuracy == batched.combination_accuracy
        assert raw.wait_times == batched.wait_times
        assert raw.reputation == batched.reputation
        raw_gw = raw.chain_stats["gateway"]
        batched_gw = batched.chain_stats["gateway"]
        assert raw_gw["backend"] == "inprocess"
        assert batched_gw["backend"] == "batching"
        # Batching has no view token, so its peers are polled after every
        # event and strictly fewer of those reads reach the transport; the
        # in-process peers are re-read only after a head moved, so they ask
        # for no more reads than that.
        assert (
            batched_gw["transport"]["contract_call_round_trips"]
            < batched_gw["requested"]["requested_reads"]
        )
        assert (
            raw_gw["requested"]["requested_reads"]
            <= batched_gw["requested"]["requested_reads"]
        )

    def test_cohort_sweep_gateway_override(self):
        base = replace(
            cohort_scenario(3, seed=2).quick(),
            rounds=1,
            cohort=CohortSpec(size=3, train_samples=60, test_samples=40),
            aggregator_test_samples=40,
        )
        rows = cohort_sweep([3], base=base, seed=2)
        batched = cohort_sweep([3], base=base, seed=2, overrides={"chain.gateway": "batching"})
        assert rows[0]["final_accuracy"] == batched[0]["final_accuracy"]
        assert rows[0]["mean_wait_s"] == batched[0]["mean_wait_s"]


class TestReputationScenario:
    """ROADMAP item (a): reputation-weighted exclusion quality."""

    def test_reputation_populated_only_when_enabled(self):
        plain = run_scenario(tiny_spec())
        assert plain.reputation == {}
        scored = run_scenario(tiny_spec(enable_reputation=True))
        assert set(scored.reputation) == {"A", "B", "C"}
        assert all(isinstance(score, int) for score in scored.reputation.values())

    def test_registered_scenario_enables_reputation(self):
        definition = get_scenario("adversarial/reputation")
        specs = definition.build(seed=1, quick=True)
        assert all(spec.enable_reputation for spec in specs)
        assert all(spec.adversary.kind == "label_flip" for spec in specs)

    def test_render_reports_exclusion_quality(self):
        definition = get_scenario("adversarial/reputation")
        specs = definition.build(seed=1, quick=True, models=("simple_nn",))
        results = [run_scenario(spec) for spec in specs]
        blocks = definition.render(specs, results)
        text = "\n".join(blocks)
        assert "reputation" in text.lower()
        assert "consider-only exclusion rate" in text
        # The adversary column flags the flipped client (last of the cohort).
        assert "yes" in text

    def test_exclusion_rate_bounds(self):
        result = run_scenario(tiny_spec(rounds=2))
        for client_id in ("A", "B", "C"):
            assert 0.0 <= result.exclusion_rate(client_id) <= 1.0
        assert result.exclusion_rate("nobody") == 1.0  # never adoptable


#: ``run <scenario> --quick --seed 1 --model <model>`` for every registered
#: adversarial scenario and both models.
ADVERSARY_RUNS = [
    f"{scenario} --model {model}"
    for scenario in ("adversarial/label_flip", "adversarial/reputation")
    for model in ("simple_nn", "efficientnet_b0_sim")
]


def adversary_digest(case: str) -> str:
    """SHA-256 of one adversarial case of ``adversary_digests.json``.

    An ``ADVERSARY_RUNS`` case hashes the CLI's stdout; ``vanilla/label_flip``
    (no registered scenario runs it) hashes a vanilla label-flip
    ``tiny_spec`` result's accuracy series, adversaries and round logs.
    """
    if case == "vanilla/label_flip":
        result = run_scenario(tiny_spec(
            kind="vanilla", rounds=2,
            adversary=AdversarySpec(kind="label_flip", fraction=1 / 3),
        ))
        payload = json.dumps({
            "client_accuracy": result.client_accuracy,
            "adversaries": result.adversaries,
            "round_logs": [asdict(log) for log in result.round_logs],
        }, sort_keys=True)
    else:
        scenario, _, model = case.split()
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert cli.main(["run", scenario, "--quick", "--seed", "1", "--model", model]) == 0
        payload = buffer.getvalue()
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestAdversaryDigests:
    """The adversarial path, pinned byte for byte (platform-keyed: float
    results are exact only on the numpy build and CPU that recorded them)."""

    @pytest.mark.parametrize("case", [*ADVERSARY_RUNS, "vanilla/label_flip"])
    def test_adversarial_runs_match_their_pinned_digests(self, case):
        fixture = json.loads(ADVERSARY_FIXTURE.read_text())
        if fixture["platform"] != platform_key():
            pytest.skip(f"adversary digests were recorded on {fixture['platform']!r}")
        assert adversary_digest(case) == fixture["digests"][case]
