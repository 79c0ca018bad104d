"""Tests for the typed mine() options surface and the algorithm registry."""

from __future__ import annotations

import pytest

import repro.api as api
from repro.api import ALGORITHMS, mine, register_algorithm, unregister_algorithm
from repro.core.result import MiningResult
from repro.cubeminer import HeightOrder
from repro.options import (
    CubeMinerOptions,
    ParallelOptions,
    ReferenceOptions,
    RSMOptions,
)


class TestTypedOptions:
    def test_cubeminer_options(self, paper_ds, paper_thresholds):
        result = mine(
            paper_ds,
            paper_thresholds,
            algorithm="cubeminer",
            options=CubeMinerOptions(order=HeightOrder.ORIGINAL),
        )
        assert result.algorithm == "cubeminer[original]"

    def test_rsm_options(self, paper_ds, paper_thresholds):
        result = mine(
            paper_ds,
            paper_thresholds,
            algorithm="rsm",
            options=RSMOptions(base_axis="row", fcp_miner="dminer"),
        )
        assert result.algorithm == "rsm-r[dminer]"

    def test_parallel_options_select_algorithm_knobs(self):
        kwargs = ParallelOptions(n_workers=3).to_kwargs("parallel-cubeminer")
        assert kwargs["n_workers"] == 3
        assert "order" in kwargs and "fcp_miner" not in kwargs
        kwargs = ParallelOptions(n_workers=3).to_kwargs("parallel-rsm")
        assert "fcp_miner" in kwargs and "order" not in kwargs

    def test_parallel_options_run(self, paper_ds, paper_thresholds):
        result = mine(
            paper_ds,
            paper_thresholds,
            algorithm="parallel-rsm",
            options=ParallelOptions(n_workers=1),
        )
        assert result.stats["n_workers"] == 1

    def test_mismatched_options_class_raises(self, paper_ds, paper_thresholds):
        with pytest.raises(TypeError, match="RSMOptions"):
            mine(
                paper_ds,
                paper_thresholds,
                algorithm="cubeminer",
                options=RSMOptions(),
            )

    def test_non_options_object_raises(self, paper_ds, paper_thresholds):
        with pytest.raises(TypeError, match="to_kwargs"):
            mine(
                paper_ds,
                paper_thresholds,
                algorithm="cubeminer",
                options={"order": HeightOrder.ORIGINAL},
            )

    def test_reference_options_have_no_knobs(self):
        assert ReferenceOptions().to_kwargs("reference") == {}

    def test_options_are_frozen(self):
        with pytest.raises(Exception):
            CubeMinerOptions().order = HeightOrder.ORIGINAL

    @pytest.mark.parametrize("options_class", [RSMOptions, ParallelOptions])
    @pytest.mark.parametrize("name", ["bogus", "charm"])
    def test_unknown_fcp_miner_rejected(self, options_class, name):
        with pytest.raises(ValueError, match=r"\['carpenter', 'dminer'\]"):
            options_class(fcp_miner=name)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"n_workers": 0}, "n_workers"),
            ({"n_workers": -2}, "n_workers"),
            ({"n_workers": "2"}, "n_workers"),
            ({"n_workers": 2.0}, "n_workers"),
            ({"retries": -1}, "retries"),
            ({"task_timeout": 0}, "task_timeout"),
            ({"backoff": -0.5}, "backoff"),
        ],
    )
    def test_parallel_options_reject_bad_numbers(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ParallelOptions(**kwargs)

    def test_parallel_options_accept_edge_values(self):
        options = ParallelOptions(
            n_workers=1, retries=0, task_timeout=None, backoff=0
        )
        kwargs = options.to_kwargs("parallel-cubeminer")
        assert (kwargs["n_workers"], kwargs["retries"], kwargs["backoff"]) == (1, 0, 0)

    def test_removed_parallel_knobs_are_unknown_keys(self):
        from repro.options import options_from_dict

        for key in ("shards", "shard_dim", "use_shm", "chunks_per_worker", "min_tasks"):
            with pytest.raises(ValueError, match="unknown option"):
                options_from_dict("parallel-rsm", {key: 1})


class TestLooseKwargsRemoved:
    """The pre-2.0 loose-keyword channel is gone: typed options only."""

    def test_loose_kwargs_raise_type_error(self, paper_ds, paper_thresholds):
        with pytest.raises(TypeError):
            mine(
                paper_ds,
                paper_thresholds,
                algorithm="cubeminer",
                order=HeightOrder.ORIGINAL,
            )

    def test_loose_parallel_kwargs_raise_type_error(
        self, paper_ds, paper_thresholds
    ):
        with pytest.raises(TypeError):
            mine(
                paper_ds,
                paper_thresholds,
                algorithm="parallel-cubeminer",
                n_workers=2,
            )

    def test_typed_options_do_not_warn(self, paper_ds, paper_thresholds, recwarn):
        mine(
            paper_ds,
            paper_thresholds,
            options=CubeMinerOptions(order=HeightOrder.ORIGINAL),
        )
        assert not [w for w in recwarn if w.category is DeprecationWarning]


class TestRegistry:
    def test_algorithms_is_derived_from_registry(self):
        assert set(
            ("cubeminer", "rsm", "reference", "parallel-cubeminer", "parallel-rsm")
        ) <= set(ALGORITHMS)
        assert tuple(api._REGISTRY) == api.ALGORITHMS

    def test_unknown_algorithm_message(self, paper_ds, paper_thresholds):
        with pytest.raises(ValueError, match="unknown algorithm"):
            mine(paper_ds, paper_thresholds, algorithm="nope")

    def test_register_round_trip(self, paper_ds, paper_thresholds):
        def _load():
            def fake_mine(dataset, thresholds, **kwargs):
                return MiningResult(
                    cubes=[],
                    algorithm="fake",
                    thresholds=thresholds,
                    dataset_shape=dataset.shape,
                    elapsed_seconds=0.0,
                )

            return fake_mine

        register_algorithm("fake", _load, description="test stub")
        try:
            assert "fake" in api.ALGORITHMS
            result = mine(paper_ds, paper_thresholds, algorithm="fake")
            assert result.algorithm == "fake"
        finally:
            unregister_algorithm("fake")
        assert "fake" not in api.ALGORITHMS

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_algorithm("cubeminer", lambda: None)

    def test_replace_allows_override(self):
        spec = api.get_algorithm("cubeminer")
        try:
            register_algorithm(
                "cubeminer", spec.loader, options_type=spec.options_type,
                replace=True,
            )
        finally:
            # Restore the pristine spec (same loader either way).
            api._REGISTRY["cubeminer"] = spec
            api._refresh_names()
        assert "cubeminer" in api.ALGORITHMS


class TestOptionsWireFormat:
    """options_to_dict / options_from_dict are the JSON channel of 2.0."""

    def test_round_trip_every_class(self):
        from repro.options import options_from_dict, options_to_dict

        cases = [
            ("cubeminer", CubeMinerOptions(order=HeightOrder.ZERO_DECREASING)),
            ("rsm", RSMOptions(base_axis="row", fcp_miner="dminer")),
            ("parallel-cubeminer", ParallelOptions(n_workers=3, retries=5)),
            ("reference", ReferenceOptions()),
        ]
        for algorithm, options in cases:
            payload = options_to_dict(options)
            assert options_from_dict(algorithm, payload) == options

    def test_enum_serializes_as_string(self):
        from repro.options import options_to_dict

        payload = options_to_dict(CubeMinerOptions(order=HeightOrder.ORIGINAL))
        assert payload["order"] == "original"

    def test_unknown_key_rejected(self):
        from repro.options import options_from_dict

        with pytest.raises(ValueError, match="unknown option"):
            options_from_dict("cubeminer", {"no_such_knob": 1})

    def test_empty_payload_is_defaults(self):
        from repro.options import options_from_dict

        assert options_from_dict("rsm", {}) == RSMOptions()
