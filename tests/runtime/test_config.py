"""Tests for the engine configuration layer and the telemetry spine.

Covers the frozen :class:`EngineConfig` (validation, JSON round-trip,
CLI derivation), the backend registry (every backend selectable by key,
all bit-identical), and the pluggable telemetry sinks.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.cli import build_parser
from repro.mpdata import random_state
from repro.mpdata.stages import FIELD_X
from repro.runtime import (
    BACKEND_KEYS,
    BACKENDS,
    EngineConfig,
    InMemorySink,
    JsonlSink,
    MpdataIslandSolver,
    StepEvent,
    TableSink,
    Telemetry,
    native_available,
)

SHAPE = (16, 12, 8)

needs_native = pytest.mark.skipif(
    not native_available(), reason="needs cffi and a system C compiler"
)


def _trajectory(config, steps=50, islands=2, telemetry=None):
    state = random_state(SHAPE, seed=7)
    with MpdataIslandSolver(
        SHAPE, islands, config=config, telemetry=telemetry
    ) as solver:
        return np.array(solver.run(state, steps), copy=True)


class TestEngineConfigValidation:
    def test_defaults(self):
        config = EngineConfig()
        assert config.backend == "interpreter"
        assert config.boundary == "periodic"
        assert config.dtype == "float64"
        assert config.numpy_dtype == np.dtype("float64")
        assert config.max_retries == 0

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            EngineConfig(backend="gpu")

    @pytest.mark.parametrize("sync_every", [0, 2])
    def test_sync_every_other_than_one_is_rejected(self, sync_every):
        with pytest.raises(ValueError, match="temporal blocking was removed"):
            EngineConfig(sync_every=sync_every)

    def test_sync_every_one_is_the_default_and_not_serialized(self):
        assert EngineConfig(sync_every=1) == EngineConfig()
        assert "sync_every" not in EngineConfig().to_dict()

    @pytest.mark.parametrize("key", ["compiled", "tiled"])
    def test_removed_backend_key_names_the_remaining_keys(self, key):
        with pytest.raises(
            ValueError, match="known: interpreter, native, procs"
        ):
            EngineConfig(backend=key)
        with pytest.raises(ValueError, match="known: interpreter, native$"):
            EngineConfig(backend="procs", procs_inner=key)

    def test_unknown_boundary_rejected(self):
        with pytest.raises(ValueError, match="boundary"):
            EngineConfig(boundary="reflecting")

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="max_retries"):
            EngineConfig(max_retries=-1)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        """``--threads 0`` is a parser error; the config agrees instead of
        clamping to one thread."""
        with pytest.raises(ValueError, match="threads must be at least 1"):
            EngineConfig(threads=threads)

    @pytest.mark.parametrize("backend", ["interpreter", "native"])
    def test_procs_inner_requires_procs_backend(self, backend):
        """``--procs-inner`` without ``--backend procs`` is a parser
        error; the config refuses the setting instead of ignoring it."""
        with pytest.raises(ValueError, match="procs_inner is a procs-backend"):
            EngineConfig(backend=backend, procs_inner="native")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dtype": "int32"},
            {"backend": "procs", "procs_inner": "native", "dtype": "float16"},
            {"backend": "native", "dtype": "float16"},
        ],
        ids=["int32", "procs-native-float16", "native-float16"],
    )
    def test_unsupported_dtype_rejected_at_construction(self, kwargs):
        with pytest.raises(ValueError, match="float64, float32"):
            EngineConfig(**kwargs)

    def test_accepted_dtypes_are_the_c_emitter_types(self):
        from repro.runtime.config import DTYPE_KEYS
        from repro.stencil.native import _C_TYPES

        assert {np.dtype(key).str for key in DTYPE_KEYS} == set(_C_TYPES)
        assert EngineConfig(dtype=np.float32).dtype == "float32"

    @needs_native
    def test_float32_bit_identical_on_interpreter_and_native(self):
        finals = [
            _trajectory(EngineConfig(backend=key, dtype="float32"), steps=5)
            for key in ("interpreter", "native")
        ]
        assert finals[0].dtype == np.float32
        np.testing.assert_array_equal(finals[0], finals[1])

    def test_bad_fault_spec_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(fault_specs=("nonsense",))

    def test_registry_matches_keys(self):
        assert set(BACKENDS) == set(BACKEND_KEYS)
        for key, backend_cls in BACKENDS.items():
            assert backend_cls.key == key


class TestEngineConfigRoundTrip:
    def test_to_dict_from_dict_identity(self):
        config = EngineConfig(
            backend="native",
            boundary="open",
            threads=2,
            dtype="float32",
            max_retries=3,
            fault_specs=("crash@island=0,step=1",),
            collect_timings=True,
        )
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_to_dict_is_json_safe(self):
        config = EngineConfig(backend="procs", workers=2, halo="exchange")
        assert EngineConfig.from_dict(
            json.loads(json.dumps(config.to_dict()))
        ) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises((TypeError, ValueError)):
            EngineConfig.from_dict({"backend": "interpreter", "gpu": True})

    @pytest.mark.parametrize(
        "key, value",
        [
            ("block_shape", [8, 8, 8]),
            ("intra_threads", 2),
            ("reuse_buffers", True),
            ("halo_threshold", None),
            ("halo_threshold", 64),
            ("retry_backoff", 0.0),
            ("retry_backoff_max", 30.0),
        ],
    )
    def test_removed_fields_are_refused_by_name(self, key, value):
        """Dicts written while the tiled backend, the naive mode, the
        hybrid halo policy and the retry backoff existed always carried
        these keys; they are refused loudly, never half-applied."""
        with pytest.raises(TypeError, match=key):
            EngineConfig(**{key: value})
        saved = dict(EngineConfig().to_dict(), **{key: value})
        with pytest.raises(ValueError, match=key):
            EngineConfig.from_dict(saved)

    @needs_native
    def test_cli_args_round_trip_same_behaviour(self):
        args = build_parser().parse_args(
            ["engine", "--shape", *map(str, SHAPE), "--islands", "2",
             "--backend", "native"]
        )
        config = EngineConfig.from_cli_args(args)
        assert config.backend == "native"
        assert config.max_retries == 0  # no fault flags -> retries stay off
        revived = EngineConfig.from_dict(config.to_dict())
        assert revived == config
        baseline = _trajectory(config, steps=5)
        again = _trajectory(revived, steps=5)
        assert np.array_equal(baseline, again)

    def test_cli_args_fault_flags_engage_retries(self):
        args = build_parser().parse_args(
            ["engine", "--faults", "crash@island=0,step=1",
             "--checkpoint-every", "2", "--retries", "4"]
        )
        config = EngineConfig.from_cli_args(args)
        assert config.max_retries == 4
        assert config.fault_specs == ("crash@island=0,step=1",)
        assert config.build_fault_injector() is not None


class TestConstructorKeywords:
    def test_unknown_kwarg_is_an_error(self):
        # The engine is configured through config= alone.
        for keyword in ("turbo", "compiled", "threads"):
            with pytest.raises(TypeError, match=keyword):
                MpdataIslandSolver(SHAPE, 2, **{keyword: True})


class TestBackendRegistryBitIdentical:
    def test_all_backends_bit_identical_over_50_steps(self):
        configs = {
            "interpreter": EngineConfig(backend="interpreter"),
            "procs": EngineConfig(backend="procs", workers=2),
            "native": EngineConfig(backend="native"),
        }
        assert set(configs) == set(BACKEND_KEYS)
        if not native_available():
            del configs["native"]
        finals = {key: _trajectory(cfg) for key, cfg in configs.items()}
        reference = finals["interpreter"]
        for key in finals:
            assert np.array_equal(finals[key], reference), key

    def test_steady_state_allocation_free_for_every_backend(self):
        for key in BACKEND_KEYS:
            if key == "native" and not native_available():
                continue
            config = EngineConfig(backend=key, reuse_output=True)
            state = random_state(SHAPE, seed=7)
            with MpdataIslandSolver(SHAPE, 2, config=config) as solver:
                arrays = solver._arrays(state)
                arrays[FIELD_X] = solver.runner.step(arrays)  # warm-up
                arrays[FIELD_X] = solver.runner.step(
                    arrays, changed={FIELD_X}
                )
                assert solver.last_step_stats.allocations == 0, key


@needs_native
class TestTelemetry:
    def test_disabled_by_default(self):
        telemetry = Telemetry()
        assert not telemetry.enabled
        assert telemetry.last_event is None

    def test_in_memory_sink_records_each_step(self):
        sink = InMemorySink()
        _trajectory(
            EngineConfig(backend="native", reuse_output=True), steps=4,
            telemetry=Telemetry((sink,)),
        )
        assert len(sink.events) == 4
        assert [event.step for event in sink.events] == [0, 1, 2, 3]
        assert sink.last.stats.allocations == 0  # steady after step 0
        assert sink.last.faults.injected_crashes == 0

    def test_in_memory_sink_capacity_bound(self):
        sink = InMemorySink(capacity=2)
        _trajectory(
            EngineConfig(backend="native", reuse_output=True), steps=5,
            telemetry=Telemetry((sink,)),
        )
        assert [event.step for event in sink.events] == [3, 4]

    def test_jsonl_sink_round_trips_events(self, tmp_path):
        path = tmp_path / "steps.jsonl"
        _trajectory(
            EngineConfig(backend="native", reuse_output=True), steps=3,
            telemetry=Telemetry((JsonlSink(path),)),
        )
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        payload = json.loads(lines[-1])
        assert payload["step"] == 2
        assert payload["allocations"] == 0

    def test_table_sink_renders_rows(self):
        sink = TableSink()
        _trajectory(
            EngineConfig(backend="native"), steps=2,
            telemetry=Telemetry((sink,)),
        )
        table = sink.render()
        assert "step" in table
        assert len(table.strip().splitlines()) >= 3  # header + 2 rows

    def test_table_sink_totals_and_summary(self):
        sink = TableSink()
        _trajectory(
            EngineConfig(backend="native"), steps=6,
            telemetry=Telemetry((sink,)),
        )
        assert sink.total_steps == 6
        assert sink.total_syncs == 6  # recompute: one barrier per step
        assert sink.summary() == "total: 6 steps, 6 syncs (1.000 syncs/step)"
        assert sink.summary() in sink.render()

    def test_event_dict_shape(self):
        sink = InMemorySink()
        _trajectory(
            EngineConfig(backend="native"), steps=1,
            telemetry=Telemetry((sink,)),
        )
        event = sink.last
        assert isinstance(event, StepEvent)
        payload = event.to_dict()
        assert {"step", "wall_seconds", "allocations", "faults"} <= set(
            payload
        )

    def test_retry_activity_lands_in_events(self):
        sink = InMemorySink()
        config = EngineConfig(
            backend="native",
            max_retries=2,
            fault_specs=("crash@island=0,step=1",),
        )
        faulty = _trajectory(config, steps=3, telemetry=Telemetry((sink,)))
        clean = _trajectory(replace(config, fault_specs=()), steps=3)
        assert np.array_equal(faulty, clean)
        by_step = {event.step: event for event in sink.events}
        assert by_step[1].faults.injected_crashes == 1
        assert by_step[1].faults.retries == 1
        assert by_step[0].faults.retries == 0
        assert by_step[2].faults.retries == 0
