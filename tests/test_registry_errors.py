"""Error-path coverage for the router/device registries.

The happy paths live in ``tests/test_service.py``; this module pins down the
failure contract — *which* exception, with *what* message — because the HTTP
layer maps these onto 400 responses and the CLI onto exit code 2, so the
types are API.
"""

import pytest

from repro.compiler.stages import STAGES
from repro.mapping.trivial import TrivialRouter
from repro.service.registry import (DEVICES, ROUTERS, Registry, SpecError,
                                    build_device, build_router, device_spec)


class TestUnknownNames:
    def test_unknown_router_is_a_key_error_listing_known_names(self):
        with pytest.raises(KeyError, match="codar"):
            ROUTERS.normalize("tket")

    def test_unknown_device_is_a_key_error(self):
        with pytest.raises(KeyError, match="unknown device"):
            build_device("ibm_q999")

    def test_unknown_parametric_shape_is_not_parsed(self):
        # grid_2x (malformed) must not match the grid_RxC pattern.
        with pytest.raises(KeyError):
            device_spec("grid_2x")

    def test_describe_unknown_name_is_empty_not_an_error(self):
        assert ROUTERS.describe("definitely_not_registered") == ""

    def test_contains_rejects_non_strings(self):
        assert 42 not in ROUTERS
        assert None not in DEVICES


class TestDuplicateRegistration:
    def test_duplicate_raises_and_keeps_the_original(self):
        registry = Registry("router")
        registry.register("mine", TrivialRouter, "first")
        with pytest.raises(ValueError, match="already registered"):
            registry.register("mine", lambda: None, "second")
        assert registry.describe("mine") == "first"
        assert isinstance(registry.build("mine"), TrivialRouter)

    def test_dash_and_underscore_names_collide(self):
        # "my-router" and "my_router" canonicalise identically, so the
        # second registration is a duplicate, not a sibling.
        registry = Registry("router")
        registry.register("my-router", TrivialRouter)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("my_router", TrivialRouter)

    def test_overwrite_flag_replaces(self):
        registry = Registry("router")
        registry.register("mine", lambda: "old")
        registry.register("mine", lambda: "new", overwrite=True)
        assert registry.build("mine") == "new"


class TestBadParameters:
    def test_unknown_router_param_fails_in_the_factory_signature(self):
        with pytest.raises(TypeError, match="bogus_knob"):
            build_router({"name": "codar", "params": {"bogus_knob": 1}})

    def test_unknown_device_param_fails_loudly(self):
        with pytest.raises(TypeError):
            build_device({"name": "grid", "rows": 2, "cols": 2, "depth": 3})

    def test_missing_required_device_param(self):
        with pytest.raises(TypeError, match="cols"):
            build_device({"name": "grid", "rows": 2})

    def test_invalid_param_value_propagates(self):
        with pytest.raises(ValueError):
            build_device({"name": "line", "num_qubits": 0})

    def test_fixed_device_takes_no_params(self):
        with pytest.raises(TypeError):
            build_device({"name": "ibm_q20_tokyo", "params": {"rows": 2}})

    @pytest.mark.parametrize("registry, spec, words", [
        (ROUTERS, {"name": "sabre", "bogus_knob": 1},
         ["router 'sabre'", "'bogus_knob'", "decay_delta"]),
        (DEVICES, {"name": "grid", "rows": 2}, ["device 'grid'", "'cols'"]),
        (STAGES, {"name": "verify", "params": {"samples": 2}},
         ["stage 'verify'", "'samples'", "['strict']"]),
    ])
    def test_a_spec_off_the_signature_is_a_value_error_naming_it(
            self, registry, spec, words):
        with pytest.raises(ValueError) as caught:
            registry.build(spec)
        assert isinstance(caught.value, SpecError)
        assert all(word in str(caught.value) for word in words), caught.value

    def test_a_type_error_inside_the_factory_is_not_the_spec(self):
        def factory(value=1):
            return len(value)

        registry = Registry("thing")
        registry.register("broken", factory)
        with pytest.raises(TypeError) as caught:
            registry.build({"name": "broken", "value": 3})
        assert not isinstance(caught.value, SpecError)


class TestMalformedSpecs:
    def test_spec_dict_without_name(self):
        with pytest.raises(ValueError, match="'name' key"):
            ROUTERS.normalize({"params": {}})

    def test_spec_of_wrong_type(self):
        with pytest.raises(TypeError, match="router spec"):
            ROUTERS.normalize(42)
        with pytest.raises(TypeError, match="device spec"):
            DEVICES.normalize(["grid"])

    def test_customised_live_device_is_rejected_not_aliased(self):
        from repro.arch.devices import get_device
        from repro.arch.durations import GateDurationMap

        tuned = get_device("ibm_qx4").with_durations(
            GateDurationMap(single=2, two=5))
        with pytest.raises(ValueError, match="differs from the registered"):
            device_spec(tuned)
