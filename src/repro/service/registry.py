"""Named, parameterized registries for routers and devices.

Batch jobs (:mod:`repro.service.jobs`) describe their router and target device
with *specs* — a registered name or a ``{"name": ..., "params": {...}}`` dict —
instead of live objects, so a job can cross a process boundary, be hashed into
a cache key and be replayed later.  The registries turn specs back into
objects:

>>> build_router("codar").name
'codar'
>>> build_device({"name": "grid", "params": {"rows": 2, "cols": 3}}).num_qubits
6

Both registries are extensible at runtime (``ROUTERS.register(...)``), in the
spirit of pluggable hardware cost-model registries: an experiment can register
a custom router variant under a new name and submit jobs against it without
touching the service code.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import re
from typing import Any, Callable, Mapping

from repro.arch.devices import Device, get_device, list_devices
from repro.mapping.astar.remapper import AStarConfig, AStarRouter
from repro.mapping.base import Router
from repro.mapping.codar.noise_aware import NoiseAwareCodarRouter, NoiseAwareConfig
from repro.mapping.codar.remapper import CodarConfig, CodarRouter
from repro.mapping.sabre.remapper import SabreConfig, SabreRouter
from repro.mapping.trivial import TrivialRouter


class SpecError(ValueError, TypeError):
    """A spec passes a parameter its factory does not take, or leaves out
    one it needs.

    A :class:`ValueError`, so the CLI and the servers report it as a user
    error; also a :class:`TypeError`, which the factory call raised before.
    """


class Registry:
    """A name → factory table with canonical spec normalisation.

    A *spec* is either a registered name (``"codar"``) or a mapping with a
    ``"name"`` key and optional parameters, given inline or under
    ``"params"``.  :meth:`normalize` collapses both forms into the canonical
    ``{"name": str, "params": dict}`` shape used for hashing, and
    :meth:`build` calls the registered factory with the params as keyword
    arguments; parameters that do not fit the factory's signature raise a
    :class:`SpecError` naming them.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._factories: dict[str, Callable[..., Any]] = {}
        self._descriptions: dict[str, str] = {}

    # ------------------------------------------------------------------ #
    def register(self, name: str, factory: Callable[..., Any],
                 description: str = "", overwrite: bool = False) -> None:
        name = self._canonical_name(name)
        if name in self._factories and not overwrite:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._factories[name] = factory
        self._descriptions[name] = description

    def names(self) -> list[str]:
        return sorted(self._factories)

    def describe(self, name: str) -> str:
        return self._descriptions.get(self._canonical_name(name), "")

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and self._canonical_name(name) in self._factories

    @staticmethod
    def _canonical_name(name: str) -> str:
        return name.replace("-", "_").strip()

    # ------------------------------------------------------------------ #
    def normalize(self, spec: str | Mapping) -> dict:
        """Canonicalise a spec into ``{"name": str, "params": dict}``."""
        if isinstance(spec, str):
            name, params = self._canonical_name(spec), {}
        elif isinstance(spec, Mapping):
            data = dict(spec)
            if "name" not in data:
                raise ValueError(f"{self.kind} spec needs a 'name' key: {spec!r}")
            name = self._canonical_name(str(data.pop("name")))
            params = dict(data.pop("params", {}))
            params.update(data)  # inline parameters are also accepted
        else:
            raise TypeError(f"cannot interpret {spec!r} as a {self.kind} spec")
        if name not in self._factories:
            raise KeyError(f"unknown {self.kind} {name!r}; known: {self.names()}")
        return {"name": name, "params": params}

    def key(self, spec: str | Mapping) -> str:
        """Stable canonical-JSON form of a spec (used for cache keys)."""
        return json.dumps(self.normalize(spec), sort_keys=True)

    def build(self, spec: str | Mapping) -> Any:
        normalized = self.normalize(spec)
        name, params = normalized["name"], normalized["params"]
        factory = self._factories[name]
        try:
            return factory(**params)
        except TypeError:
            # Only a spec that does not fit the signature is the caller's
            # fault; any other TypeError is the factory's own.
            signature = inspect.signature(factory)
            try:
                signature.bind(**params)
            except TypeError as exc:
                raise SpecError(
                    f"{self.kind} {name!r}: {exc}; its parameters: "
                    f"{list(signature.parameters)}") from None
            raise


# --------------------------------------------------------------------------- #
# Router registry
# --------------------------------------------------------------------------- #
def _config_factory(router_cls: type, config_cls: type) -> Callable[..., Router]:
    """A factory building ``router_cls`` from the fields of its config
    dataclass, whose signature it takes on (so a bad parameter is named)."""
    def factory(**params) -> Router:
        return router_cls(config=config_cls(**params))

    factory.__signature__ = inspect.signature(config_cls)
    return factory


ROUTERS = Registry("router")
ROUTERS.register("codar", _config_factory(CodarRouter, CodarConfig),
                 "context-sensitive duration-aware remapper (the paper)")
ROUTERS.register("codar_noise_aware",
                 _config_factory(NoiseAwareCodarRouter, NoiseAwareConfig),
                 "CODAR with per-edge fidelity filtering")
ROUTERS.register("sabre", _config_factory(SabreRouter, SabreConfig),
                 "SWAP-based bidirectional heuristic")
ROUTERS.register("astar", _config_factory(AStarRouter, AStarConfig),
                 "layer-by-layer A* search")
ROUTERS.register("trivial", lambda: TrivialRouter(),
                 "shortest-path SWAP chains")


def router_spec(router: str | Mapping | Router) -> dict:
    """Canonical spec for a router name, spec dict or live :class:`Router`.

    A live router is identified by its registered ``name`` and, as params,
    the fields of its ``config`` dataclass that differ from their defaults:
    every registered factory takes exactly those fields, so the spec
    rebuilds the same router, and a default router keeps the bare-name spec
    (and the job keys) it always had.
    """
    if isinstance(router, Router):
        config = getattr(router, "config", None)
        params = {} if not dataclasses.is_dataclass(config) else {
            field.name: getattr(config, field.name)
            for field in dataclasses.fields(config)
            if getattr(config, field.name) != field.default}
        return ROUTERS.normalize({"name": router.name, "params": params})
    return ROUTERS.normalize(router)


def build_router(spec: str | Mapping | Router) -> Router:
    if isinstance(spec, Router):
        return spec
    return ROUTERS.build(spec)


# --------------------------------------------------------------------------- #
# Device registry
# --------------------------------------------------------------------------- #
DEVICES = Registry("device")
for _name in list_devices():
    DEVICES.register(_name, lambda _n=_name: get_device(_n),
                     get_device(_name).description)
DEVICES.register("grid", lambda rows, cols: get_device("grid", rows=rows, cols=cols),
                 "parametric rows x cols square lattice")
DEVICES.register("line", lambda num_qubits: get_device("line", num_qubits=num_qubits),
                 "parametric qubit chain")
DEVICES.register("ring", lambda num_qubits: get_device("ring", num_qubits=num_qubits),
                 "parametric qubit ring")

#: Names the parametric families stamp onto their devices ("grid_2x3",
#: "line_8", "ring_5"); parsed back into specs so a Device built outside the
#: registry still round-trips through a job description.
_GRID_NAME = re.compile(r"^grid_(\d+)x(\d+)$")
_LINE_NAME = re.compile(r"^line_(\d+)$")
_RING_NAME = re.compile(r"^ring_(\d+)$")


def _same_device_model(device: Device, built: Device) -> bool:
    """True when ``device`` is behaviourally the registry's model: identical
    coupling and gate timings (the two inputs every router consumes)."""
    ours, theirs = device.durations, built.durations
    return (device.num_qubits == built.num_qubits
            and device.coupling.edges == built.coupling.edges
            and (ours.single, ours.two, ours.swap, ours.measure, ours.overrides)
            == (theirs.single, theirs.two, theirs.swap, theirs.measure,
                theirs.overrides))


def device_spec(device: str | Mapping | Device) -> dict:
    """Canonical spec for a device name, spec dict or live :class:`Device`.

    A live device is identified by its name, but only when it actually
    matches the registry's model for that name — a customized instance
    (e.g. :meth:`Device.with_durations`) raises instead of being silently
    swapped for the stock device.
    """
    if isinstance(device, Device):
        spec = device_spec(device.name)
        if not _same_device_model(device, DEVICES.build(spec)):
            raise ValueError(
                f"device {device.name!r} differs from the registered model of "
                "that name; describe it with a spec dict or route it directly")
        return spec
    name = device
    if isinstance(name, str) and name not in DEVICES:
        if match := _GRID_NAME.match(name):
            return DEVICES.normalize({"name": "grid",
                                      "rows": int(match.group(1)),
                                      "cols": int(match.group(2))})
        if match := _LINE_NAME.match(name):
            return DEVICES.normalize({"name": "line",
                                      "num_qubits": int(match.group(1))})
        if match := _RING_NAME.match(name):
            return DEVICES.normalize({"name": "ring",
                                      "num_qubits": int(match.group(1))})
    return DEVICES.normalize(name)


def build_device(spec: str | Mapping | Device) -> Device:
    if isinstance(spec, Device):
        return spec
    return DEVICES.build(device_spec(spec))
