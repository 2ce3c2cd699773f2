"""Pluggable router-backend registry.

A *backend* supplies the numeric inner loops the routers run on (see
:mod:`repro.compiler.backends.base`).  Backends register here by name and are
selected per job / per pipeline route stage / per portfolio candidate via the
optional ``backend`` field — which joins the content-addressed keys **only
when set**, so every pre-backend key (and its cache entries) stays
byte-stable.

Built-ins:

* ``python`` — scalar scoring by delta, each candidate SWAP scored only on
  the gates it moves (default),
* ``numpy``  — vectorized gathers over the cached DeviceAnalysis matrices.

Both must equal the full-recompute reference functions
:func:`~repro.mapping.codar.priority.swap_priority` and
:func:`~repro.mapping.sabre.heuristic.sabre_score` bit for bit.

The registry follows the idiom of accelerated-implementation registries in
simulator codebases (a uniform interface with optional fast backends): a
future native or GPU backend is one ``register_backend`` call away and needs
no router changes.
"""

from __future__ import annotations

import threading
from typing import Callable

from repro.compiler.backends.base import RouterBackend
from repro.compiler.backends.numpy import NumpyBackend
from repro.compiler.backends.python import PythonBackend

#: The backend used when a job/stage/candidate does not name one.
DEFAULT_BACKEND = "python"

_lock = threading.Lock()
_factories: dict[str, Callable[[], RouterBackend]] = {}  #: guarded by _lock
_descriptions: dict[str, str] = {}  #: guarded by _lock
_instances: dict[str, RouterBackend] = {}  #: guarded by _lock


def register_backend(name: str, factory: Callable[[], RouterBackend],
                     description: str = "", *,
                     overwrite: bool = False) -> None:
    """Register a backend factory under ``name``.

    ``factory`` is called lazily (once) on first :func:`get_backend`;
    re-registering an existing name raises unless ``overwrite=True``.
    """
    if not name or not isinstance(name, str):
        raise ValueError("backend name must be a non-empty string")
    with _lock:
        if name in _factories and not overwrite:
            raise ValueError(f"backend {name!r} is already registered "
                             "(pass overwrite=True to replace it)")
        _factories[name] = factory
        _descriptions[name] = description
        _instances.pop(name, None)


def get_backend(name: "str | None" = None) -> RouterBackend:
    """The (singleton) backend instance for ``name`` (default when ``None``)."""
    name = name or DEFAULT_BACKEND
    with _lock:
        instance = _instances.get(name)
        if instance is None:
            factory = _factories.get(name)
            if factory is None:
                raise ValueError(f"unknown backend {name!r}; "
                                 f"known: {sorted(_factories)}")
            instance = factory()
            _instances[name] = instance
        return instance


def has_backend(name: str) -> bool:
    with _lock:
        return name in _factories


def backend_names() -> list[str]:
    with _lock:
        return sorted(_factories)


def list_backends() -> dict[str, str]:
    """``{name: description}`` for every registered backend."""
    with _lock:
        return {name: _descriptions.get(name, "")
                for name in sorted(_factories)}


register_backend("python", PythonBackend,
                 "scalar swap scoring by delta (default)")
register_backend("numpy", NumpyBackend,
                 "vectorized swap scoring over cached DeviceAnalysis arrays")
