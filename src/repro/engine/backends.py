"""Pluggable march-simulation backends and their registry.

A *backend* runs one :class:`~repro.march.algorithm.MarchAlgorithm` against
one (possibly faulty) :class:`~repro.memory.SRAM` and returns the same
:class:`~repro.march.simulator.MarchResult` the reference simulator would --
failure records, clock cycles and final memory state included.  Two
backends ship:

``reference``
    The existing pure-Python :class:`~repro.march.simulator.MarchSimulator`,
    cell-by-cell and hook-accurate.  Always available; the oracle every
    other path is tested against.

``batched``
    The one vector path (:mod:`repro.engine.batched`, registered on import
    of :mod:`repro.engine`): same-geometry memories are stacked into one
    ``(n_mem, words, lanes)`` uint64 array and every march element is
    swept fleet-wide, with lowerable faults evaluated from a compiled
    fault table and the rest replayed behaviourally.  A raw single-memory
    run is a bucket of one.  Falls back to the reference for
    configurations the vector path cannot represent (decoder/column-mux
    faults, access tracing, stop-on-first-failure).

``auto`` selects ``batched`` when numpy is importable and ``reference``
otherwise.  The registry maps names to backend factories so user code can
plug in further implementations::

    from repro.engine import get_backend, register_backend

    backend = get_backend("auto")      # batched when numpy is available
    result = backend.run(memory, march_cw_nw(memory.bits))
"""

from __future__ import annotations

from typing import Callable

from repro.engine.packing import HAVE_NUMPY
from repro.march.algorithm import MarchAlgorithm
from repro.march.simulator import MarchResult, MarchSimulator
from repro.memory.sram import SRAM
from repro.util.validation import require


def vector_capable(memory: SRAM) -> bool:
    """Whether the bit-parallel paths can represent ``memory`` natively.

    The single source of truth for the vector precondition: an ideal
    address decoder and column mux, and no access tracing.  Shared by the
    batched backend's ``supports`` checks and its geometry planner, so a
    new capability condition only needs to land here.
    """
    return (
        not memory.trace
        and not memory.decoder.is_faulty
        and not memory.column_mux.is_faulty
    )


class MarchBackend:
    """Interface every march-simulation backend implements."""

    #: Registry name, set by subclasses.
    name = "abstract"

    def run(self, memory: SRAM, algorithm: MarchAlgorithm) -> MarchResult:
        """Apply ``algorithm`` to ``memory`` and collect failures."""
        raise NotImplementedError

    def supports(self, memory: SRAM) -> bool:
        """Whether this backend can run ``memory`` natively (no fallback)."""
        return True

    def supports_baseline(self, memory: SRAM) -> bool:
        """Whether the baseline serial replay can run ``memory`` natively.

        The baseline session runner
        (:mod:`repro.engine.baseline_session`) probes memories through the
        bi-directional serial interface rather than word-wide march ops;
        backends that cannot model that access path return ``False`` and
        the runner localizes those memories through the pure-Python scheme
        instead.
        """
        return False

    @classmethod
    def is_available(cls) -> bool:
        """Whether this backend's dependencies are importable."""
        return True


class ReferenceBackend(MarchBackend):
    """The pure-Python cell-by-cell reference simulator."""

    name = "reference"

    def __init__(self, stop_on_first_failure: bool = False) -> None:
        self._simulator = MarchSimulator(stop_on_first_failure)

    def run(self, memory: SRAM, algorithm: MarchAlgorithm) -> MarchResult:
        return self._simulator.run(memory, algorithm)

    def supports_baseline(self, memory: SRAM) -> bool:
        return True


# --------------------------------------------------------------------- #
# Registry                                                              #
# --------------------------------------------------------------------- #
_REGISTRY: dict[str, Callable[..., MarchBackend]] = {}


def register_backend(
    name: str, factory: Callable[..., MarchBackend], overwrite: bool = False
) -> None:
    """Register a backend factory under ``name``."""
    require(bool(name), "backend name must be non-empty")
    require(
        overwrite or name not in _REGISTRY,
        f"backend {name!r} is already registered",
    )
    _REGISTRY[name] = factory


def available_backends() -> dict[str, bool]:
    """Registered backend names mapped to their availability."""
    return {
        name: bool(getattr(factory, "is_available", lambda: True)())
        for name, factory in sorted(_REGISTRY.items())
    }


def get_backend(name: str = "auto", **kwargs) -> MarchBackend:
    """Instantiate a registered backend by name.

    ``auto`` selects the batched backend when numpy is importable and the
    reference otherwise, so callers can opt into speed without a hard
    dependency.
    """
    if name == "auto":
        name = "batched" if HAVE_NUMPY else "reference"
    require(name in _REGISTRY, f"unknown backend {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name](**kwargs)


def resolve_backend(backend: str | MarchBackend | None) -> MarchBackend:
    """Coerce a backend spec (name, instance or None) into an instance."""
    if backend is None:
        return get_backend("auto")
    if isinstance(backend, MarchBackend):
        return backend
    return get_backend(backend)


register_backend("reference", ReferenceBackend)
