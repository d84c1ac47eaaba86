"""The compiled DES core: :class:`NativeEnvironment` over ``_speedups``.

This module imports ``repro.des._speedups`` (the optional C extension) and
wraps it in an :class:`~repro.des.engine.Environment` subclass whose
``timeout``/``schedule``/run-pump hot paths are compiled.  Importing it
raises :class:`ImportError` when the extension was never built — callers
must go through :func:`repro.des.engine.make_environment`, which probes
availability and falls back to the pure kernel (lint rule REP305 enforces
that seam for ``_speedups`` itself).

Semantics are identical to the pure kernel by construction — see the
header comment in ``_speedups.c`` and the pure×native identity matrix in
``tests/sim/test_native_identity.py``.
"""

from __future__ import annotations

from typing import Any, Union

from . import _speedups
from .engine import URGENT, Environment, _stop_simulation, _StopSimulation
from .errors import EmptySchedule, StopProcess
from .events import Event, Timeout
from .process import Process

__all__ = ["NativeEnvironment"]

# Hand the extension the kernel classes it manipulates: it constructs
# Timeout, drives Process generators, raises EmptySchedule, and catches
# StopProcess; done once at import so bind() can stay per-environment.
_speedups.install(Environment, Event, Timeout, Process, EmptySchedule, StopProcess)


class NativeEnvironment(Environment):
    """An :class:`Environment` whose hot paths run in the C extension.

    ``timeout``, ``schedule``, and the run pump are compiled callables
    bound to this environment's queue and id counter; everything else —
    event semantics, processes, resources, ``step()``, ``peek()`` — is the
    inherited pure-Python machinery operating on the same data structures,
    so the two cores interoperate freely on one queue.
    """

    __slots__ = ("timeout", "schedule", "_pump")

    #: Which kernel this environment's pump runs on (telemetry key).
    core = "native"

    def __init__(self, initial_time: float = 0.0):
        super().__init__(initial_time)
        self.timeout, self.schedule, self._pump = _speedups.bind(self)

    def run(self, until: Union[Event, float, None] = None) -> Any:
        # Until-setup is byte-for-byte the pure kernel's (engine.run).
        if until is not None and not isinstance(until, Event):
            at = float(until)
            if at < self._now:
                raise ValueError(f"until={at} lies in the past (now={self._now})")
            until = Event(self)
            until._ok = True
            until._value = None
            self.schedule(until, priority=URGENT, delay=at - self._now)

        if until is not None:
            if until.callbacks is None:
                # Already processed: just report its value.
                return until.value
            until.callbacks.append(_stop_simulation)

        try:
            self._pump()
        except _StopSimulation as stop:
            return stop.value
        except EmptySchedule:
            if until is not None and not until.triggered:
                raise RuntimeError(
                    "simulation ended before the awaited event fired"
                ) from None
            return None
        finally:
            self._flush_event_tally()
        return None  # pragma: no cover - pump only exits by exception
