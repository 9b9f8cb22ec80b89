"""Simulation backend selection: ``native`` (default), ``scalar``, ``turbo``.

The three backends are *byte-identical in results* — the golden suite
runs every scheme × workload pair under each, and a hypothesis
property compares scalar and native on random small systems — and
differ only in how the event loop executes:

* ``native`` — :class:`repro.sim.native.NativeSimulatedSystem`; the
  event loop (heap, trace issue, bank timing and tFAW, page policy,
  FR-FCFS/BLISS, RAA/RFM counting, refresh horizon) runs in a C
  extension compiled on first use, while every scheme tracker and
  ARR/RFM/auto-refresh application stay the Python objects, called
  from C (the hammer model's state stays on its Python object too).  A system with a non-stock (subclassed or
  patched) component, or with ``REPRO_PROBES`` on, runs the scalar
  drain instead (telemetry counter ``sim.native.delegated.<reason>``).
  A missing compiler or ``Python.h`` raises ``NativeBuildError``; there
  is no silent fallback.
* ``scalar`` — the reference implementation in
  :class:`repro.sim.system.SimulatedSystem`; pure python, runs
  anywhere, the patch-friendly path most unit tests exercise.
* ``turbo`` — :class:`repro.sim.turbo.TurboSimulatedSystem`; decodes
  traces into numpy structure-of-arrays and fuses the per-event call
  chain into an epoch-batched drain loop.

Selection: the ``backend=`` argument of
:func:`repro.sim.system.simulate` wins, else the
``REPRO_SIM_BACKEND`` environment variable, else ``native``.  Set
``REPRO_SIM_BACKEND=scalar`` to force the reference.

The backend is an implementation detail, **not** a result dimension:
job hashes and cache payloads are independent of it (asserted by
tests/unit/test_backend.py).
"""

from __future__ import annotations

import os
from typing import Optional

#: Environment variable consulted when no explicit backend is passed.
BACKEND_ENV = "REPRO_SIM_BACKEND"

SCALAR = "scalar"
TURBO = "turbo"
NATIVE = "native"
BACKENDS = (SCALAR, TURBO, NATIVE)


def resolve_backend(requested: Optional[str] = None) -> str:
    """The backend to run: explicit request > env var > native.

    Unknown names raise.
    """
    name = requested or os.environ.get(BACKEND_ENV) or NATIVE
    name = name.strip().lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown simulation backend {name!r}; "
            f"use one of {', '.join(BACKENDS)}"
        )
    return name


def prepare_backend() -> None:
    """Do the resolved backend's one-time per-process set-up.

    For ``native`` that is compiling (first use on this machine) and
    loading the C drain; callers that fork workers call this first, so
    the build happens once, in the parent, and every worker inherits
    the loaded module.  A failed build raises
    :class:`repro.sim.native.NativeBuildError` — never a silent
    fallback to another backend.
    """
    if resolve_backend() == NATIVE:
        from repro import telemetry
        from repro.sim.native.build import load, loaded

        if not loaded():
            with telemetry.span("sim.native.load"):
                load()
