"""The native simulation backend: the epoch drain in C.

:class:`NativeSimulatedSystem` builds exactly the Python components
:class:`~repro.sim.system.SimulatedSystem` builds — cores, per-bank
controllers, timing models, refresh engines, hammer models, schemes,
schedulers — and then runs the whole event loop in ``drain.c``: the
event heap, trace issue, bank timing and tFAW, page policy, FR-FCFS
and BLISS picks, RAA/RFM counting and the refresh horizon.  The parts
that carry RowHammer semantics stay the Python objects and are called
from C: every scheme's ``on_activate`` / ``throttle_release`` /
``rfm_needed_flag``, the controller's ARR, RFM and auto-refresh
application, and the hammer model's state.  So Mithril, Mithril+, PARFM, Graphene,
BlockHammer, PARA, CBT and TWiCe each keep a single source of truth.

Before the drain, :meth:`NativeSimulatedSystem._spec` reads the
components' initial state into plain tuples; afterwards
:meth:`~NativeSimulatedSystem._write_back` stores the final state on
the same objects (cores, bank timing, energy, RAA counters, channel
bus and tFAW window, BLISS streaks and blacklist), so
:meth:`~repro.sim.system.SimulatedSystem._collect` and anything
inspecting the components after a run read what the scalar backend
would leave.  Bank queues, the heap and the ``_bank_scheduled`` flags
are transient drain state and are not written back.

Delegation: the C drain is exact only for the stock components whose
logic it reimplements.  At ``run()`` the system snapshots them by type
identity (the object's class is exactly the stock class, and neither
that class nor the instance overrides any of its methods since import
— turbo's ``_unpatched`` check plus class-level patches).  When a
component is not stock, or when ``REPRO_PROBES`` is on, the system
runs the inherited Python drain instead and counts it as telemetry
counter ``sim.native.delegated.<reason>`` (``component`` or
``probes``).  Schemes are never checked: they are always called
through Python, so subclassed or patched ones run unchanged.  The same
holds for a non-stock hammer model; the stock single-distance one
runs inline in C, on its own Python dict and fields.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro import telemetry
from repro.dram.bank import BankTimingModel, FawTracker
from repro.dram.hammer import FlipEvent, HammerModel
from repro.dram.refresh import AutoRefreshEngine
from repro.mc.controller import BankController, ChannelState
from repro.mc.pagepolicy import (
    ClosedPagePolicy,
    MinimalistOpenPolicy,
    OpenPagePolicy,
)
from repro.mc.rfm import RaaCounter, RfmIssueLogic
from repro.mc.scheduler import BlissScheduler, FrFcfsScheduler
from repro.sim.core import TraceCore
from repro.sim.metrics import SimulationResult
from repro.sim.native.build import NativeBuildError, load
from repro.sim.system import SimulatedSystem

__all__ = ["NativeBuildError", "NativeSimulatedSystem", "load"]

_POLICIES = (OpenPagePolicy, ClosedPagePolicy, MinimalistOpenPolicy)
#: page-policy encoding of the drain (None: the controller's default)
_POLICY = {type(None): 0, OpenPagePolicy: 0, ClosedPagePolicy: 1,
           MinimalistOpenPolicy: 2}

_INT64_MAX = (1 << 63) - 1


def _methods(cls) -> Dict[str, object]:
    return {
        name: value for name, value in vars(cls).items()
        if callable(value) or isinstance(value, property)
    }


#: Import-time snapshot of every method the C drain reimplements or
#: relies on, per stock class.
_STOCK = {
    cls: _methods(cls)
    for cls in (
        SimulatedSystem, TraceCore, BankController, ChannelState,
        BankTimingModel, FawTracker, AutoRefreshEngine, OpenPagePolicy,
        ClosedPagePolicy, MinimalistOpenPolicy, RfmIssueLogic, RaaCounter,
        FrFcfsScheduler, BlissScheduler, HammerModel,
    )
}


def _class_stock(cls) -> bool:
    """No method of ``cls`` was replaced since import."""
    return all(vars(cls).get(name) is value
               for name, value in _STOCK[cls].items())


def _all_stock(objects, *classes) -> bool:
    """Every object is exactly one of ``classes`` (``None`` allowed when
    ``type(None)`` is listed), unpatched at class and instance level."""
    allowed = {cls for cls in classes if cls is type(None)
               or _class_stock(cls)}
    for obj in objects:
        cls = type(obj)
        if cls not in allowed:
            return False
        own = getattr(obj, "__dict__", None)
        if own and not own.keys().isdisjoint(_STOCK[cls]):
            return False
    return True


def _limit(max_cycles) -> Optional[int]:
    """``max_cycles`` as the drain's int64 bound (None: unbounded),
    keeping ``cycle > max_cycles`` exact for every integer cycle."""
    if max_cycles is None or max_cycles >= _INT64_MAX:
        return None
    return max(math.floor(max_cycles), -_INT64_MAX - 1)


class NativeSimulatedSystem(SimulatedSystem):
    """The scalar system with its event loop compiled (see module doc)."""

    def _build_core_flats(self, traces, num_banks):
        # The C drain reads bank indices from the entries as it issues;
        # a delegated run builds the scalar tables on demand.
        return None

    def delegation_reason(self) -> Optional[str]:
        """Why this system would run the Python drain, or None."""
        if self._probe is not None:
            return "probes"
        banks = self.banks
        timing = [controller.bank for controller in banks]
        rfm = [controller.rfm_logic for controller in banks]
        stock = (
            type(self) is NativeSimulatedSystem
            and _class_stock(SimulatedSystem)
            and vars(self).keys().isdisjoint(_STOCK[SimulatedSystem])
            and _all_stock(self.cores, TraceCore)
            and _all_stock(self._schedulers, FrFcfsScheduler,
                           BlissScheduler)
            and _all_stock(banks, BankController)
            and _all_stock(timing, BankTimingModel)
            and _all_stock((bank.faw for bank in timing), FawTracker,
                           type(None))
            and _all_stock((c.refresh for c in banks), AutoRefreshEngine)
            and _all_stock((c.channel_state for c in banks), ChannelState)
            and _all_stock((c.page_policy for c in banks), type(None),
                           *_POLICIES)
            and _all_stock(rfm, RfmIssueLogic, type(None))
            and _all_stock((r.raa for r in rfm if r is not None),
                           RaaCounter)
        )
        return None if stock else "component"

    def run(self, max_cycles: Optional[int] = None) -> SimulationResult:
        reason = self.delegation_reason()
        if reason is not None:
            if not self._ran:
                telemetry.counter(f"sim.native.delegated.{reason}")
                self._core_flats = SimulatedSystem._build_core_flats(
                    self, [core.trace for core in self.cores],
                    self.num_banks,
                )
            return super().run(max_cycles=max_cycles)
        if self._ran:
            raise RuntimeError("a SimulatedSystem can only run once")
        self._ran = True
        state = load().run(self._spec(), _limit(max_cycles))
        self._write_back(state)
        return self._collect()

    # ------------------------------------------------------------------

    def _spec(self) -> tuple:
        # the stock single-distance hammer model runs inline in C (on
        # its own dict); any other one is called
        hammers = [controller.hammer for controller in self.banks]
        inline_hammer = _all_stock(hammers, HammerModel) and all(
            hammer.blast_weights == (1.0,)
            and type(hammer._disturbance) is dict
            and type(hammer.flips) is list
            for hammer in hammers
        )
        channels: Dict[int, int] = {}
        faws: Dict[int, int] = {}
        channel_objs, faw_objs = [], []
        schedulers = {id(s): i for i, s in enumerate(self._schedulers)}
        banks = []
        for flat, controller in enumerate(self.banks):
            bank = controller.bank
            channel = controller.channel_state
            if id(channel) not in channels:
                channels[id(channel)] = len(channel_objs)
                channel_objs.append(channel)
            faw = bank.faw
            if faw is not None and id(faw) not in faws:
                faws[id(faw)] = len(faw_objs)
                faw_objs.append(faw)
            scheme = controller.scheme
            hammer = controller.hammer
            policy = controller.page_policy
            rfm = controller.rfm_logic
            banks.append((
                controller, bank, controller.refresh,
                None if hammer is None else hammer.on_activate,
                scheme.on_activate,
                None if controller.never_throttles()
                else scheme.throttle_release,
                scheme.rfm_needed_flag,
                bank.open_row, bank.ready_cycle, bank._last_act_cycle,
                bank.act_count, bank.pre_count, bank.access_count,
                (bank._trp, bank._trcd, bank._tcl, bank._tbl, bank._trc,
                 bank._tras),
                controller._consecutive_hits,
                controller.refresh.next_tick_cycle,
                channels[id(channel)],
                -1 if faw is None else faws[id(faw)],
                schedulers[id(self._schedulers[self._bank_channel[flat]])],
                _POLICY[type(policy)],
                getattr(policy, "burst_limit", 0),
                None if rfm is None else (
                    rfm.raa.rfm_th, rfm.mrr_gated, rfm.raa.value,
                    rfm.rfm_issued, rfm.rfm_elided, rfm.mrr_reads,
                ),
                hammer if inline_hammer else None,
            ))
        #: the distinct channel states and tFAW windows, in spec order,
        #: for _write_back
        self._shared = (channel_objs, faw_objs)
        cores = tuple(
            (core.trace.entries, core.index, core.outstanding_reads,
             core.next_issue_cycle, core.stalled_on_mlp, core.reads_issued,
             core.writes_issued, core.mlp)
            for core in self.cores
        )
        return (
            cores,
            tuple(banks),
            tuple(channel.bus_free_cycle for channel in channel_objs),
            tuple((faw.window, faw.tfaw_cycles, list(faw._recent))
                  for faw in faw_objs),
            tuple(
                (type(s) is BlissScheduler,
                 getattr(s, "blacklist_threshold", 0),
                 getattr(s, "blacklist_cycles", 0),
                 getattr(s, "_last_core", None),
                 getattr(s, "_streak", 0),
                 getattr(s, "_blacklist_until", {}))
                for s in self._schedulers
            ),
            self._seq,
            FlipEvent,
        )

    def _write_back(self, state: tuple) -> None:
        (cores, banks, buses, faws, schedulers, row_hits, row_misses, seq,
         served, last_completion) = state
        for core, values in zip(self.cores, cores):
            (core.index, core.outstanding_reads, core.next_issue_cycle,
             stalled, core.reads_issued, core.writes_issued) = values
            core.stalled_on_mlp = bool(stalled)
        for controller, values in zip(self.banks, banks):
            bank = controller.bank
            energy = controller.energy
            (bank.open_row, bank.ready_cycle, bank._last_act_cycle,
             bank.act_count, bank.pre_count, bank.access_count,
             controller._consecutive_hits, reads, writes, acts, pres,
             raa_value, rfm_issued, rfm_elided, mrr_reads) = values
            energy.reads += reads
            energy.writes += writes
            energy.acts += acts
            energy.pres += pres
            rfm = controller.rfm_logic
            if rfm is not None:
                rfm.raa.value = raa_value
                rfm.rfm_issued = rfm_issued
                rfm.rfm_elided = rfm_elided
                rfm.mrr_reads = mrr_reads
                if acts and mrr_reads > energy.mrr_commands:
                    # MRR energy is accounted once per read
                    energy.mrr_commands = mrr_reads
        channel_objs, faw_objs = self._shared
        for channel, bus in zip(channel_objs, buses):
            channel.bus_free_cycle = bus
        for faw, recent in zip(faw_objs, faws):
            faw._recent.clear()
            faw._recent.extend(recent)
        for scheduler, (last_core, streak, listed) in zip(
            self._schedulers, schedulers
        ):
            if type(scheduler) is BlissScheduler:
                scheduler._last_core = last_core
                scheduler._streak = streak
                scheduler._blacklist_until.update(listed)
        self.row_hits += row_hits
        self.row_misses += row_misses
        self._seq = seq
        self._core_served = served
        self._core_last_completion = last_completion
