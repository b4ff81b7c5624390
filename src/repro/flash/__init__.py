"""NAND-flash substrate with on-die compute.

This package models the flash side of Cambricon-LLM:

* :mod:`repro.flash.geometry` — channel / chip / die / plane / page hierarchy,
* :mod:`repro.flash.timing` — page read time (tR), channel bandwidth, etc.,
* :mod:`repro.flash.compute_core` — the per-die Compute Core (PEs + buffers),
* :mod:`repro.flash.address` — striping of weight pages across the hierarchy,
* :mod:`repro.flash.slicing` — the Slice Control policies of Section IV-C,
* :mod:`repro.flash.analytical` — closed-form steady-state throughput model,
* :mod:`repro.flash.simulator` — discrete-event single-channel simulator
  (the SSDsim substitute) that reproduces blocking/slicing behaviour and
  reports channel utilisation.
"""

from repro.flash.geometry import FlashGeometry
from repro.flash.timing import FlashTiming
from repro.flash.compute_core import ComputeCoreSpec
from repro.flash.address import PageAddress, WeightPageMap
from repro.flash.slicing import SlicePolicy, SliceControl
from repro.flash.analytical import FlashSteadyStateModel
from repro.flash.simulator import ChannelSimulationResult, ChannelSimulator

__all__ = [
    "FlashGeometry",
    "FlashTiming",
    "ComputeCoreSpec",
    "PageAddress",
    "WeightPageMap",
    "SlicePolicy",
    "SliceControl",
    "FlashSteadyStateModel",
    "ChannelSimulator",
    "ChannelSimulationResult",
]
