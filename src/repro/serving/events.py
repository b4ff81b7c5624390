"""The event kinds of the simulator's event loop, and their total order.

The event loop (:func:`repro.fleet.simulator._run`, which
:func:`repro.serving.simulator.simulate` runs over a single device)
advances a virtual clock over device-occupancy completions and request
arrivals, followed by the planning opportunities they create; runs with
fault handling armed (:mod:`repro.faults.engine`) add per-device fault
transitions (crash/recover/slowdown).  The loop keeps its pending events
in a ``heapq`` of ``(time, kind, index, seq)`` tuples, which it owns
outright along with the push/pop/depth counters it reports.  Arrivals
stay outside the heap (workload generators emit them already sorted; the
loop merges the stream head against the heap's head), so the heap holds
the in-flight occupancy completions — at most one per busy device —
plus, on fault-injected runs, at most one upcoming fault transition per
device.

The event-ordering contract
---------------------------

Determinism — byte-identical trace CSVs under a fixed seed, coalesced or
not — rests on a total order over simultaneous events, which the heap
tuples encode:

1. ``time``: virtual seconds; earlier events first.
2. ``kind``: at equal times, :data:`COMPLETION` (0) sorts before
   :data:`FAULT` (1) sorts before :data:`ARRIVAL` (2) sorts before
   :data:`PLANNING` (3).  Completions due *now* are stamped before a
   simultaneous fault transition applies (an occupancy ending at the
   crash instant still counts — its tokens were produced), faults apply
   before new arrivals are routed (an arrival at the crash instant
   already sees the device down, so health-aware routing steers around
   it), and arrivals are delivered before idle devices plan.
3. ``index``: at equal (time, kind), the smaller device index wins —
   the loop's "device order is the tie-break" rule.
4. ``seq``: a monotonic push counter, making the order total (and stable
   for repeated pushes of the same (time, kind, index)) without ever
   comparing payloads.

The loop pops everything due at one instant in this order, and planning
passes run over the touched-device set in ascending index order.  A
fault transition scheduled while the faults due at an instant apply
joins the heap only after they all have, so one due at that same
instant waits for the next loop pass.  Client retries re-enter through
the *arrival* stage (a retry heap merged against the workload stream,
source arrivals first at equal timestamps), so a retry landing on an
existing event time slots into the same total order as any other
arrival.
"""

#: Event kinds, in tie-break order (see the module docstring).
COMPLETION = 0
FAULT = 1
ARRIVAL = 2
PLANNING = 3
