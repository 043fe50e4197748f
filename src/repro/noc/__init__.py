"""Multi-chip interconnect substrate.

The paper's system-level promise is an "entirely optical through-chip bus that
could service hundreds of thinned stacked dies", supporting broadcast, optical
clock distribution and both vertical and horizontal buses.  This subpackage
provides the system-level pieces needed to exercise that promise: die-stack
topologies, packets, a time-slotted vertical optical bus with round-robin
arbitration and a broadcast primitive.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy.exports(__name__, {
    ".packet": ("Packet",),
    ".topology": ("NodeAddress", "StackTopology"),
    ".bus": ("BusStatistics", "OpticalBus", "PacketOutcome"),
    ".broadcast": ("BroadcastResult", "broadcast"),
})

__all__ = [
    "Packet",
    "NodeAddress",
    "StackTopology",
    "OpticalBus",
    "BusStatistics",
    "PacketOutcome",
    "broadcast",
    "BroadcastResult",
]
