"""Multi-chip interconnect substrate.

The paper's system-level promise is an "entirely optical through-chip bus that
could service hundreds of thinned stacked dies", supporting broadcast, optical
clock distribution and both vertical and horizontal buses.  This subpackage
provides the system-level pieces needed to exercise that promise: die-stack
topologies, packets, a time-slotted vertical optical bus with round-robin
arbitration and a broadcast primitive.
"""

from repro.noc.packet import Packet
from repro.noc.topology import NodeAddress, StackTopology
from repro.noc.bus import BusStatistics, OpticalBus, PacketOutcome
from repro.noc.broadcast import BroadcastResult, broadcast

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
