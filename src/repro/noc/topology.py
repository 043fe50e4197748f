"""Die-stack topology.

Maps logical node addresses onto physical positions in the 3-D stack (which
die, and where on that die) so that the bus can translate traffic into
optical channels with the right stack spans and horizontal distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Dict, List, Optional, Tuple

from repro.analysis.units import MM
from repro.photonics.stack import DieStack


@dataclass(frozen=True)
class NodeAddress:
    """A communication endpoint: a position on a specific die."""

    die: int
    x: float = 0.0
    y: float = 0.0

    def __post_init__(self) -> None:
        if self.die < 0:
            raise ValueError("die index must be non-negative")

    def horizontal_distance(self, other: "NodeAddress") -> float:
        """Euclidean in-plane distance to another node [m]."""
        return float(((self.x - other.x) ** 2 + (self.y - other.y) ** 2) ** 0.5)


class StackTopology:
    """Logical node layout over a physical die stack.

    ``nodes_per_die`` must be a positive integer and ``die_size`` a positive,
    finite length; a bool, a fraction (even a whole float) or NaN raises
    :class:`ValueError` here rather than failing in the layout.
    """

    def __init__(self, stack: DieStack, nodes_per_die: int = 1, die_size: float = 10.0 * MM) -> None:
        if isinstance(nodes_per_die, bool) or not isinstance(nodes_per_die, Integral):
            raise ValueError(f"nodes_per_die must be an integer, got {nodes_per_die!r}")
        if nodes_per_die <= 0:
            raise ValueError("nodes_per_die must be positive")
        # Written so that NaN fails it too.
        real = isinstance(die_size, Real) and not isinstance(die_size, bool)
        if not (real and 0 < die_size < math.inf):
            raise ValueError(f"die_size must be a positive, finite length, got {die_size!r}")
        self.stack = stack
        self.nodes_per_die = nodes_per_die
        self.die_size = die_size
        self._nodes: Dict[int, NodeAddress] = {}
        self._populate()

    def _populate(self) -> None:
        # Nodes are laid out on a square grid within each die.
        grid = int(math.ceil(math.sqrt(self.nodes_per_die)))
        pitch = self.die_size / max(grid, 1)
        node_id = 0
        for die in range(self.stack.die_count):
            for index in range(self.nodes_per_die):
                row, col = divmod(index, grid)
                self._nodes[node_id] = NodeAddress(
                    die=die,
                    x=(col + 0.5) * pitch,
                    y=(row + 0.5) * pitch,
                )
                node_id += 1

    # -- queries --------------------------------------------------------------
    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def node(self, node_id: int) -> NodeAddress:
        if node_id not in self._nodes:
            raise KeyError(f"unknown node {node_id}")
        return self._nodes[node_id]

    def nodes_on_die(self, die: int) -> List[int]:
        if not 0 <= die < self.stack.die_count:
            raise IndexError(f"die {die} outside the stack")
        return [node_id for node_id, address in self._nodes.items() if address.die == die]

    def dies_spanned(self, source: int, destination: int) -> int:
        """Number of die boundaries a vertical channel between two nodes crosses."""
        a = self.node(source)
        b = self.node(destination)
        return abs(a.die - b.die)

    def channel_transmission(self, source: int, destination: int,
                             temperature: Optional[float] = None) -> float:
        """Optical power transmission of the vertical path between two nodes."""
        a = self.node(source)
        b = self.node(destination)
        return self.stack.transmission(a.die, b.die, temperature)

    def horizontal_distance(self, source: int, destination: int) -> float:
        """In-plane distance between two nodes [m]."""
        return self.node(source).horizontal_distance(self.node(destination))

    def worst_case_pair(self) -> Tuple[int, int]:
        """The node pair with the weakest vertical transmission (longest span)."""
        bottom = self.nodes_on_die(0)[0]
        top = self.nodes_on_die(self.stack.die_count - 1)[0]
        return bottom, top
