"""Optical broadcast.

Because every die's SPAD watches the same vertical optical column, a single
transmitted pulse is received by *all* dies simultaneously — the capability
the paper highlights as missing from capacitive/inductive links.  The helper
here transmits one packet from a source die to every other die and reports
which receivers decoded it correctly, given that each receiver sees a
different attenuation (more intermediate silicon for farther dies).

The whole broadcast is **one ``(S, C)`` array pass**: receiver ``c`` is
channel ``c`` of a :func:`~repro.core.backend.make_link`-built
``"multichannel"`` link whose ``channel_gains`` carry the per-receiver stack
attenuations, and the packet's symbol stream is tiled across the channels so
every die decodes the full packet.  The link's seed follows the central
seed-derivation policy (:func:`~repro.simulation.randomness.split_seed`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.core.backend import make_link
from repro.core.config import LinkConfig
from repro.modulation.symbols import bit_matrix_to_ints, symbol_bit_errors
from repro.noc.packet import Packet
from repro.noc.topology import StackTopology
from repro.simulation.randomness import split_seed


def tile_symbols_for_receivers(
    padded_bits: np.ndarray, ppm_bits: int, channels: int
) -> np.ndarray:
    """Tile a symbol-aligned bit array across ``channels`` receiver channels.

    Each symbol row is repeated ``channels`` times so the round-robin stripe
    of the multichannel pass (flat symbol ``r*C + c`` is row ``r`` on channel
    ``c``) hands every receiver the full symbol stream.  The single
    definition of the broadcast channel layout — the bus's run flush and
    :func:`broadcast` both build their payloads through it.
    """
    rows = padded_bits.size // ppm_bits
    return np.repeat(padded_bits.reshape(rows, ppm_bits), channels, axis=0).ravel()


def per_receiver_bit_errors(
    padded_bits: np.ndarray,
    decoded_values: np.ndarray,
    ppm_bits: int,
    starts: np.ndarray,
    payload_bits: np.ndarray,
) -> np.ndarray:
    """Per-packet, per-receiver bit errors of one tiled broadcast transmission.

    ``padded_bits`` holds packets back to back as they went into
    :func:`tile_symbols_for_receivers` (packet ``p``'s padded bits start at
    bit ``starts[p]`` and carry ``payload_bits[p]`` bits), and
    ``decoded_values`` the pass's decoded symbols (flat symbol ``r*C + c`` is
    row ``r`` at receiver ``c``).  Returns ``(packets, C)`` counts, each over
    the packet's own bits (the zero padding of its final partial symbol is
    masked), as sums of :func:`~repro.modulation.symbols.symbol_bit_errors`.
    """
    values = bit_matrix_to_ints(padded_bits.reshape(-1, ppm_bits))
    per_receiver = decoded_values.reshape(values.size, -1).T
    errors = symbol_bit_errors(values, per_receiver, ppm_bits, payload_bits)
    return np.add.reduceat(errors, starts // ppm_bits, axis=1, dtype=np.int64).T


@dataclass
class BroadcastResult:
    """Per-receiver outcome of one broadcast transfer."""

    source: int
    receivers: Dict[int, bool] = field(default_factory=dict)
    bit_errors: Dict[int, int] = field(default_factory=dict)

    @property
    def delivered_count(self) -> int:
        return sum(1 for success in self.receivers.values() if success)

    @property
    def coverage(self) -> float:
        """Fraction of receivers that decoded the packet without errors.

        ``float("nan")`` when the broadcast reached no receivers (a
        single-die "stack" has nobody to talk to).
        """
        if not self.receivers:
            return float("nan")
        return self.delivered_count / len(self.receivers)

    def failed_receivers(self) -> List[int]:
        return sorted(node for node, success in self.receivers.items() if not success)


def broadcast(
    topology: StackTopology,
    source_node: int,
    packet: Packet,
    config: LinkConfig = LinkConfig(),
    emitted_photons: float = 2000.0,
    seed: int = 0,
) -> BroadcastResult:
    """Send ``packet`` from ``source_node`` to every other node of the stack.

    Each receiver sees the emitted pulse energy scaled by its own span
    transmission; success means the packet decoded with zero bit errors.
    All receivers are one ``(S, C)`` pass of a ``"multichannel"`` link.
    """
    if emitted_photons <= 0:
        raise ValueError("emitted_photons must be positive")
    if source_node >= topology.node_count:
        raise ValueError("source_node is not part of the topology")
    receivers = [node for node in range(topology.node_count) if node != source_node]
    result = BroadcastResult(source=source_node)
    if not receivers:
        return result
    gains = [topology.channel_transmission(source_node, node) for node in receivers]
    channels = len(receivers)
    k = config.ppm_bits
    padded = packet.padded_bits(k)
    link = make_link(
        config.with_detected_photons(emitted_photons),
        backend="multichannel",
        channels=channels,
        channel_gains=gains,
        seed=split_seed(seed, f"noc:broadcast:{source_node}"),
    )
    outcome = link.transmit_bits(tile_symbols_for_receivers(padded, k, channels))
    errors_per_receiver = per_receiver_bit_errors(
        padded, outcome.decoded_values, k, np.array([0]), np.array([packet.total_bits])
    )[0]
    for node, errors in zip(receivers, errors_per_receiver):
        result.receivers[node] = int(errors) == 0
        result.bit_errors[node] = int(errors)
    return result


def minimum_photons_for_full_coverage(
    topology: StackTopology,
    source_node: int,
    config: LinkConfig = LinkConfig(),
    candidate_levels=(100.0, 300.0, 1000.0, 3000.0, 10000.0, 30000.0),
    probe_payload_bits: int = 64,
    seed: int = 0,
) -> float:
    """Smallest emitted photon level (from ``candidate_levels``) reaching every die.

    Returns ``float('inf')`` when even the largest candidate level fails —
    the stack is too deep for a single-hop broadcast and needs repeaters.
    """
    probe = Packet(source=source_node, destination=0, payload=[1, 0] * (probe_payload_bits // 2))
    for level in sorted(candidate_levels):
        outcome = broadcast(
            topology,
            source_node,
            probe,
            config=config,
            emitted_photons=level,
            seed=seed,
        )
        if outcome.coverage == 1.0:
            return float(level)
    return float("inf")
