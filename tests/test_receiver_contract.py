"""The receiver's per-symbol contract, shared by every backend.

A :class:`~repro.core.link.TransmissionResult` reports each symbol's decoded
value (``decoded_values``) and its bit errors over payload positions
(``symbol_bit_errors``), and every consumer counts from these.  The batch
engines unpack ``received_bits`` from the decoded values only when read.
These tests hold the per-symbol fields to the bit arrays, and the bit arrays
and counts to values pinned from the engines' earlier eager unpack.  They
also hold the one counter, :func:`~repro.modulation.symbols.symbol_bit_errors`,
and the broadcast's per-receiver split to the bit-level cumulative sums they
replaced.
"""

import hashlib

import numpy as np
import pytest

from repro.analysis.units import PS
from repro.core.backend import make_link
from repro.core.config import LinkConfig
from repro.core.link import TransmissionResult
from repro.modulation.symbols import bit_matrix_to_ints, ints_to_bit_matrix, symbol_bit_errors
from repro.noc.broadcast import per_receiver_bit_errors, tile_symbols_for_receivers
from repro.photonics.crosstalk import CrosstalkModel

# Jitter-limited links (100 ps slots): many errors are one-slot misses, so a
# final partial symbol often errs in its padding bits only.
K4 = LinkConfig(ppm_bits=4, slot_duration=100 * PS, mean_detected_photons=30.0)
K3 = LinkConfig(ppm_bits=3, slot_duration=100 * PS, mean_detected_photons=30.0)

CASES = {
    "batch": (K4, {"backend": "batch"}),
    "batch-k3": (K3, {"backend": "batch"}),
    # 24 or 25 symbols on 4 channels, 32 or 33 on 5: grid padding both ways.
    "multichannel-crosstalk": (
        K4,
        {"backend": "multichannel", "channels": 4, "crosstalk": CrosstalkModel(channel_pitch=15e-6)},
    ),
    "multichannel-gains": (
        K3,
        {"backend": "multichannel", "channels": 5, "channel_gains": [1.0, 0.5, 2.0, 0.8, 1.5]},
    ),
}

#: (seed, case, payload bits) -> (received_bits digest, bit_errors,
#: symbol_errors), as the engines gave them when they unpacked every
#: decoded symbol eagerly.  96 bits are whole symbols for K = 3 and 4; 98
#: bits leave a partial final symbol for both.
PINNED = {
    (1, "batch", 96): ("c41bce8f3c4d", 21, 13),
    (1, "batch-k3", 96): ("5cfee6db4b11", 17, 13),
    (1, "multichannel-crosstalk", 96): ("4e628bd9ae04", 27, 16),
    (1, "multichannel-gains", 96): ("73e65c1d90df", 30, 21),
    (1, "batch", 98): ("c5846cb25fd9", 23, 13),
    (1, "batch-k3", 98): ("bd446b10428a", 16, 12),
    (1, "multichannel-crosstalk", 98): ("ae1e2f85dd95", 38, 19),
    (1, "multichannel-gains", 98): ("8e02117ac159", 30, 22),
    (4, "batch", 96): ("586ebadce560", 25, 16),
    (4, "batch-k3", 96): ("b6cf4ae283e5", 23, 13),
    (4, "multichannel-crosstalk", 96): ("3b145d58d643", 41, 19),
    (4, "multichannel-gains", 96): ("95bfdca43b47", 19, 13),
    (4, "batch", 98): ("aaefb3fc377c", 23, 13),
    (4, "batch-k3", 98): ("6a3196c2e770", 20, 12),
    (4, "multichannel-crosstalk", 98): ("c0341eac6050", 42, 20),
    (4, "multichannel-gains", 98): ("1b22b8ca4577", 19, 13),
}

#: At seed 1 every backend's final (partial) symbol decodes wrong in its
#: padding bits only: no payload bit error, yet a symbol error.
PADDING_ONLY_ERRORS = {(1, name, 98) for name in CASES}


def padded_values(bits, width):
    padded = np.zeros(-(-len(bits) // width) * width, dtype=np.int64)
    padded[: len(bits)] = bits
    return bit_matrix_to_ints(padded.reshape(-1, width))


def bitwise_symbol_errors(sent, received, width):
    """Per-symbol mismatch counts of two payload bit arrays (the old way)."""
    mismatches = np.zeros(-(-len(sent) // width) * width, dtype=bool)
    mismatches[: len(sent)] = np.asarray(sent) != np.asarray(received)
    return np.count_nonzero(mismatches.reshape(-1, width), axis=1)


def check_per_symbol_fields(result, width):
    sent = np.asarray(result.transmitted_bits)
    received = np.asarray(result.received_bits)
    assert received.dtype == np.uint8 and received.shape == sent.shape
    expected = bitwise_symbol_errors(sent, received, width)
    assert np.array_equal(result.symbol_bit_errors, expected)
    assert result.bit_errors == int(result.symbol_bit_errors.sum()) == int(expected.sum())
    # symbol_errors counts every symbol decoded to another value, the final
    # partial symbol's padding bits included.
    values = padded_values(sent, width)
    assert result.symbol_errors == np.count_nonzero(result.decoded_values != values)
    assert np.array_equal(
        received, ints_to_bit_matrix(result.decoded_values, width).ravel()[: sent.size]
    )


class TestReceiverContract:
    @pytest.mark.parametrize("seed, name, bits", list(PINNED))
    def test_per_symbol_fields_agree_with_the_bits(self, seed, name, bits):
        config, options = CASES[name]
        link = make_link(config, seed=seed, **options)
        payload = np.random.default_rng(seed).integers(0, 2, bits)
        result = link.transmit_bits(payload)
        width = config.ppm_bits
        assert result.bits_per_symbol == width
        assert result.symbols_sent == result.decoded_values.size == -(-bits // width)
        assert "received_bits" not in vars(result)  # not unpacked yet
        digest, bit_errors, symbol_errors = PINNED[seed, name, bits]
        received = np.asarray(result.received_bits)
        assert hashlib.sha256(received.tobytes()).hexdigest()[:12] == digest
        assert (result.bit_errors, result.symbol_errors) == (bit_errors, symbol_errors)
        check_per_symbol_fields(result, width)
        if (seed, name, bits) in PADDING_ONLY_ERRORS:
            assert result.symbol_bit_errors[-1] == 0
            assert result.decoded_values[-1] != padded_values(payload, width)[-1]
        if options["backend"] == "multichannel":
            # Symbol i rode channel i % C; the final symbol's zero padding is
            # no payload of its channel.
            channels = options["channels"]
            symbol_bits = np.minimum(width, bits - width * np.arange(result.symbols_sent))
            assert result.channel_bits.tolist() == [
                int(symbol_bits[c::channels].sum()) for c in range(channels)
            ]
            assert result.channel_bit_errors.tolist() == [
                int(result.symbol_bit_errors[c::channels].sum()) for c in range(channels)
            ]
            assert result.channel_bit_errors.sum() == result.bit_errors

    def test_a_result_given_bits_derives_the_per_symbol_fields(self):
        # A hand-built result (a third-party backend's, say) gives bits only.
        result = _result([0, 1, 1, 0, 1, 1, 0], [0, 1, 0, 0, 1, 0, 1], symbols=3, width=3)
        assert result.decoded_values.tolist() == [2, 2, 4]  # padding read as zeros
        assert result.symbol_bit_errors.tolist() == [1, 1, 1]
        assert result.bit_errors == 3

    def test_bits_per_symbol_defaults_to_what_the_counts_imply(self):
        result = _result([0, 1, 1, 0, 1, 1, 0, 0], [0, 1, 0, 0, 1, 1, 0, 1], symbols=2)
        assert result.bits_per_symbol == 4
        assert result.symbol_bit_errors.tolist() == [1, 1]

    def test_unequal_bit_streams_are_refused(self):
        with pytest.raises(ValueError, match="same length"):
            _result([0, 1, 1, 0], [0, 1, 1], symbols=1)

    def test_a_result_needs_received_bits_or_decoded_values(self):
        with pytest.raises(ValueError, match="received_bits or decoded_values"):
            _result([0, 1, 1, 0], None, symbols=1)


def _result(sent, received, symbols, width=None):
    return TransmissionResult(
        transmitted_bits=np.asarray(sent, dtype=np.uint8),
        received_bits=None if received is None else np.asarray(received, dtype=np.uint8),
        symbols_sent=symbols,
        symbol_errors=0,
        detection_counts={},
        elapsed_time=1e-9,
        bits_per_symbol=width,
    )


def random_rows(rng, width, rows):
    """Rows of 1–90 payload bits, zero-padded to whole symbols, back to back,
    with their bit starts and payload sizes."""
    bits = rng.integers(1, 91, rows)
    widths = -(-bits // width) * width
    starts = np.concatenate([[0], np.cumsum(widths)[:-1]])
    padded = np.zeros(int(widths.sum()), dtype=np.uint8)
    for start, count in zip(starts, bits):
        padded[start : start + count] = rng.integers(0, 2, count)
    return padded, starts, bits


def received_values(rng, values, width, shape):
    """Decoded values: a third right, the rest uniform over the symbol space."""
    decoded = rng.integers(0, 1 << width, shape)
    keep = rng.random(shape) < 1 / 3
    return np.where(keep, np.broadcast_to(values, shape), decoded)


def cumulative_row_errors(sent, received, starts, bits):
    """Each row's mismatches over its own bits: one cumulative sum (the
    bus's unicast count before per-symbol counting)."""
    mismatches = np.zeros(sent.size + 1, dtype=np.int64)
    np.cumsum(sent != received, out=mismatches[1:])
    return mismatches[starts + bits] - mismatches[starts]


class TestSymbolBitErrors:
    @pytest.mark.parametrize("width", [1, 3, 4, 7, 16])
    @pytest.mark.parametrize("seed", range(4))
    def test_row_masks_match_the_bitwise_cumulative_sum(self, width, seed):
        rng = np.random.default_rng(seed)
        sent, starts, bits = random_rows(rng, width, 40)
        values = bit_matrix_to_ints(sent.reshape(-1, width))
        decoded = received_values(rng, values, width, values.shape)
        received = ints_to_bit_matrix(decoded, width).ravel().astype(np.uint8)
        errors = symbol_bit_errors(values, decoded, width, bits)
        assert errors.dtype == np.uint8 and errors.shape == values.shape
        rows = np.add.reduceat(errors, starts // width, dtype=np.int64)
        assert np.array_equal(rows, cumulative_row_errors(sent, received, starts, bits))

    @pytest.mark.parametrize("width", [1, 3, 4, 16])
    @pytest.mark.parametrize("seed", range(4))
    def test_broadcast_split_matches_the_bitwise_cumulative_sum(self, width, seed):
        rng = np.random.default_rng(seed)
        channels = int(rng.integers(1, 6))
        sent, starts, bits = random_rows(rng, width, 12)
        values = bit_matrix_to_ints(sent.reshape(-1, width))
        decoded = received_values(rng, values[:, None], width, (values.size, channels))
        # The bit-level split this replaced: the tiled payload against the
        # unpacked decoded bits, one cumulative sum per receiver.
        tiled = tile_symbols_for_receivers(sent, width, channels)
        received = ints_to_bit_matrix(decoded.ravel(), width).ravel().astype(np.uint8)
        mismatches = (tiled != received).reshape(-1, channels, width)
        per_receiver = mismatches.transpose(1, 0, 2).reshape(channels, -1)
        expected = np.array(
            [cumulative_row_errors(row, np.zeros_like(row), starts, bits) for row in per_receiver]
        ).T
        errors = per_receiver_bit_errors(sent, decoded.ravel(), width, starts, bits)
        assert errors.shape == (bits.size, channels)
        assert np.array_equal(errors, expected)

    def test_long_rows_count_past_a_byte(self):
        # Per-symbol counts are uint8; the per-receiver sums must not wrap.
        sent = np.zeros(1500, dtype=np.uint8)  # one 1,499-bit row, K = 4
        values = bit_matrix_to_ints(sent.reshape(-1, 4))
        decoded = np.full((values.size, 2), 15)
        errors = per_receiver_bit_errors(sent, decoded.ravel(), 4, np.array([0]), np.array([1499]))
        assert errors.tolist() == [[1499, 1499]]

    def test_one_row_masks_only_its_last_symbol(self):
        # 0b101 sent as 0b110 and 0b010 as 0b001 over 5 bits: the second
        # symbol's low bit is padding, so its error there does not count.
        assert symbol_bit_errors(np.array([5, 2]), np.array([6, 1]), 3, 5).tolist() == [2, 1]
        # Receivers on a leading axis share the mask.
        decoded = np.array([[6, 1], [5, 3], [5, 2]])
        assert symbol_bit_errors(np.array([5, 2]), decoded, 3, 5).tolist() == [
            [2, 1], [0, 0], [0, 0],
        ]
