"""Tests for repro.core.backend — the link-backend protocol and registry."""

import numpy as np
import pytest

from repro.core.backend import (
    BackendCapabilities,
    LinkBackend,
    available_backends,
    backend_capabilities,
    make_link,
    register_backend,
    resolve_backend,
)
from repro.core.ber import monte_carlo_bit_error_rate
from repro.core.config import LinkConfig
from repro.core.fastlink import FastOpticalLink
from repro.core.link import OpticalLink, TransmissionResult

MODERATE = LinkConfig(ppm_bits=4, mean_detected_photons=5.0)


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(available_backends()) >= {"scalar", "batch"}

    def test_resolve_default_and_alias(self):
        assert resolve_backend(None) == "batch"
        assert resolve_backend("fast") == "batch"
        assert resolve_backend("scalar") == "scalar"
        assert resolve_backend("array") == "multichannel"

    def test_unknown_backend_lists_available(self):
        with pytest.raises(ValueError, match="available:"):
            resolve_backend("gpu")

    def test_non_string_backend_rejected(self):
        with pytest.raises(TypeError):
            resolve_backend(True)

    def test_capabilities(self):
        assert backend_capabilities("batch").supports_batch
        assert not backend_capabilities("scalar").supports_batch
        assert backend_capabilities("scalar").draw_for_draw_reference
        # Single-channel engines do not accept channels=; the array engine does.
        assert not backend_capabilities("batch").supports_multichannel
        assert backend_capabilities("multichannel").supports_multichannel
        assert backend_capabilities("multichannel").supports_batch
        assert backend_capabilities(None) == backend_capabilities("batch")

    def test_channels_rejected_without_multichannel_support(self):
        with pytest.raises(ValueError, match="supports_multichannel"):
            make_link(MODERATE, backend="batch", channels=4)
        # channels=1 (or None) is the single-channel default everywhere.
        assert isinstance(make_link(MODERATE, backend="batch", channels=1), FastOpticalLink)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(
                "batch", FastOpticalLink, BackendCapabilities(supports_batch=True)
            )
        with pytest.raises(ValueError, match="already registered"):
            register_backend(
                "mine",
                FastOpticalLink,
                BackendCapabilities(supports_batch=True),
                aliases=("fast",),
            )

    def test_custom_backend_registration_and_dispatch(self):
        calls = []

        def factory(config, channel=None, seed=0):
            calls.append((config, channel, seed))
            return OpticalLink(config, channel=channel, seed=seed)

        register_backend(
            "test-custom", factory, BackendCapabilities(supports_batch=False)
        )
        try:
            link = make_link(MODERATE, backend="test-custom", seed=5)
            assert isinstance(link, OpticalLink)
            assert calls == [(MODERATE, None, 5)]
            assert "test-custom" in available_backends()
        finally:
            # Re-register over it so other tests see a clean-ish registry.
            register_backend(
                "test-custom",
                factory,
                BackendCapabilities(supports_batch=False),
                replace=True,
            )


class TestMakeLink:
    def test_returns_registered_classes(self):
        assert isinstance(make_link(MODERATE, backend="scalar"), OpticalLink)
        batch = make_link(MODERATE, backend="batch")
        assert isinstance(batch, FastOpticalLink)
        assert type(make_link(MODERATE)) is FastOpticalLink

    def test_default_config(self):
        link = make_link()
        assert link.config == LinkConfig()

    def test_links_satisfy_protocol(self):
        for backend in ("scalar", "batch"):
            link = make_link(MODERATE, backend=backend)
            assert isinstance(link, LinkBackend)
            result = link.transmit_bits([1, 0, 1, 1])
            assert isinstance(result, TransmissionResult)

    def test_seed_threading(self):
        a = make_link(MODERATE, backend="batch", seed=3).transmit_random(2000)
        b = make_link(MODERATE, backend="batch", seed=3).transmit_random(2000)
        c = make_link(MODERATE, backend="batch", seed=4).transmit_random(2000)
        assert np.array_equal(a.received_bits, b.received_bits)
        assert not np.array_equal(a.received_bits, c.received_bits)


class TestArrayContract:
    """Every backend takes a list or array of 0/1 and returns ``uint8`` bit arrays."""

    LINKS = [
        pytest.param("batch", None, id="batch"),
        pytest.param("scalar", None, id="scalar"),
        pytest.param("multichannel", 1, id="multichannel-C1"),
        pytest.param("multichannel", 3, id="multichannel-C3"),
    ]
    #: Not a whole number of 4-bit symbols, so the final symbol is padded.
    BITS = np.random.default_rng(0).integers(0, 2, size=403).tolist()

    @staticmethod
    def _link(backend, channels):
        return make_link(MODERATE, backend=backend, channels=channels, seed=11)

    @pytest.mark.parametrize("backend, channels", LINKS)
    def test_bit_fields_are_uint8_payload_arrays(self, backend, channels):
        payloads = [
            self.BITS,
            np.array(self.BITS, dtype=np.int64),
            np.array(self.BITS, dtype=np.uint8),
            np.array(self.BITS, dtype=bool),
        ]
        received = []
        for payload in payloads:
            result = self._link(backend, channels).transmit_bits(payload)
            for bits in (result.transmitted_bits, result.received_bits):
                assert isinstance(bits, np.ndarray)
                assert bits.dtype == np.uint8
                assert bits.shape == (len(self.BITS),)
            assert np.array_equal(result.transmitted_bits, self.BITS)
            received.append(result.received_bits)
        assert result.bit_errors > 0  # the comparison below is not trivial
        for other in received[1:]:
            assert np.array_equal(other, received[0])

    @pytest.mark.parametrize("backend, channels", LINKS)
    def test_transmitted_bits_are_a_copy(self, backend, channels):
        caller = np.array(self.BITS, dtype=np.uint8)
        result = self._link(backend, channels).transmit_bits(caller)
        caller ^= 1
        assert np.array_equal(result.transmitted_bits, self.BITS)

    @pytest.mark.parametrize("backend, channels", LINKS)
    @pytest.mark.parametrize(
        "bad",
        [[], [2], [-1], [0.5], [float("nan")], np.zeros((4, 4), dtype=np.int64)],
        ids=["empty", "two", "minus-one", "half", "nan", "2-D"],
    )
    def test_rejects_non_bits(self, backend, channels, bad):
        with pytest.raises(ValueError):
            self._link(backend, channels).transmit_bits(bad)


class TestBackendParity:
    """Same seed => statistically equivalent results across backends."""

    BITS = 16_000

    def test_ber_parity_within_monte_carlo_tolerance(self):
        results = {
            backend: make_link(MODERATE, backend=backend, seed=21).transmit_random(self.BITS)
            for backend in ("scalar", "batch")
        }
        p = max(results["scalar"].bit_error_rate, 1.0 / self.BITS)
        tolerance = 5.0 * 2.0 * np.sqrt(2.0 * p * (1 - p) / self.BITS)
        assert abs(
            results["scalar"].bit_error_rate - results["batch"].bit_error_rate
        ) < tolerance

    def test_estimator_parity_through_backend_argument(self):
        estimates = {
            backend: monte_carlo_bit_error_rate(MODERATE, bits=8_000, seed=3, backend=backend)
            for backend in ("scalar", "batch")
        }
        combined = estimates["scalar"].confidence_95 + estimates["batch"].confidence_95
        assert estimates["scalar"].ber == pytest.approx(
            estimates["batch"].ber, abs=5.0 * combined
        )


class TestFastRemoval:
    def test_legacy_fast_keyword_is_gone(self):
        # The pre-registry boolean spelling was deprecated in PR 2 and removed
        # in PR 3; backend= is the only way to pick an engine.
        with pytest.raises(TypeError):
            monte_carlo_bit_error_rate(MODERATE, bits=100, fast=True)
