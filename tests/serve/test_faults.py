"""Fault injection into the model registry, and its metric exports."""

import numpy as np
import pytest

from repro.faults import FaultKind, FaultPlane
from repro.serve import RegistryError

from .conftest import constant_model


class TestRegistryCorruption:
    def test_corrupt_load_raises_registry_error(self, registry):
        version = registry.publish(constant_model(1.0))
        plane = FaultPlane(seed=1).inject(
            "serve.registry.load", FaultKind.CORRUPT, nth=1
        )
        registry.attach_faults(plane)
        with pytest.raises(RegistryError):
            registry.load(version)
        assert registry.load_failures == 1

    def test_corrupt_activation_keeps_previous_snapshot(self, registry):
        registry.publish(constant_model(1.0), activate=True)
        version = registry.publish(constant_model(2.0))
        plane = FaultPlane(seed=2).inject(
            "serve.registry.load", FaultKind.CORRUPT, nth=1
        )
        registry.attach_faults(plane)
        with pytest.raises(RegistryError):
            registry.activate(version)
        # The bad deploy degraded nothing: v1 still serves.
        assert registry.active_version == 1
        out = registry.active().model.predict(np.zeros((1, 4)))
        np.testing.assert_array_equal(out.to_numpy(), np.full((1, 3), 1.0))

    def test_truncating_corruption_detected(self, registry):
        version = registry.publish(constant_model(1.0))
        plane = FaultPlane(seed=3).inject(
            "serve.registry.load", FaultKind.CORRUPT, nth=1,
            corrupt="truncate",
        )
        registry.attach_faults(plane)
        with pytest.raises(RegistryError):
            registry.load(version)

    def test_io_error_wrapped(self, registry):
        version = registry.publish(constant_model(1.0))
        plane = FaultPlane(seed=4).inject(
            "serve.registry.load", FaultKind.ERROR, nth=1
        )
        registry.attach_faults(plane)
        with pytest.raises(RegistryError):
            registry.load(version)

    def test_detach_restores_clean_loads(self, registry):
        version = registry.publish(constant_model(1.0))
        plane = FaultPlane(seed=5).inject(
            "serve.registry.load", FaultKind.CORRUPT, probability=1.0
        )
        registry.attach_faults(plane)
        with pytest.raises(RegistryError):
            registry.load(version)
        registry.detach_faults()
        assert registry.load(version).version == version


class TestObsIntegration:
    def test_instrument_serve_exports_counters(self, registry):
        """Golden export: the five registry families, byte for byte."""
        from repro.obs import MetricsRegistry, instrument_serve, prometheus_text

        metrics = MetricsRegistry()
        instrument_serve(registry, metrics)
        registry.publish(constant_model(1.0), activate=True)
        registry.publish(constant_model(2.0))
        registry.activate(2)
        registry.attach_faults(FaultPlane(seed=1).inject(
            "serve.registry.load", FaultKind.CORRUPT, nth=1
        ))
        with pytest.raises(RegistryError):
            registry.load(1)
        registry.detach_faults()
        registry.rollback()
        metrics.collect()
        assert prometheus_text(metrics).splitlines() == [
            "# HELP kml_serve_activations_total Model hot-swaps (activate calls)",
            "# TYPE kml_serve_activations_total counter",
            "kml_serve_activations_total 3",
            "# HELP kml_serve_active_version Active model version "
            "(-1 when nothing is activated)",
            "# TYPE kml_serve_active_version gauge",
            "kml_serve_active_version 1",
            "# HELP kml_serve_model_load_failures_total Loads rejected by "
            "integrity checking (corrupt image, I/O error)",
            "# TYPE kml_serve_model_load_failures_total counter",
            "kml_serve_model_load_failures_total 1",
            "# HELP kml_serve_model_loads_total Model image loads from the "
            "registry",
            "# TYPE kml_serve_model_loads_total counter",
            "kml_serve_model_loads_total 4",
            "# HELP kml_serve_rollbacks_total Registry rollbacks to a prior "
            "version",
            "# TYPE kml_serve_rollbacks_total counter",
            "kml_serve_rollbacks_total 1",
        ]
