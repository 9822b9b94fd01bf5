"""Coverage for corners the focused suites skip."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SignalError
from repro.eval.experiments.common import (
    AMBIENT_SPL_DB,
    bench_scenario,
    build_system,
    default_config,
    standard_sources,
    white_noise,
)
from repro.hardware import bose_qc35_earcup
from repro.utils.units import amplitude_for_spl, spl_db
from repro.wireless import AnalogRelay, pa_nonlinearity


class TestExperimentCommon:
    def test_bench_scenario_geometry(self):
        scen = bench_scenario()
        # Relay clearly closer to the source than the client: multi-ms lead.
        assert scen.nominal_lead_s() > 5e-3
        # Relay near the wall: the non-minimum-phase ingredient.
        assert scen.relays[0].y < 0.5

    def test_default_config_overrides(self):
        config = default_config(mu=0.42)
        assert config.mu == 0.42
        assert config.n_past == 512     # untouched default

    def test_build_system_bose_earcup(self):
        system = build_system(earcup="bose")
        assert system.config.earcup is not None

    def test_build_system_open_ear(self):
        system = build_system()
        assert system.config.earcup is None

    def test_standard_sources_complete(self):
        sources = standard_sources()
        assert set(sources) == {"male voice", "female voice",
                                "construction", "music"}
        for source in sources.values():
            assert source.generate(0.25).size == 2000

    def test_ambient_level_calibration(self):
        # The default level corresponds to roughly the paper's 67 dB SPL
        # at the source (attenuating over distance to the mic).
        noise = white_noise().generate(1.0)
        assert spl_db(noise) == pytest.approx(74.0, abs=1.0)
        assert AMBIENT_SPL_DB == 67.0


class TestSplHelpers:
    def test_amplitude_for_spl_roundtrip(self):
        amp = amplitude_for_spl(60.0)
        signal = np.full(100, amp)
        assert spl_db(signal) == pytest.approx(60.0, abs=1e-6)


class TestWirelessEdges:
    def test_pa_nonlinearity_silence(self):
        silence = np.zeros(16, dtype=complex)
        out = pa_nonlinearity(silence)
        np.testing.assert_array_equal(out, silence)

    def test_relay_forward_short_block(self):
        relay = AnalogRelay(seed=1)
        x = np.sin(2 * np.pi * 500 * np.arange(256) / 8000.0) * 0.2
        out = relay.forward(x)
        assert out.size == 256
        assert np.all(np.isfinite(out))


class TestMainModuleImport:
    def test_package_main_importable(self):
        import repro.__main__  # noqa: F401  (must not execute main)

    def test_version_exposed(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_public_all_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name


class TestEarcupReuse:
    def test_two_instances_identical(self):
        a = bose_qc35_earcup()
        b = bose_qc35_earcup()
        freqs = np.linspace(50, 4000, 32)
        np.testing.assert_allclose(a.insertion_loss_db(freqs),
                                   b.insertion_loss_db(freqs))
