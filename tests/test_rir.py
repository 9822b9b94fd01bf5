"""Image-source room impulse responses."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acoustics import (
    Point,
    Room,
    direct_path_ir,
    image_sources,
    room_impulse_response,
)
from repro.acoustics.constants import SPEED_OF_SOUND
from repro.acoustics.rir import RirSettings
from repro.errors import ConfigurationError
from tests.reference import rir as reference

FS = 8000.0
ROOM = Room(5.0, 4.0, 3.0, absorption=0.4)
SRC = Point(1.0, 1.0, 1.5)
MIC = Point(4.0, 3.0, 1.2)


class TestImageSources:
    def test_order_zero_single_image(self):
        images = list(image_sources(ROOM, SRC, 0))
        assert len(images) == 1
        point, bounces = images[0]
        assert bounces == 0
        assert point.as_tuple() == SRC.as_tuple()

    def test_order_one_count(self):
        # Direct + 6 first-order wall images.
        images = list(image_sources(ROOM, SRC, 1))
        assert len(images) == 7
        assert sum(1 for __, b in images if b == 1) == 6

    def test_bounce_counts_bounded(self):
        for __, bounces in image_sources(ROOM, SRC, 3):
            assert 0 <= bounces <= 3

    def test_source_outside_rejected(self):
        with pytest.raises(ConfigurationError):
            list(image_sources(ROOM, Point(9, 9, 9), 1))


class TestRoomImpulseResponse:
    def test_direct_arrival_position(self):
        ir = room_impulse_response(ROOM, SRC, MIC, FS)
        expected = SRC.distance_to(MIC) / SPEED_OF_SOUND * FS
        mag = np.abs(ir)
        first_arrival = np.argmax(mag >= 0.3 * mag.max())
        assert abs(first_arrival - expected) <= 2

    def test_direct_amplitude_spreading(self):
        ir = room_impulse_response(ROOM, SRC, MIC, FS)
        dist = SRC.distance_to(MIC)
        direct_idx = int(round(dist / SPEED_OF_SOUND * FS))
        assert abs(ir[direct_idx]) == pytest.approx(1.0 / dist, rel=0.15)

    def test_more_absorption_less_tail(self):
        live = room_impulse_response(Room(5, 4, 3, absorption=0.1),
                                     SRC, MIC, FS)
        dead = room_impulse_response(Room(5, 4, 3, absorption=0.8),
                                     SRC, MIC, FS)

        def tail_energy(ir):
            peak = np.argmax(np.abs(ir))
            return np.sum(ir[peak + 20:] ** 2)

        assert tail_energy(live) > 3 * tail_energy(dead)

    def test_higher_order_longer(self):
        short = room_impulse_response(ROOM, SRC, MIC, FS,
                                      settings=RirSettings(max_order=1))
        long_ = room_impulse_response(ROOM, SRC, MIC, FS,
                                      settings=RirSettings(max_order=3))
        assert long_.size > short.size

    def test_normalize(self):
        ir = room_impulse_response(ROOM, SRC, MIC, FS, normalize=True)
        assert np.max(np.abs(ir)) == pytest.approx(1.0)

    def test_microphone_outside_rejected(self):
        with pytest.raises(ConfigurationError):
            room_impulse_response(ROOM, SRC, Point(-1, 0, 0), FS)

    def test_deterministic(self):
        a = room_impulse_response(ROOM, SRC, MIC, FS)
        b = room_impulse_response(ROOM, SRC, MIC, FS)
        np.testing.assert_array_equal(a, b)


class TestDirectPathIr:
    def test_delay_and_gain(self):
        ir = direct_path_ir(3.4, FS)
        expected_delay = 3.4 / SPEED_OF_SOUND * FS
        peak = np.argmax(np.abs(ir))
        assert abs(peak - expected_delay) <= 1
        assert np.max(np.abs(ir)) == pytest.approx(1 / 3.4, rel=0.1)

    def test_explicit_gain(self):
        # The fractional-delay kernel spreads amplitude across taps; the
        # DC gain (tap sum) carries the requested gain.
        ir = direct_path_ir(1.0, FS, gain=2.0)
        assert ir.sum() == pytest.approx(2.0, rel=0.01)

    def test_rejects_zero_distance(self):
        with pytest.raises(ConfigurationError):
            direct_path_ir(0.0, FS)


class TestRirSettings:
    def test_rejects_negative_order(self):
        with pytest.raises(ConfigurationError):
            RirSettings(max_order=-1)

    def test_rejects_tiny_sinc(self):
        with pytest.raises(ConfigurationError):
            RirSettings(sinc_taps=1)


@st.composite
def _scenes(draw):
    """A random shoebox room with a source and a microphone inside it."""
    dims = [draw(st.floats(1.0, 12.0)) for __ in range(3)]
    room = Room(*dims, absorption=draw(st.floats(0.0, 0.95)))

    def inside():
        return Point(*(draw(st.floats(0.0, 1.0)) * d for d in dims))

    return room, inside(), inside()


class TestAgainstLoopOracle:
    """The array program vs the per-image loop in ``tests/reference``."""

    TOL = 1e-12

    @settings(max_examples=60, deadline=None)
    @given(scene=_scenes(), max_order=st.integers(0, 4),
           sinc_taps=st.integers(3, 40),
           sample_rate=st.sampled_from([8000.0, 16000.0, 44100.0, 3000.5]))
    def test_rir_matches_oracle(self, scene, max_order, sinc_taps,
                                sample_rate):
        room, source, mic = scene
        rir_settings = RirSettings(max_order=max_order, sinc_taps=sinc_taps)
        got = room_impulse_response(room, source, mic, sample_rate,
                                    settings=rir_settings)
        want = reference.room_impulse_response(room, source, mic,
                                               sample_rate,
                                               settings=rir_settings)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=self.TOL, rtol=0)

    @settings(max_examples=20, deadline=None)
    @given(scene=_scenes(), max_order=st.integers(0, 4))
    def test_image_sources_match_oracle(self, scene, max_order):
        room, source, __ = scene
        got = [(p.as_tuple(), b)
               for p, b in image_sources(room, source, max_order)]
        want = [(p.as_tuple(), b)
                for p, b in reference.image_sources(room, source, max_order)]
        assert got == want

    @pytest.mark.parametrize("sinc_taps", [4, 31, 32])
    def test_truncated_head_and_normalize(self, sinc_taps):
        # Source and microphone 2 cm apart: the direct kernel starts
        # before index 0 and is cut, as in the loop formulation.
        mic = Point(1.02, 1.0, 1.5)
        rir_settings = RirSettings(max_order=2, sinc_taps=sinc_taps)
        for normalize in (False, True):
            got = room_impulse_response(ROOM, SRC, mic, FS,
                                        settings=rir_settings,
                                        normalize=normalize)
            want = reference.room_impulse_response(
                ROOM, SRC, mic, FS, settings=rir_settings,
                normalize=normalize)
            np.testing.assert_allclose(got, want, atol=self.TOL, rtol=0)

    def test_source_outside_rejected(self):
        with pytest.raises(ConfigurationError):
            room_impulse_response(ROOM, Point(9, 9, 9), MIC, FS)
