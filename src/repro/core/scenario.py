"""Experiment scenarios: geometry → acoustic channels.

A :class:`Scenario` is the physical layout of one experiment — the room,
the noise source, the MUTE client (error microphone + anti-noise
speaker) and one or more IoT relays.  ``build_channels()`` runs the
image-source model for every impulse response the system needs and
derives the per-relay acoustic lead.
"""

from __future__ import annotations

import dataclasses
import math

from ..acoustics.channels import AcousticChannel
from ..acoustics.constants import DEFAULT_SAMPLE_RATE, SPEED_OF_SOUND
from ..acoustics.geometry import Point, Room
from ..acoustics.rir import RirSettings, room_impulse_response
from ..errors import ConfigurationError
from ..utils.validation import check_positive

__all__ = ["Scenario", "ScenarioChannels", "office_scenario"]


@dataclasses.dataclass(frozen=True)
class ScenarioChannels:
    """Every acoustic channel of a scenario, plus derived timing.

    Attributes
    ----------
    h_ne:
        Noise source → error microphone.
    h_nr:
        Noise source → reference microphone, per relay (tuple).
    h_se:
        Anti-noise speaker → error microphone.
    acoustic_lead_samples:
        Per relay: direct-arrival delay of ``h_ne`` minus that of
        ``h_nr`` — positive when the relay hears the sound first.
    sample_rate:
        Rate all of the above are sampled at.
    """

    h_ne: AcousticChannel
    h_nr: tuple
    h_se: AcousticChannel
    acoustic_lead_samples: tuple
    sample_rate: float

    def lead_seconds(self, relay_index=0):
        """Acoustic lead of one relay, in seconds (paper Eq. 4)."""
        return self.acoustic_lead_samples[relay_index] / self.sample_rate


@dataclasses.dataclass(frozen=True)
class Scenario:
    """Physical layout of a MUTE experiment.

    Parameters
    ----------
    room:
        Shoebox room with absorption.
    source:
        Noise source position.
    client:
        Error-microphone position (the user's ear).
    relays:
        IoT relay (reference microphone) positions.
    speaker_offset_m:
        Distance from the error mic to the anti-noise speaker — <1 cm in
        headphones, ~2 cm in the paper's bench rig.
    sample_rate:
        Simulation rate (8 kHz everywhere, per the paper's DSP).
    rir_settings:
        Image-source method configuration.
    """

    room: Room
    source: Point
    client: Point
    relays: tuple = ()
    speaker_offset_m: float = 0.02
    sample_rate: float = DEFAULT_SAMPLE_RATE
    rir_settings: RirSettings = dataclasses.field(default_factory=RirSettings)

    def __post_init__(self):
        check_positive("sample_rate", self.sample_rate)
        check_positive("speaker_offset_m", self.speaker_offset_m)
        self.room.require_inside("source", self.source)
        self.room.require_inside("client", self.client)
        for i, relay in enumerate(self.relays):
            self.room.require_inside(f"relay[{i}]", relay)
        if not self.relays:
            raise ConfigurationError("scenario needs at least one relay")
        # The anti-noise speaker sits next to the client; keep it inside.
        self.room.require_inside("speaker", self.speaker_position)

    @property
    def speaker_position(self):
        """Anti-noise speaker location (offset from the error mic)."""
        return Point(self.client.x + self.speaker_offset_m,
                     self.client.y, self.client.z)

    def source_to_client_m(self):
        """Distance noise travels to the ear (``d_e``)."""
        return self.source.distance_to(self.client)

    def source_to_relay_m(self, relay_index=0):
        """Distance noise travels to a relay (``d_r``)."""
        return self.source.distance_to(self.relays[relay_index])

    def nominal_lead_s(self, relay_index=0, speed=SPEED_OF_SOUND):
        """Geometric Eq.-4 lead (direct paths only)."""
        return (self.source_to_client_m()
                - self.source_to_relay_m(relay_index)) / speed

    def with_source(self, source):
        """Copy with the noise source moved (Figure 19 sweeps)."""
        return dataclasses.replace(self, source=source)

    def build_channels(self):
        """Run the image-source model for every path.

        Every call returns freshly computed channels, so streaming
        filter state is never shared between callers.
        """
        h_ne_ir = room_impulse_response(
            self.room, self.source, self.client, self.sample_rate,
            settings=self.rir_settings,
        )
        h_ne = AcousticChannel(h_ne_ir, name="h_ne")
        h_nr = tuple(
            AcousticChannel(
                room_impulse_response(
                    self.room, self.source, relay, self.sample_rate,
                    settings=self.rir_settings,
                ),
                name=f"h_nr[{i}]",
            )
            for i, relay in enumerate(self.relays)
        )
        h_se = AcousticChannel(
            room_impulse_response(
                self.room, self.speaker_position, self.client,
                self.sample_rate, settings=self.rir_settings,
            ),
            name="h_se",
        )
        # Lead from direct-path geometry: the wavefront that matters for
        # alignment is the first arrival, and IR-peak detection is biased
        # late in reverberant rooms where overlapping reflections can
        # exceed the direct tap.  (GCC-PHAT measures the same quantity at
        # runtime — see repro.core.relay_selection.)
        de = self.source.distance_to(self.client)
        lead = tuple(
            int(math.floor(
                (de - self.source.distance_to(relay))
                / self.rir_settings.speed_of_sound * self.sample_rate
            ))
            for relay in self.relays
        )
        return ScenarioChannels(
            h_ne=h_ne, h_nr=h_nr, h_se=h_se,
            acoustic_lead_samples=lead, sample_rate=self.sample_rate,
        )


def office_scenario(sample_rate=DEFAULT_SAMPLE_RATE, absorption=0.55,
                    relay_on_door=True):
    """The paper's motivating layout (Figure 1): Alice's office.

    A 5 m × 4 m office; corridor noise enters near the door, where the
    IoT relay is pasted; Alice sits at her desk ~3.4 m away.
    """
    room = Room(5.0, 4.0, 3.0, absorption=absorption)
    source = Point(0.5, 3.5, 1.6)                 # doorway conversation
    client = Point(3.5, 1.0, 1.2)                 # Alice's ear at her desk
    relay = Point(0.8, 3.2, 1.6) if relay_on_door else Point(3.0, 1.5, 1.2)
    return Scenario(room=room, source=source, client=client,
                    relays=(relay,), sample_rate=sample_rate)
