"""The per-image loop formulation of the image-source model: the RIR oracle.

:func:`repro.acoustics.rir.room_impulse_response` computes every image
source at once and scatters all arrival kernels with one ``bincount``.
This is the formulation it replaced, kept verbatim: a Python loop over
the images, one :func:`fractional_delay_filter` call and one slice add
per arrival.  The two agree to ≤ 1e-12.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.acoustics.geometry import Point, Room
from repro.acoustics.propagation import fractional_delay_filter, spreading_gain
from repro.acoustics.rir import RirSettings
from repro.errors import ConfigurationError
from repro.utils.validation import check_non_negative_int, check_positive

__all__ = ["image_sources", "room_impulse_response"]


def image_sources(room, source, max_order):
    """Yield ``(image_position, n_reflections)`` pairs up to ``max_order``."""
    if not isinstance(room, Room):
        raise ConfigurationError("room must be a Room")
    room.require_inside("source", source)
    max_order = check_non_negative_int("max_order", max_order)
    dims = (room.length, room.width, room.height)
    src = source.as_tuple()
    index_range = range(-max_order, max_order + 1)
    for nx, ny, nz in itertools.product(index_range, repeat=3):
        for px, py, pz in itertools.product((0, 1), repeat=3):
            coords = []
            bounces = 0
            for n, p, L, s in zip((nx, ny, nz), (px, py, pz), dims, src):
                coords.append(2.0 * n * L + (s if p == 0 else -s))
                bounces += abs(2 * n - p)
            if bounces > max_order:
                continue
            yield Point(*coords), bounces


def room_impulse_response(room, source, microphone, sample_rate,
                          settings=None, normalize=False):
    """Impulse response from ``source`` to ``microphone`` inside ``room``."""
    settings = settings or RirSettings()
    sample_rate = check_positive("sample_rate", sample_rate)
    room.require_inside("microphone", microphone)
    reflection = room.reflection_coefficient

    arrivals = []   # (delay_samples, amplitude)
    max_delay = 0.0
    for image, bounces in image_sources(room, source, settings.max_order):
        dist = image.distance_to(microphone)
        delay = dist / settings.speed_of_sound * sample_rate
        amp = spreading_gain(dist) * (reflection ** bounces)
        arrivals.append((delay, amp))
        max_delay = max(max_delay, delay)

    center = settings.sinc_taps // 2
    length = int(np.ceil(max_delay)) + settings.sinc_taps + 1
    ir = np.zeros(length)
    for delay, amp in arrivals:
        base = int(np.floor(delay))
        frac = delay - base
        # Use a *centered* fractional-delay kernel (group delay
        # center+frac) and start it `center` samples early, so each
        # arrival lands at its exact delay without truncation bias.
        taps = fractional_delay_filter(frac + center,
                                       n_taps=settings.sinc_taps)
        start = base - center
        if start < 0:
            taps = taps[-start:]
            start = 0
        end = min(start + taps.size, length)
        ir[start:end] += amp * taps[: end - start]

    if normalize:
        peak = np.max(np.abs(ir))
        if peak > 0:
            ir = ir / peak
    return ir
