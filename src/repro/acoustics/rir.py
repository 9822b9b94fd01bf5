"""Room impulse responses via the image-source method.

The channels the paper must estimate — noise→error-mic ``h_ne``,
noise→reference-mic ``h_nr``, speaker→error-mic ``h_se`` — are room
impulse responses.  Their *non-minimum-phase* character (Neely & Allen)
is exactly why the inverse filter is non-causal and why lookahead helps,
so the simulation must produce realistic multipath, not just a delayed
impulse.

The classic Allen–Berkley image-source method mirrors the source across
the room walls up to ``max_order`` reflections; each image contributes a
fractionally delayed, distance-attenuated, wall-absorbed impulse.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from ..errors import ConfigurationError
from ..utils.validation import check_non_negative_int, check_positive
from .constants import SPEED_OF_SOUND
from .geometry import Point, Room
from .propagation import fractional_delay_filter, spreading_gain

#: Image grids by ``max_order`` (see :func:`_image_grid`).
_grid_cache = {}

__all__ = ["RirSettings", "image_sources", "room_impulse_response", "direct_path_ir"]


@dataclasses.dataclass(frozen=True)
class RirSettings:
    """Tuning knobs for the image-source simulation."""

    max_order: int = 3          # reflections per axis direction
    sinc_taps: int = 31         # fractional-delay filter quality
    speed_of_sound: float = SPEED_OF_SOUND

    def __post_init__(self):
        check_non_negative_int("max_order", self.max_order)
        if self.sinc_taps < 3:
            raise ConfigurationError("sinc_taps must be >= 3")
        check_positive("speed_of_sound", self.speed_of_sound)


def _image_grid(max_order):
    """The integer image grid up to ``max_order``, cached read-only.

    Returns ``(n, parity, bounces)``: image indices ``(nx, ny, nz)``,
    parities ``(px, py, pz)`` (both ``(K, 3)`` ints) and wall-bounce
    counts ``(K,)``, in the mirror construction's enumeration order —
    indices over ``range(-max_order, max_order + 1)`` outermost, then
    parities over ``(0, 1)`` — keeping only images with at most
    ``max_order`` bounces.
    """
    grid = _grid_cache.get(max_order)
    if grid is None:
        index = range(-max_order, max_order + 1)
        rows = np.array([n + p for n in itertools.product(index, repeat=3)
                         for p in itertools.product((0, 1), repeat=3)])
        n, parity = rows[:, :3], rows[:, 3:]
        bounces = np.abs(2 * n - parity).sum(axis=1)
        keep = bounces <= max_order
        grid = (n[keep], parity[keep], bounces[keep])
        for a in grid:
            a.flags.writeable = False
        _grid_cache[max_order] = grid
    return grid


def _image_positions(room, source, max_order):
    """Validated image coordinates ``(K, 3)`` and bounce counts ``(K,)``."""
    if not isinstance(room, Room):
        raise ConfigurationError("room must be a Room")
    room.require_inside("source", source)
    max_order = check_non_negative_int("max_order", max_order)
    n, parity, bounces = _image_grid(max_order)
    dims = np.array([room.length, room.width, room.height])
    src = np.array(source.as_tuple())
    coords = 2.0 * n * dims + np.where(parity == 0, src, -src)
    return coords, bounces


def image_sources(room, source, max_order):
    """Yield ``(image_position, n_reflections)`` pairs up to ``max_order``.

    Standard mirror construction: for image indices ``(nx, ny, nz)`` and
    parities ``(px, py, pz)``, the image coordinate along x is
    ``2 * nx * Lx + (source.x if px == 0 else -source.x)`` (likewise y, z),
    and the number of wall bounces is ``|2nx - px| + |2ny - py| + |2nz - pz|``.
    A view over the same cached grid :func:`room_impulse_response` uses.
    """
    coords, bounces = _image_positions(room, source, max_order)
    for xyz, count in zip(coords.tolist(), bounces.tolist()):
        yield Point(*xyz), count


def room_impulse_response(room, source, microphone, sample_rate,
                          settings=None, normalize=False):
    """Impulse response from ``source`` to ``microphone`` inside ``room``.

    Parameters
    ----------
    room, source, microphone:
        Scene geometry; both points must lie inside the room.
    sample_rate:
        Sampling rate of the returned FIR, in Hz.
    settings:
        Optional :class:`RirSettings`.
    normalize:
        If true, scale so the direct-path tap has unit amplitude —
        convenient when only the *shape* of the multipath matters.

    Returns
    -------
    numpy.ndarray
        FIR coefficients; index 0 corresponds to zero delay, so the
        direct-path arrival appears at ``round(distance / v * fs)``.
    """
    settings = settings or RirSettings()
    sample_rate = check_positive("sample_rate", sample_rate)
    room.require_inside("microphone", microphone)
    coords, bounces = _image_positions(room, source, settings.max_order)

    # Every image at once: distance, delay and amplitude per arrival.
    dist = np.sqrt(np.square(coords - microphone.as_tuple()).sum(axis=1))
    delay = dist / settings.speed_of_sound * sample_rate
    amp = 1.0 / np.maximum(dist, 0.25)    # spreading_gain, 1 m reference
    amp *= room.reflection_coefficient ** bounces

    # Each arrival's kernel is fractional_delay_filter(frac + center):
    # a centered windowed sinc, started `center` samples early, so the
    # arrival lands at its exact delay without truncation bias.  The
    # kernel has an odd tap count (even ``sinc_taps`` grow by one), and
    # a fractional part that rounds up to the next sample shifts it by
    # one tap, as the scalar filter's zero prefix does.
    center = settings.sinc_taps // 2
    n_taps = settings.sinc_taps | 1
    base = np.floor(delay)
    lag = (delay - base) + center
    whole = np.floor(lag)
    offset = np.arange(n_taps) - (center + (lag - whole))[:, None]
    half_width = center + 1.0
    window = np.where(np.abs(offset) <= half_width,
                      0.5 * (1.0 + np.cos(np.pi * offset / half_width)),
                      0.0)
    kernel = np.sinc(offset) * window
    kernel /= kernel.sum(axis=1)[:, None]   # unit DC gain
    kernel *= amp[:, None]

    # Scatter every kernel into the IR with one bincount: rows in
    # arrival order, so each tap accumulates in the loop's order.
    length = int(np.ceil(delay.max())) + settings.sinc_taps + 1
    start = (base - center + (whole - center)).astype(np.intp)
    index = start[:, None] + np.arange(n_taps)
    inside = (index >= 0) & (index < length)
    ir = np.bincount(index[inside], weights=kernel[inside], minlength=length)

    if normalize:
        peak = np.max(np.abs(ir))
        if peak > 0:
            ir = ir / peak
    return ir


def direct_path_ir(distance_m, sample_rate, speed=SPEED_OF_SOUND,
                   sinc_taps=31, gain=None):
    """Anechoic (single-path) impulse response over ``distance_m`` meters.

    Used for free-field experiments and unit tests where multipath would
    obscure the property being checked.
    """
    sample_rate = check_positive("sample_rate", sample_rate)
    distance_m = check_positive("distance_m", distance_m)
    delay = distance_m / speed * sample_rate
    base = int(np.floor(delay))
    frac = delay - base
    center = sinc_taps // 2
    taps = fractional_delay_filter(frac + center, n_taps=sinc_taps)
    start = base - center
    if start < 0:
        taps = taps[-start:]
        start = 0
    ir = np.zeros(start + taps.size)
    amplitude = spreading_gain(distance_m) if gain is None else gain
    ir[start:] = amplitude * taps
    return ir
