"""Stub: there is no channel cache; ``build_channels()`` always computes.

:func:`get_channel_cache` remains only because the external benchmark
(``perfbench/workloads.py``) imports it to start set-up cold.
"""

from __future__ import annotations

import types


def get_channel_cache():
    """An object whose ``clear()`` does nothing."""
    return types.SimpleNamespace(clear=lambda: None)
