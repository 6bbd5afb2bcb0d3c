"""Every EngineConfig field must be read by the engine: a knob that no
code outside config.py reads is dead weight a caller can set to no
effect."""

import dataclasses
import pathlib
import re

from signal_collect_ray.config import EngineConfig

_PKG = pathlib.Path(__file__).resolve().parent.parent / "signal_collect_ray"


def test_every_engine_config_field_is_read():
    sources = "\n".join(
        p.read_text()
        for p in sorted(_PKG.rglob("*.py"))
        if p != _PKG / "config.py"
    )
    unread = [
        f.name
        for f in dataclasses.fields(EngineConfig)
        if not re.search(rf"\.{re.escape(f.name)}\b", sources)
    ]
    assert not unread, f"EngineConfig fields never read: {unread}"
