"""Bundled behavior scripts plus host-side oracles for their math.

The oracles mirror the script-side virtual-force computations in plain
Python so simulator output can be checked against an independent path.
"""

import functools
import json
import math
from importlib import resources

_SCRIPT_PKG = resources.files(__name__) / "scripts"


def manifest():
    """Script registry: name -> {file, bindings, globals, readout, ...}."""
    with (_SCRIPT_PKG / "MANIFEST.json").open("r", encoding="utf-8") as fh:
        return json.load(fh)


def script_path(name):
    entry = manifest().get(name)
    if entry is None:
        raise KeyError(f"unknown behavior script '{name}'")
    return _SCRIPT_PKG / entry["file"]


@functools.cache
def load_script(name):
    """Source text of a bundled behavior script, read once per process."""
    with script_path(name).open("r", encoding="utf-8") as fh:
        return fh.read()


def force_magnitude(d, delta, epsilon):
    """Virtual force magnitude at neighbor distance d (cm).

    Zero at d == delta, repulsive below it, attractive above.
    """
    if d <= 0:
        raise ValueError("neighbor distance must be positive")
    return -(epsilon / d) * ((delta / d) ** 4 - (delta / d) ** 2)


def direction(records, delta=50.0, epsilon=2700.0):
    """Mean force vector over records [(distance_cm, azimuth), ...].

    Mirrors the formation script's direction(): per-neighbor forces
    resolved along the azimuth, averaged over the neighbor count.
    Empty input yields the zero vector.
    """
    if not records:
        return (0.0, 0.0)
    x = 0.0
    y = 0.0
    for dist, azimuth in records:
        fm = force_magnitude(dist, delta, epsilon)
        x += fm * math.cos(azimuth)
        y += fm * math.sin(azimuth)
    n = len(records)
    return (x / n, y / n)


def segregation_direction(records, kin_ids, unknown_ids=frozenset(),
                          delta_kin=50.0, epsilon_kin=2700.0,
                          delta_nonkin=150.0, epsilon_nonkin=8000.0):
    """Kin fold then non-kin fold with a shared accumulator.

    `records` maps rid -> (distance_cm, azimuth); `kin_ids` is the set of
    rids sharing the robot's team; rids in `unknown_ids` enter neither
    fold but still count in the averaging denominator, exactly like the
    script's neighbors.count().
    """
    if not records:
        return (0.0, 0.0)
    x = 0.0
    y = 0.0
    for rid in sorted(records):
        if rid in unknown_ids or rid not in kin_ids:
            continue
        dist, azimuth = records[rid]
        fm = force_magnitude(dist, delta_kin, epsilon_kin)
        x += fm * math.cos(azimuth)
        y += fm * math.sin(azimuth)
    for rid in sorted(records):
        if rid in unknown_ids or rid in kin_ids:
            continue
        dist, azimuth = records[rid]
        fm = force_magnitude(dist, delta_nonkin, epsilon_nonkin)
        x += fm * math.cos(azimuth)
        y += fm * math.sin(azimuth)
    n = len(records)
    return (x / n, y / n)
