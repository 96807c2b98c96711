"""Constructors for initial loops and sweepout families on the zoo charts."""

from __future__ import annotations

import numpy as np

from .charts import Chart
from .descent import SweepoutFamily
from .errors import ConfigError
from .loops import DiscreteLoop, make_loop


def circle_loop(chart: Chart, center: np.ndarray, radius: float, n_nodes: int) -> DiscreteLoop:
    """Round coordinate circle around a chart point."""
    ts = 2 * np.pi * np.arange(n_nodes) / n_nodes
    nodes = np.asarray(center, dtype=float) + radius * np.stack(
        [np.cos(ts), np.sin(ts)], axis=1
    )
    return make_loop(chart, nodes)


def latitude_circle(radius: float, n_nodes: int, orientation: int = 1) -> np.ndarray:
    ts = 2 * np.pi * np.arange(n_nodes) / n_nodes
    return radius * np.stack([np.cos(ts), orientation * np.sin(ts)], axis=1)


def birkhoff_latitudes(chart: Chart, n_members: int = 33, n_nodes: int = 128) -> SweepoutFamily:
    """Sphere sweepout: latitude circles from the south pole to the north pole.

    Heights z_s = -cos(pi s / (S-1)) cover the sphere; a latitude at height
    z has chart radius sqrt((1+z)/(1-z)) in the reference gauge.  Northern
    members (radius > 1) are built in the recentered gauge, where the same
    circle has radius (1-z)/(1+z)-ish < 1 and reversed orientation, so the
    family stays inside the chart guard and remains nodewise continuous
    across the gauge switch.  Both pole members are constant loops, critical
    at level 0, so the sweepout never moves them.
    """
    if chart.name != "sphere":
        raise ConfigError("the latitude sweepout needs the sphere chart")
    members = []
    for s in range(n_members):
        z = -np.cos(np.pi * s / (n_members - 1))
        if z >= 1.0 - 1e-12:
            members.append(make_loop(chart, np.zeros((n_nodes, 2)), frame=1))
            continue
        radius = np.sqrt((1.0 + z) / (1.0 - z))
        if radius <= 1.0:
            members.append(make_loop(chart, latitude_circle(radius, n_nodes), frame=0))
        else:
            members.append(
                make_loop(chart, latitude_circle(1.0 / radius, n_nodes, orientation=-1),
                          frame=1)
            )
    return SweepoutFamily(members)


def concentric_circles(chart: Chart, n_members: int = 17, n_nodes: int = 64,
                       r_max: float = 1.5) -> SweepoutFamily:
    """Contractible plane family: circles grown from the origin and back.

    Both end members are the constant loop at the origin, critical at level
    0, so the sweepout never moves them.
    """
    members = []
    for s in range(n_members):
        radius = r_max * np.sin(np.pi * s / (n_members - 1))
        members.append(circle_loop(chart, np.zeros(2), max(radius, 0.0), n_nodes))
    return SweepoutFamily(members)


def winding_band(chart: Chart, n_members: int = 9, n_nodes: int = 128,
                 z_center: float = 5.0, z_halfwidth: float = 1.0) -> SweepoutFamily:
    """Non-contractible family on a revolution chart: circles winding once.

    Members sit at evenly spaced heights in [z_center - h, z_center + h].
    Its ends are meant to move as much as its interior: every member lies in
    the same nontrivial class, so the whole family may slide to the
    minimizer.
    """
    if chart.periods is None:
        raise ConfigError("winding family needs a chart with a periodic angle")
    ts = 2 * np.pi * np.arange(n_nodes) / n_nodes
    members = []
    for z in z_center + z_halfwidth * np.linspace(-1.0, 1.0, n_members):
        nodes = np.stack([np.full(n_nodes, z), ts], axis=1)
        members.append(make_loop(chart, nodes))
    return SweepoutFamily(members)


def random_loop(chart: Chart, rng: np.random.Generator, n_nodes: int = 128,
                winding: int = 0, r_band: tuple[float, float] = (0.0, 3.0)) -> DiscreteLoop:
    """Seeded random smooth loop, contractible or winding once.

    Contractible: a center point plus a low-order random Fourier polygon.
    Winding: a graph over the periodic angle with random Fourier height.
    Every Fourier amplitude is scaled by 0.6.
    """
    ts = 2 * np.pi * np.arange(n_nodes) / n_nodes
    if winding:
        if chart.periods is None:
            raise ConfigError(f"{chart.name}: no periodic coordinate to wind around")
        z0 = chart.sample_point(rng, *r_band)[0]
        height = np.full(n_nodes, z0)
        for k in (1, 2):
            height = height + 0.6 * rng.uniform(-0.5, 0.5) * np.cos(k * ts + rng.uniform(0, 2 * np.pi))
        return make_loop(chart, np.stack([height, ts], axis=1))
    center = chart.sample_point(rng, *r_band)
    nodes = np.broadcast_to(center, (n_nodes, 2)).copy()
    for k in (1, 2, 3):
        amp = 0.6 * rng.uniform(0.2, 1.0) / k
        phase = rng.uniform(0, 2 * np.pi)
        nodes[:, 0] += amp * np.cos(k * ts + phase)
        nodes[:, 1] += amp * np.sin(k * ts + rng.uniform(0, 2 * np.pi))
    return make_loop(chart, nodes)
