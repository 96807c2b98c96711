import json

import numpy as np
import pytest

from geolab.charts import TangentVector, make_chart
from geolab.jacobi import jacobi_propagate
from geolab.loops import DiscreteLoop, make_loop, validate_loop
from geolab.penalty import PenaltySchedule

ZOO = ["plane", "cylinder", "sphere", "hyperbolic", "paraboloid", "funnel",
       "bumped_cylinder"]


@pytest.fixture(params=ZOO)
def zoo_chart(request):
    return make_chart(request.param)


@pytest.fixture
def rng():
    return np.random.default_rng(0xC10C)


def sample_inside(chart, rng):
    """A random point comfortably inside the chart domain."""
    if chart.compact:
        return chart.sample_point(rng, 0.0, 1.5)
    return chart.sample_point(rng, 0.2, 2.5)


def circle_nodes(radius, n, center=(0.0, 0.0)):
    ts = 2 * np.pi * np.arange(n) / n
    return np.asarray(center) + radius * np.stack([np.cos(ts), np.sin(ts)], axis=1)


def save_loop_json(chart, loop, path):
    """Write ``loop`` as the JSON object that ``analyze`` reads (nodes and gauge frame)."""
    with open(path, "w") as fh:
        json.dump({"chart": chart.name, "frame": loop.frame, "nodes": loop.nodes.tolist()}, fh)


def loop_length(chart, loop):
    """Polygonal metric length sum_i g(m_i)(Delta_i, Delta_i)^(1/2)."""
    deltas = validate_loop(chart, loop)
    g = chart.metric(loop.nodes + 0.5 * deltas)
    return float(np.sum(np.sqrt(np.einsum("ni,nij,nj->n", deltas, g, deltas))))


def waist_loop(chart, n):
    """The z = 0 circle on a revolution chart (exactly critical there)."""
    return make_loop(chart, np.stack([np.zeros(n), 2 * np.pi * np.arange(n) / n], axis=1))


def great_circle_loop(chart, n):
    """Exact discrete critical polygon for the stereographic equator.

    The discrete energy of a polygon inscribed at chart radius a is
    stationary at a = 1/cos(pi/N) (segment midpoints then sit exactly on
    the unit circle where the conformal factor is 1).
    """
    return make_loop(chart, circle_nodes(1.0 / np.cos(np.pi / n), n))


def shoot_corner_arc(chart, z0, guess, steps=1024):
    """Geodesic arc from (z0, 0) to (z0, 2*pi) in unit time on a revolution chart.

    By the theta-reflection/time-reversal symmetry the arc returns with
    velocity (-a, b), so its basepoint velocity jump is purely radial:
    (-2a, 0).  Damped Newton on the 2x2 shooting system; returns the
    initial velocity and trajectory arrays, on ``steps`` even steps.
    """
    target = np.array([z0, 2 * np.pi])
    h = 1e-7
    # the centre start and the four central-difference starts, one batch
    offsets = np.array([[0.0, 0.0], [h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    bases = np.tile([z0, 0.0], (len(offsets), 1))
    av = np.asarray(guess, dtype=float)
    grid = np.linspace(0.0, 1.0, steps + 1)
    for _ in range(60):
        xs = jacobi_propagate(chart, TangentVector(bases, av + offsets), 1.0, grid)[0].x
        ends = xs[:, -1] - target
        f = ends[0]
        if np.linalg.norm(f) < 1e-11:
            break
        jac = np.stack([ends[1] - ends[2], ends[3] - ends[4]], axis=1) / (2 * h)
        step = np.linalg.solve(jac, -f)
        while np.linalg.norm(step) > 0.5:
            step = step / 2
        av = av + step
    orbit = jacobi_propagate(chart, TangentVector([z0, 0.0], av), 1.0, grid)
    xs, vs = orbit.x, orbit.v
    assert np.linalg.norm(xs[-1] - target) < 1e-9, "corner-arc shooting failed"
    return av, xs, vs


@pytest.fixture(scope="session")
def corner_point():
    """A true penalty-supported critical point on the bumped cylinder.

    An arc launched outward (a > 0) from inside the bump's concave zone
    oscillates once around the bump waist and closes up with radial jump
    v(0-) - v(0+) = (-2a, 0); choosing the ramp stiffness
    c = 4a / (3 (z0 - R)^2) makes that jump equal to -1/2 grad f, i.e. the
    sampled loop is stationary for the penalized energy with basepoint on
    the support.  (Geodesic convexity of z rules such points out on the
    funnel; the bump's concave zone is where they live.)
    """
    z0 = 0.5
    r0 = 0.2
    chart = make_chart("bumped_cylinder")
    av, xs, vs = shoot_corner_arc(chart, z0, guess=(1.66, 6.9))
    a = av[0]
    assert a > 0
    stiffness = 4.0 * a / (3.0 * (z0 - r0) ** 2)
    schedule = PenaltySchedule(r0=r0, dr=1.0, stiffness=stiffness)

    def loop_at(n_nodes):
        stride = (xs.shape[0] - 1) // n_nodes
        assert stride * n_nodes == xs.shape[0] - 1
        return make_loop(chart, xs[:-1:stride])

    return {"chart": chart, "schedule": schedule, "alpha": 0, "z0": z0,
            "jump": -2.0 * a, "loop_at": loop_at}
