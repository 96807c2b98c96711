import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geolab.charts import make_chart
from geolab.errors import RefineNeededError
from geolab.loops import (
    DiscreteLoop,
    circle_shift,
    double_nodes,
    energy,
    energy_gradient,
    iterate,
    loop_from_csv,
    loop_from_json_dict,
    loop_length,
    loop_to_csv,
    loop_distance,
    loop_to_json_dict,
    make_loop,
    midpoint_loop,
    one_sided_velocities,
    sample_curve,
    winding_numbers,
)

from conftest import ZOO, circle_nodes, sample_inside


def random_smooth_loop(chart, rng, n=32, scale=0.3):
    if chart.name == "hyperbolic":
        # stay away from the disk boundary, where the metric blows up
        center = chart.sample_point(rng, 0.2, 1.2)
        scale = min(scale, 0.05)
    else:
        center = sample_inside(chart, rng)
    ts = 2 * np.pi * np.arange(n) / n
    nodes = np.broadcast_to(center, (n, 2)).copy()
    for k in (1, 2):
        nodes[:, 0] += scale * rng.uniform(0.2, 1.0) / k * np.cos(k * ts + rng.uniform(0, 7))
        nodes[:, 1] += scale * rng.uniform(0.2, 1.0) / k * np.sin(k * ts + rng.uniform(0, 7))
    return make_loop(chart, nodes)


def test_loop_requires_eight_nodes():
    with pytest.raises(ValueError):
        DiscreteLoop(np.zeros((4, 2)))


def test_energy_constant_loop_zero(zoo_chart, rng):
    x = sample_inside(zoo_chart, rng)
    loop = make_loop(zoo_chart, np.broadcast_to(x, (16, 2)).copy())
    assert energy(zoo_chart, loop) == 0.0


def test_energy_flat_polygon_chord_oracle():
    plane = make_chart("plane")
    for n, r in [(16, 0.5), (64, 1.0), (128, 2.0)]:
        loop = make_loop(plane, circle_nodes(r, n))
        oracle = 4.0 * n**2 * np.sin(np.pi / n) ** 2 * r**2
        assert abs(energy(plane, loop) - oracle) < 1e-12 * oracle


def test_length_flat_circle_chord_oracle():
    plane = make_chart("plane")
    n = 64
    loop = make_loop(plane, circle_nodes(1.0, n))
    assert abs(loop_length(plane, loop) - 2 * n * np.sin(np.pi / n)) < 1e-12
    assert loop_length(plane, make_loop(plane, np.zeros((16, 2)))) == 0.0


def test_energy_cyclic_rotation_invariance(rng):
    fun = make_chart("funnel")
    loop = random_smooth_loop(fun, rng)
    e0 = energy(fun, loop)
    for k in (1, 7, 31):
        assert abs(energy(fun, circle_shift(loop, k)) - e0) <= 1e-13 * e0


def test_circle_shift_composition(rng):
    plane = make_chart("plane")
    loop = random_smooth_loop(plane, rng)
    a = circle_shift(circle_shift(loop, 5), 9)
    b = circle_shift(loop, 14)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(circle_shift(loop, 0).nodes, loop.nodes)


def test_energy_relift_invariance():
    cyl = make_chart("cylinder")
    ts = 2 * np.pi * np.arange(32) / 32
    nodes = np.stack([0.1 * np.sin(ts), ts], axis=1)
    shifted = nodes.copy()
    shifted[5:, 1] += 2 * np.pi * 3  # re-lift part of the angle coordinate
    a = make_loop(cyl, nodes)
    b = make_loop(cyl, shifted)
    assert energy(cyl, a) == energy(cyl, b)


def test_gradient_matches_directional_fd(zoo_chart, rng):
    # 50 random loops per chart, one random direction each
    worst = 0.0
    for _ in range(50):
        loop = random_smooth_loop(zoo_chart, rng, n=24, scale=0.2)
        grad = energy_gradient(zoo_chart, loop)
        u = rng.standard_normal(loop.nodes.shape)
        h = 1e-6
        ep = energy(zoo_chart, DiscreteLoop(loop.nodes + h * u, frame=loop.frame))
        em = energy(zoo_chart, DiscreteLoop(loop.nodes - h * u, frame=loop.frame))
        fd = (ep - em) / (2 * h)
        an = float(np.sum(grad * u))
        worst = max(worst, abs(an - fd) / max(abs(fd), 1e-10))
    assert worst < 1e-5


def test_gradient_flat_polygon_symmetry():
    plane = make_chart("plane")
    loop = make_loop(plane, circle_nodes(1.0, 32))
    grad = energy_gradient(plane, loop)
    norms = np.linalg.norm(grad, axis=1)
    assert np.max(norms) - np.min(norms) < 1e-10
    # radially inward
    radial = np.einsum("ni,ni->n", grad, loop.nodes)
    assert np.all(radial > 0)


def test_constant_loop_gradient_zero(zoo_chart, rng):
    x = sample_inside(zoo_chart, rng)
    loop = make_loop(zoo_chart, np.broadcast_to(x, (16, 2)).copy())
    assert np.allclose(energy_gradient(zoo_chart, loop), 0.0)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_iterate_energy_scaling(m, rng):
    fun = make_chart("funnel")
    loop = random_smooth_loop(fun, rng)
    e1 = energy(fun, loop)
    em = energy(fun, iterate(loop, m))
    assert abs(em - m**2 * e1) <= 1e-12 * m**2 * e1
    assert iterate(loop, 1).nodes.shape == loop.nodes.shape
    const = make_loop(fun, np.broadcast_to([0.3, 0.1], (16, 2)).copy())
    assert energy(fun, iterate(const, m)) == 0.0


def test_iterate_rejects_bad_m(rng):
    plane = make_chart("plane")
    with pytest.raises(ValueError):
        iterate(random_smooth_loop(plane, rng), 0)


def test_winding_numbers():
    cyl = make_chart("cylinder")
    ts = 2 * np.pi * np.arange(64) / 64
    assert winding_numbers(cyl, make_loop(cyl, np.stack([0 * ts, ts], axis=1))) == {1: 1}
    assert winding_numbers(cyl, make_loop(cyl, np.stack([0 * ts, 2 * ts], axis=1))) == {1: 2}
    plane = make_chart("plane")
    assert winding_numbers(plane, make_loop(plane, circle_nodes(1.0, 16))) == {}


def test_segment_cap_enforced():
    plane = make_chart("plane")
    nodes = circle_nodes(3.0, 16)  # chord 2*3*sin(pi/16) = 1.17 > 0.5
    with pytest.raises(RefineNeededError):
        energy(plane, make_loop(plane, nodes))


def test_refinement_second_order():
    plane = make_chart("plane")
    errs = []
    for n in (64, 128, 256):
        loop = sample_curve(plane, lambda t: [np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)], n)
        errs.append(abs(energy(plane, loop) - 4 * np.pi**2))
    assert 3.5 < errs[0] / errs[1] < 4.5
    assert 3.5 < errs[1] / errs[2] < 4.5


def test_double_nodes_preserves_trace_and_refines(rng):
    fun = make_chart("funnel")
    loop = random_smooth_loop(fun, rng)
    doubled = double_nodes(fun, loop)
    assert doubled.n_nodes == 2 * loop.n_nodes
    assert np.allclose(doubled.nodes[0::2], loop.nodes)
    # energies agree to discretization order
    assert abs(energy(fun, doubled) - energy(fun, loop)) < 0.1 * energy(fun, loop)


def test_one_sided_velocities_on_geodesic_loops():
    # the covariant chord correction is second-order only for loops that
    # sample geodesics; the cylinder waist is exact (straight in the chart)
    cyl = make_chart("cylinder")
    n = 256
    ts = 2 * np.pi * np.arange(n) / n
    waist = make_loop(cyl, np.stack([np.zeros(n), ts], axis=1))
    v_minus, v_plus = one_sided_velocities(cyl, waist)
    assert np.allclose(v_plus, [0.0, 2 * np.pi], atol=1e-12)
    assert np.allclose(v_minus, v_plus, atol=1e-12)
    # stereographic equator: curved in the chart, correction does real work
    sph = make_chart("sphere")
    a = 1.0 / np.cos(np.pi / n)
    gc = make_loop(sph, a * np.stack([np.cos(ts), np.sin(ts)], axis=1))
    v_minus, v_plus = one_sided_velocities(sph, gc)
    assert np.linalg.norm(v_plus - [0.0, 2 * np.pi * a]) < 5e-3
    assert np.linalg.norm(v_minus - v_plus) < 5e-3


def stack_of(loops):
    return DiscreteLoop(np.stack([lp.nodes for lp in loops]), np.array([lp.frame for lp in loops]))


def stacked_equals_pairs_alone(chart, pairs):
    """Stacked distance and midpoint of ``pairs``, checked bitwise against each pair alone."""
    a, b = stack_of([p[0] for p in pairs]), stack_of([p[1] for p in pairs])
    dist, mids = loop_distance(chart, a, b), midpoint_loop(chart, a, b)
    for s, (a1, b1) in enumerate(pairs):
        d1, m1 = loop_distance(chart, a1, b1), midpoint_loop(chart, a1, b1)
        assert isinstance(d1, float) and dist[s] == d1
        assert np.array_equal(mids.nodes[s], m1.nodes) and mids.frame[s] == m1.frame
    return dist, mids


def test_stacked_neighbor_calls_sphere_gauges():
    sph = make_chart("sphere")
    n = 16

    def circle(radius, frame):
        return make_loop(sph, circle_nodes(radius, n), frame=frame)

    pairs = [
        (circle(0.5, 0), make_loop(sph, circle_nodes(0.6, n, (0.05, 0.0)))),  # same gauge
        (circle(0.8, 0), make_loop(sph, sph.recenter_map(circle_nodes(0.9, n)), frame=1)),
        # b is the radius-20 circle in gauge 0, beyond the guard; a is radius 5 in gauge 1
        (circle(0.2, 0), circle(0.05, 1)),
        (circle(0.05, 0), circle(0.05, 1)),                   # no common gauge
    ]
    dist, _ = stacked_equals_pairs_alone(sph, pairs)
    assert abs(dist[1] - 0.1) < 1e-12
    assert abs(dist[2] - 5.05) < 1e-12
    assert dist[3] == np.inf


def test_stacked_neighbor_calls_cylinder_wrap():
    cyl = make_chart("cylinder")
    n = 16
    ts = 2 * np.pi * np.arange(n) / n
    z = 0.1 * np.cos(ts)

    def loop(dz, dtheta):
        return make_loop(cyl, np.stack([z + dz, ts + dtheta], axis=1))

    # node 0 of the first pair sits at theta = 2 pi - 0.01 against 0.02
    pairs = [(loop(0.0, -0.01), loop(0.04, 0.02)), (loop(0.0, 1.0), loop(0.03, 1.04))]
    dist, mids = stacked_equals_pairs_alone(cyl, pairs)
    assert np.allclose(dist, 0.05, rtol=0, atol=1e-12)
    assert np.allclose(mids.nodes[0], cyl.reduce_point(np.stack([z + 0.02, ts + 0.005], axis=1)),
                       rtol=0, atol=1e-12)


def test_csv_round_trip(rng):
    plane = make_chart("plane")
    loop = random_smooth_loop(plane, rng)
    back = loop_from_csv(loop_to_csv(loop))
    assert np.array_equal(back.nodes, loop.nodes)
    with pytest.raises(ValueError):
        loop_from_csv("bogus,header\n0,1.0,2.0\n")


def test_json_round_trip_carries_winding_and_frame():
    cyl = make_chart("cylinder")
    ts = 2 * np.pi * np.arange(32) / 32
    loop = make_loop(cyl, np.stack([0.2 * np.cos(ts), ts], axis=1))
    data = loop_to_json_dict(cyl, loop)
    assert data["winding"] == {"1": 1}
    assert data["chart"] == "cylinder"
    back = loop_from_json_dict(data)
    assert np.array_equal(back.nodes, loop.nodes)
    assert back.frame == loop.frame


# -- property tests ---------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    radius=st.floats(0.05, 1.2),
    wobble=st.floats(0.0, 0.2),
    phase=st.floats(0.0, 6.3),
    k=st.integers(0, 31),
    m=st.integers(1, 8),
)
def test_property_shift_and_iterate(radius, wobble, phase, k, m):
    plane = make_chart("plane")
    ts = 2 * np.pi * np.arange(32) / 32
    r = radius * (1.0 + wobble * np.cos(3 * ts + phase))
    loop = make_loop(plane, np.stack([r * np.cos(ts), r * np.sin(ts)], axis=1))
    e = energy(plane, loop)
    assert abs(energy(plane, circle_shift(loop, k)) - e) <= 1e-12 * max(e, 1e-12)
    assert abs(energy(plane, iterate(loop, m)) - m**2 * e) <= 1e-12 * max(m**2 * e, 1e-12)


@settings(max_examples=25, deadline=None)
@given(
    z0=st.floats(-1.0, 1.0),
    amp=st.floats(0.0, 0.4),
    phase=st.floats(0.0, 6.3),
)
def test_property_length_squared_below_energy(z0, amp, phase):
    # discrete Cauchy-Schwarz: length^2 <= energy for every loop
    fun = make_chart("funnel")
    ts = 2 * np.pi * np.arange(48) / 48
    nodes = np.stack([z0 + amp * np.sin(2 * ts + phase), ts], axis=1)
    loop = make_loop(fun, nodes)
    length = loop_length(fun, loop)
    assert length**2 <= energy(fun, loop) * (1 + 1e-12)
