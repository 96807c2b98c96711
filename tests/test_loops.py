import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geolab.charts import _squared_norm, make_chart
from geolab.errors import RefineNeededError
from geolab.loops import (
    DiscreteLoop,
    circle_shift,
    double_nodes,
    energy,
    energy_gradient,
    in_gauge,
    iterate,
    load_loop_json,
    loop_from_csv,
    loop_to_csv,
    loop_distance,
    make_loop,
    maybe_recenter,
    midpoint_loop,
    one_sided_velocities,
    pair_distance,
    precondition,
    segment_checks,
    segment_deltas,
    validate_loop,
    winding_numbers,
)

from conftest import ZOO, circle_nodes, loop_length, sample_inside, save_loop_json


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
        loop = make_loop(plane, circle_nodes(1.0, n))
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


def test_one_sided_velocities_at_nodes_are_the_shifted_loops_basepoint_values(rng):
    # node k of a loop is the basepoint of the loop shifted by k; an index
    # array gives every listed node's pair from one evaluation, bit for bit
    sph = make_chart("sphere")
    loop = make_loop(sph, circle_nodes(0.6, 32) + 0.05 * rng.standard_normal((32, 2)))
    idx = np.array([0, 5, 31])
    v_minus, v_plus = one_sided_velocities(sph, loop, idx)
    assert v_minus.shape == v_plus.shape == (3, 2)
    for row, k in enumerate(idx):
        alone = one_sided_velocities(sph, circle_shift(loop, k))
        assert np.array_equal(v_minus[row], alone[0]) and np.array_equal(v_plus[row], alone[1])


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
    # the gauge each distance is read in: a's, or b's where a's cannot hold both
    a, b = stack_of([p[0] for p in pairs]), stack_of([p[1] for p in pairs])
    assert list(pair_distance(sph, a, b)[1]) == [0, 0, 1, 0]


def test_weighted_midpoint_loop():
    sph = make_chart("sphere")
    n = 16
    pairs = [
        (make_loop(sph, circle_nodes(0.5, n)), make_loop(sph, circle_nodes(0.6, n, (0.05, 0.0)))),
        (make_loop(sph, circle_nodes(0.8, n)),
         make_loop(sph, sph.recenter_map(circle_nodes(0.9, n)), frame=1)),
        (make_loop(sph, circle_nodes(0.3, n), frame=1), make_loop(sph, circle_nodes(0.35, n))),
    ]
    a, b = stack_of([p[0] for p in pairs]), stack_of([p[1] for p in pairs])
    # the default weight is the midpoint as it was always taken: b in a's
    # gauge, half the wrapped difference, then recentered
    flip = a.frame != b.frame
    bn = np.where(flip[:, None, None], sph.recenter_map(b.nodes), b.nodes)
    old = maybe_recenter(sph, make_loop(sph, a.nodes + 0.5 * sph.wrap_difference(bn - a.nodes),
                                        frame=a.frame))
    mids = midpoint_loop(sph, a, b)
    assert np.array_equal(mids.nodes, old.nodes) and np.array_equal(mids.frame, old.frame)
    assert np.array_equal(midpoint_loop(sph, a, b, 0.5).nodes, mids.nodes)
    # weight 0 is a itself, bit for bit
    for a1, b1 in pairs:
        assert np.array_equal(midpoint_loop(sph, a1, b1, 0.0).nodes, a1.nodes)
    assert np.array_equal(midpoint_loop(sph, a, b, np.zeros(3)).nodes, a.nodes)
    # one weight per pair on a stack equals the pairs taken one at a time
    w = np.array([0.25, 0.7, 0.0])
    stacked = midpoint_loop(sph, a, b, w)
    for s, (a1, b1) in enumerate(pairs):
        alone = midpoint_loop(sph, a1, b1, w[s])
        assert np.array_equal(stacked.nodes[s], alone.nodes)
        assert stacked.frame[s] == alone.frame
    # in one gauge the weight is the fraction of the pair's distance
    part = loop_distance(sph, pairs[0][0], DiscreteLoop(stacked.nodes[0], stacked.frame[0]))
    assert abs(part - 0.25 * loop_distance(sph, *pairs[0])) < 1e-12


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


def test_json_round_trip_carries_frame(tmp_path):
    sph = make_chart("sphere")
    loop = make_loop(sph, circle_nodes(0.4, 32), frame=1)
    save_loop_json(sph, loop, tmp_path / "loop.json")
    back = load_loop_json(tmp_path / "loop.json")
    assert np.array_equal(back.nodes, loop.nodes)
    assert back.frame == loop.frame == 1


# -- the stack kernels against the formulas they replace, bit for bit -------
#
# A descent step sums over the length-2 coordinate axis term by term and
# transforms along a contiguous node axis.  The formulas below are the
# reductions, einsums and strided transforms those kernels replace; every
# value must equal theirs bit for bit, on a stack and member by member.


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(np.ascontiguousarray(a).view(np.uint64),
                                                  np.ascontiguousarray(b).view(np.uint64))


def norm_oracle(x):
    return np.linalg.norm(x, axis=-1)


def energy_oracle(chart, loop):
    deltas = validate_loop(chart, loop)
    g = chart.metric(loop.nodes + 0.5 * deltas)
    e = loop.n_nodes * np.einsum("...ni,...nij,...nj->...", deltas, g, deltas)
    return float(e) if e.ndim == 0 else e


def gradient_oracle(chart, loop):
    deltas = validate_loop(chart, loop)
    mids = loop.nodes + 0.5 * deltas
    qd = np.einsum("...nkij,...ni,...nj->...nk", chart.metric_deriv(mids), deltas, deltas)
    gd = np.einsum("...nij,...nj->...ni", chart.metric(mids), deltas)
    return loop.n_nodes * (2.0 * np.roll(gd, 1, axis=-2) - 2.0 * gd
                           + 0.5 * np.roll(qd, 1, axis=-2) + 0.5 * qd)


def regrouped_gradient(chart, loop):
    """The conformal gradient with qd_k = d_k lambda |D|^2: equal to
    ``energy_gradient`` in exact arithmetic, not in floats."""
    deltas = validate_loop(chart, loop)
    mids = loop.nodes + 0.5 * deltas
    qd = chart.metric_deriv(mids)[..., 0, 0] * (deltas * deltas).sum(-1, keepdims=True)
    gd = np.einsum("...nij,...nj->...ni", chart.metric(mids), deltas)
    return loop.n_nodes * (2.0 * np.roll(gd, 1, axis=-2) - 2.0 * gd
                           + 0.5 * np.roll(qd, 1, axis=-2) + 0.5 * qd)


def precondition_oracle(grad):
    n = grad.shape[-2]
    lam = 1.0 / n + n * (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n))
    return np.fft.irfft(np.fft.rfft(grad, axis=-2) / lam[:, None], n=n, axis=-2)


def recenter_oracle(chart, loop):
    if not chart.has_recentering:
        return loop
    reach = norm_oracle(loop.nodes).max(axis=-1)
    flipped = chart.recenter_map(loop.nodes)
    flip = (reach > chart.recenter_trigger) & (norm_oracle(flipped).max(axis=-1) < reach)
    return DiscreteLoop(np.where(flip[..., None, None], flipped, loop.nodes),
                        frame=loop.frame ^ flip)


def pair_distance_oracle(chart, a, b):
    dist = np.full(a.nodes.shape[:-2], np.inf)
    gauge = np.broadcast_to(a.frame, dist.shape).copy()
    for g in (a.frame, b.frame):
        x, y = in_gauge(chart, a, g).nodes, in_gauge(chart, b, g).nodes
        hold = np.isinf(dist) & (chart.contains(x) & chart.contains(y)).all(axis=-1)
        far = norm_oracle(chart.wrap_difference(x - y)).max(axis=-1)
        dist, gauge = np.where(hold, far, dist), np.where(hold, g, gauge)
    return dist, gauge


def chart_kernel_oracles(chart, x):
    """(name, new value, oracle) of the chart kernels that sum over the coordinates."""
    out = []
    if np.isfinite(chart.guard_radius):
        out.append(("contains", chart.contains(x), np.sqrt((x * x).sum(-1)) < chart.guard_radius))
    if hasattr(chart, "_lam"):
        # the dense conformal jet as it was written before the diagonal jets:
        # the diagonals bit for bit, the dense forms up to the sign of their
        # zeros (+ 0.0 clears it: the old off-diagonal 0 carried d_k lambda's sign)
        s, s_kept = (x * x).sum(-1), (x * x).sum(-1, keepdims=True)
        g = chart._lam(s)[..., None, None] * np.eye(2)
        dg = (2 * chart._dlam(s_kept) * x)[..., :, None, None] * np.eye(2)
        out += [("metric_diag", chart.metric_diag(x), np.diagonal(g, 0, -2, -1)),
                ("metric_diag_deriv", chart.metric_diag_deriv(x), np.diagonal(dg, 0, -2, -1)),
                ("metric", chart.metric(x) + 0.0, g + 0.0),
                ("metric_deriv", chart.metric_deriv(x) + 0.0, dg + 0.0)]
    if chart.has_recentering:
        old = np.where(np.sum(x**2, axis=-1, keepdims=True) > 0,
                       x / np.maximum(np.sum(x**2, axis=-1, keepdims=True), 1e-300), np.inf)
        old[..., 1] *= -1
        out.append(("recenter_map", chart.recenter_map(x), old))
    return out


def kernel_stacks(chart, rng, n=128):
    """Two stacks (a, b) of loops on ``chart``, b mostly near a: winding loops
    with theta wrapped on the profile charts, both gauges and a loop past the
    recentering trigger on the sphere, and a constant loop on every chart
    (its zero deltas give signed-zero products)."""
    ts = 2 * np.pi * np.arange(n) / n
    if chart.periods is not None and chart.name != "paraboloid":
        loops = [make_loop(chart, np.stack([z0 + 0.3 * np.sin(k * ts + ph), ts + ph], axis=1))
                 for z0, k, ph in [(0.0, 1, 0.0), (-0.4, 2, 1.3), (0.7, 3, 5.9), (-1.2, 1, 3.1)]]
    elif chart.name == "sphere":
        loops = [make_loop(chart, nodes, frame=f) for nodes, f in [
            (circle_nodes(0.8, n), 0), (circle_nodes(0.5, n, (-0.1, 0.2)), 1),
            (circle_nodes(0.3, n, (3.3, 0.0)), 0),          # past the recentering trigger
            (circle_nodes(1.0 / np.cos(np.pi / n), n), 1)]]
        loops.append(make_loop(chart, np.zeros((n, 2))))     # the pole member
    else:
        loops = [random_smooth_loop(chart, rng, n, scale=0.1) for _ in range(4)]
    loops.append(make_loop(chart, np.broadcast_to(sample_inside(chart, rng), (n, 2))))
    a = stack_of(loops)
    nodes = chart.reduce_point(a.nodes + 1e-2 * rng.standard_normal(a.nodes.shape))
    b = DiscreteLoop(nodes, a.frame.copy())
    if chart.has_recentering:
        # b's odd members in the other gauge, and a first pair that only
        # b's gauge holds (b's first member lies past the guard in a's)
        b = in_gauge(chart, b, np.arange(len(loops)) % 2)
        b.nodes[0], b.frame[0] = circle_nodes(0.09, n), 1
    return a, b


def check_stack_kernels(chart, a, b, gradient=energy_gradient):
    for x in (a.nodes, b.nodes, segment_deltas(chart, a)):
        assert same_bits(np.sqrt(_squared_norm(x)), norm_oracle(x))
        assert same_bits(_squared_norm(x, keepdims=True), (x * x).sum(-1, keepdims=True))
        for name, new, old in chart_kernel_oracles(chart, x):
            assert same_bits(new, old), name
    # a member pushed over the segment cap
    pushed = a.nodes.copy()
    pushed[1, 5, 0] += 1.5 * chart.segment_cap
    for nodes in (a.nodes, pushed):
        deltas, over_cap, outside = segment_checks(chart, DiscreteLoop(nodes, a.frame))
        assert np.array_equal(over_cap, (norm_oracle(deltas) >= chart.segment_cap).any(axis=-1))
    assert over_cap[1] and not over_cap[0]
    assert same_bits(energy(chart, a), energy_oracle(chart, a)), "energy"
    grad = gradient(chart, a)
    assert same_bits(grad, gradient_oracle(chart, a)), "energy_gradient"
    p = precondition(grad)
    assert same_bits(p, precondition_oracle(grad))
    moved, moved_oracle = maybe_recenter(chart, a), recenter_oracle(chart, a)
    assert same_bits(moved.nodes, moved_oracle.nodes)
    assert np.array_equal(moved.frame, moved_oracle.frame)
    dist, gauge = pair_distance(chart, a, b)
    dist_oracle, gauge_oracle = pair_distance_oracle(chart, a, b)
    assert same_bits(dist, dist_oracle) and np.array_equal(gauge, gauge_oracle)
    # each row is its member evaluated alone
    for s in range(a.nodes.shape[0]):
        a1, b1 = DiscreteLoop(a.nodes[s], a.frame[s]), DiscreteLoop(b.nodes[s], b.frame[s])
        assert same_bits(energy(chart, a1), energy_oracle(chart, a1))
        grad1 = gradient(chart, a1)
        assert same_bits(grad1, gradient_oracle(chart, a1))
        assert same_bits(grad1, grad[s]) and same_bits(precondition(grad1), p[s])
        moved1 = maybe_recenter(chart, a1)
        assert same_bits(moved1.nodes, moved.nodes[s]) and moved1.frame == moved.frame[s]
        dist1, gauge1 = pair_distance(chart, a1, b1)
        assert same_bits(dist1, dist[s]) and gauge1 == gauge[s]
    return moved, dist


def test_stack_kernels_equal_the_reductions_they_replace(zoo_chart, rng):
    a, b = kernel_stacks(zoo_chart, rng)
    moved, dist = check_stack_kernels(zoo_chart, a, b)
    assert np.isfinite(dist).all()
    if zoo_chart.has_recentering:
        # the stack exercises both gauges, a flip and a pair read in b's gauge
        assert set(a.frame) == {0, 1} and (moved.frame != a.frame).any()
        assert (pair_distance(zoo_chart, a, b)[1] != a.frame).any()


def test_stack_kernel_check_fails_on_a_regrouped_gradient(rng):
    # negative control: d_k lambda |D|^2 is the same qd in exact arithmetic
    sph = make_chart("sphere")
    a, b = kernel_stacks(sph, rng)
    with pytest.raises(AssertionError, match="energy_gradient"):
        check_stack_kernels(sph, a, b, gradient=regrouped_gradient)


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
