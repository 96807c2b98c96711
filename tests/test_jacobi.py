import numpy as np
import pytest

from geolab.charts import FlatPlane, TangentVector, flow_trajectory, make_chart, metric_speed
from geolab import jacobi
from geolab.errors import DomainEscapeError, NotAGeodesicError, SamplingStarvationError
from geolab.jacobi import (
    close_conjugate_points_check,
    conjugate_points,
    eigenspace_dimension,
    fixed_space_dimension,
    jacobi_propagate,
    nullity_via_monodromy,
    orthonormal_frame,
    refine_closed_orbit,
)
from geolab.loops import make_loop

from conftest import great_circle_loop, sample_inside, waist_loop


def test_flat_fundamental_solution_is_shear():
    plane = make_chart("plane")
    t = 2.5
    mono = jacobi_propagate(plane, TangentVector([0.0, 0.0], [1.0, 0.0]), t, 64)
    expected = np.block([
        [np.eye(2), t * np.eye(2)],
        [np.zeros((2, 2)), np.eye(2)],
    ])
    assert np.max(np.abs(mono.matrix - expected)) < 1e-8


def test_sphere_time_one_blocks():
    # loop closes at t = 1 with speed 2*pi: the normal block is a full
    # rotation (identity), the tangential block the unit shear
    sph = make_chart("sphere")
    mono = jacobi_propagate(sph, TangentVector([1.0, 0.0], [0.0, 2 * np.pi]), 1.0, 512)
    expected = np.eye(4)
    expected[0, 2] = 1.0  # tangential shear entry
    assert np.max(np.abs(mono.matrix - expected)) < 1e-5


def test_hyperbolic_normal_block_cosh_sinh():
    hyp = make_chart("hyperbolic")
    # unit metric speed at the origin: chart velocity 1/2
    mono = jacobi_propagate(hyp, TangentVector([0.0, 0.0], [0.5, 0.0]), 1.0, 512)
    a, b, c, d = mono.blocks
    for block, val in ((a, np.cosh(1)), (b, np.sinh(1)), (c, np.sinh(1)), (d, np.cosh(1))):
        assert abs(block[1, 1] - val) < 1e-5
    # tangential column is the flat shear
    assert abs(a[0, 0] - 1) < 1e-9 and abs(b[0, 0] - 1) < 1e-9


def test_symplectic_invariant(zoo_chart, rng):
    for _ in range(3):
        x = sample_inside(zoo_chart, rng)
        v = rng.standard_normal(2)
        v = v / metric_speed(zoo_chart, x, v)
        try:
            mono = jacobi_propagate(zoo_chart, TangentVector(x, v), 2.0, 512)
        except Exception:
            continue
        assert mono.symplectic_defect() < 1e-6


def test_propagation_multiplicative():
    fun = make_chart("funnel")
    start = TangentVector([0.3, 0.1], [0.4, 0.8])
    t = 0.9
    full = jacobi_propagate(fun, start, 2 * t, 512)
    first = jacobi_propagate(fun, start, t, 256)
    second = jacobi_propagate(fun, TangentVector(first.end.base, first.end.v), t, 256,
                              initial_frame=first.frame1)
    composed = second.matrix @ first.matrix
    assert np.max(np.abs(composed - full.matrix)) < 1e-5


def test_orthonormal_frame_is_orthonormal(zoo_chart, rng):
    x = sample_inside(zoo_chart, rng)
    v = rng.standard_normal(2)
    e = orthonormal_frame(zoo_chart, x, v)
    g = zoo_chart.metric(x)
    gram = e.T @ g @ e
    assert np.allclose(gram, np.eye(2), atol=1e-12)
    # first vector along v: their 2-D cross product vanishes
    assert abs(e[0, 0] * v[1] - e[1, 0] * v[0]) < 1e-12 * np.linalg.norm(v)


def test_sphere_conjugate_points_half_and_full():
    # normal Jacobi solutions vanish at the zeros of sin(2*pi*s): s = 1/2, 1
    sph = make_chart("sphere")
    report = conjugate_points(sph, TangentVector([1.0, 0.0], [0.0, 2 * np.pi]), 1.0, 512)
    assert report.count == 2
    times = [s for s, _ in report.times]
    mults = [m for _, m in report.times]
    assert abs(times[0] - 0.5) < 1e-3 and abs(times[1] - 1.0) < 1e-3
    assert mults == [1, 1]
    assert report.count_open(1.0) == 1


def test_sphere_conjugate_iterate_times():
    # m = 2: zeros of sin(4*pi*s) at k/4
    sph = make_chart("sphere")
    report = conjugate_points(sph, TangentVector([1.0, 0.0], [0.0, 4 * np.pi]), 1.0, 1024)
    times = np.array([s for s, _ in report.times])
    assert report.count == 4
    assert np.allclose(times, [0.25, 0.5, 0.75, 1.0], atol=1e-3)
    assert report.count_open(1.0) == 3


def test_conjugate_additive_at_regular_split():
    # counting is relative to the original start: splitting the interval at
    # a non-conjugate time partitions the same zero set, and the first part
    # recomputed over the shorter interval must agree
    sph = make_chart("sphere")
    start = TangentVector([1.0, 0.0], [0.0, 4 * np.pi])  # two turns: 4 zeros
    split = 0.6
    total = conjugate_points(sph, start, 1.0, 1024)
    first = conjugate_points(sph, start, split, 1024)
    late = sum(m for s, m in total.times if s > split)
    assert first.count + late == total.count
    early = [s for s, _ in total.times if s <= split]
    assert np.allclose(early, [s for s, _ in first.times], atol=1e-3)


@pytest.mark.parametrize("name", ["plane", "cylinder", "hyperbolic"])
def test_no_conjugate_points_nonpositive_curvature(name, rng):
    chart = make_chart(name)
    for _ in range(20):
        x = sample_inside(chart, rng)
        v = rng.standard_normal(2)
        v = v / metric_speed(chart, x, v)
        try:
            report = conjugate_points(chart, TangentVector(x, v), 4.0, 256)
        except Exception:
            continue
        assert report.count == 0


def test_conjugate_report_validates_ordering():
    from geolab.jacobi import ConjugateReport
    with pytest.raises(ValueError):
        ConjugateReport(times=[(0.5, 1), (0.3, 1)], t=1.0)


def test_nullity_cylinder_shear_kernel():
    cyl = make_chart("cylinder")
    loop = waist_loop(cyl, 256)
    for m in (1, 2, 3):
        assert nullity_via_monodromy(cyl, loop, m) == 2


def test_nullity_sphere_all_iterates():
    sph = make_chart("sphere")
    loop = great_circle_loop(sph, 256)
    for m in range(1, 7):
        assert nullity_via_monodromy(sph, loop, m) == 3


def test_nullity_funnel_waist():
    fun = make_chart("funnel")
    loop = waist_loop(fun, 256)
    for m in (1, 2, 3, 4):
        assert nullity_via_monodromy(fun, loop, m) == 1


def test_nullity_rejects_non_geodesic(rng):
    fun = make_chart("funnel")
    ts = 2 * np.pi * np.arange(64) / 64
    # a circle at z = 1 is far from any closed geodesic
    loop = make_loop(fun, np.stack([np.full(64, 1.0), ts], axis=1))
    with pytest.raises(NotAGeodesicError):
        nullity_via_monodromy(fun, loop, 1)


def test_fixed_space_dimension_elliptic_partition():
    # rotation by 2*pi/3 in one symplectic plane: fixed only when 3 | m
    theta = 2 * np.pi / 3
    rot = np.array([[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]])
    p = np.eye(4)
    p[np.ix_([1, 3], [1, 3])] = rot
    for m in range(1, 7):
        expected = 2 + 2 * (m % 3 == 0)
        assert fixed_space_dimension(p, m) == expected


def test_eigenspace_dimension_counts_geometric_multiplicity():
    # a shear (one Jordan block at 1) next to a rotation by 2*pi/3
    theta = 2 * np.pi / 3
    p = np.zeros((4, 4))
    p[:2, :2] = [[1.0, 2.0], [0.0, 1.0]]
    p[2:, 2:] = [[np.cos(theta), np.sin(theta)], [-np.sin(theta), np.cos(theta)]]
    assert eigenspace_dimension(p, 1.0) == 1
    assert eigenspace_dimension(p, np.exp(2j * np.pi / 3)) == 1
    assert eigenspace_dimension(p, np.exp(-2j * np.pi / 3)) == 1
    assert eigenspace_dimension(p, -1.0) == 0


def test_refine_closed_orbit_tightens():
    # the shooting converges to the fixed point of the discrete flow map,
    # so the reachable residual is set by the RK4 step error
    sph = make_chart("sphere")
    x0 = np.array([1.0, 0.0]) * 1.001
    v0 = np.array([0.01, 2 * np.pi])
    mono, residual = refine_closed_orbit(sph, x0, v0, steps=1024)
    x = mono.start.base
    assert residual < 1e-7 * 2 * np.pi
    assert np.linalg.norm(x - [1.0, 0.0]) < 0.01


def test_close_check_plane_trivial():
    plane = make_chart("plane")
    report = close_conjugate_points_check(plane, ell=5.0, k_radius=0.0,
                                          n_samples=20, seed=1)
    assert report["curvature"]["pass"] and report["segments"]["pass"]
    assert report["pass"] and report["rauch_consistent"]


def test_close_check_paraboloid_curvature_threshold():
    # kappa(rho) = 4/(1+4 rho^2)^2 < (pi/10)^2 outside rho* ~ 1.158
    parab = make_chart("paraboloid")
    passing = close_conjugate_points_check(parab, ell=10.0, k_radius=1.2,
                                           n_samples=40, seed=2)
    assert passing["curvature"]["pass"] and passing["pass"]
    failing = close_conjugate_points_check(parab, ell=10.0, k_radius=1.0,
                                           n_samples=40, seed=2)
    assert not failing["curvature"]["pass"]


def test_close_check_bumped_cylinder(monkeypatch):
    bc = make_chart("bumped_cylinder")
    integrations = [0]
    integrate = jacobi._integrate_jacobi

    def counted(chart, start, *args, **kwargs):
        # segments are integrated in batches: count the members
        integrations[0] += len(start.base) if np.ndim(start.base) > 1 else 1
        return integrate(chart, start, *args, **kwargs)

    monkeypatch.setattr(jacobi, "_integrate_jacobi", counted)
    outside = close_conjugate_points_check(bc, ell=20.0, k_radius=2.0,
                                           n_samples=25, seed=3, sample_band=4.0)
    assert outside["pass"]
    # every sampled segment is integrated once, whether kept or discarded
    segments = outside["segments"]
    assert integrations[0] == segments["checked"] + segments["discarded"]
    # the draw order: x then v per attempt, the same sequence as one by one
    assert segments["discarded"] == 9
    integrations[0] = 0
    crossing = close_conjugate_points_check(bc, ell=12.0, k_radius=0.0,
                                            n_samples=25, seed=3, sample_band=3.0)
    assert not crossing["curvature"]["pass"]
    assert not crossing["segments"]["pass"]
    segments = crossing["segments"]
    assert integrations[0] == segments["checked"] + segments["discarded"]
    assert segments["discarded"] == 0
    assert len(segments["conjugate_hits"]) == 4
    assert crossing["rauch_consistent"]
    # the scan of the check's own grid is the report conjugate_points gives
    monkeypatch.setattr(jacobi, "_integrate_jacobi", integrate)
    for hit in segments["conjugate_hits"]:
        report = conjugate_points(bc, TangentVector(hit["start"], hit["velocity"]), 12.0,
                                  steps=384)
        assert [[s, mu] for s, mu in report.times] == hit["times"]


def test_close_check_propagates_programming_errors():
    class BrokenPlane(FlatPlane):
        def metric(self, x):
            raise TypeError("metric bug")

    with pytest.raises(TypeError):
        close_conjugate_points_check(BrokenPlane(), ell=5.0, k_radius=0.0, n_samples=5)


def test_close_check_starves_without_admissible_curvature_samples():
    class NowherePlane(FlatPlane):
        def contains(self, x):
            return np.zeros(np.shape(x)[:-1], dtype=bool)

    with pytest.raises(SamplingStarvationError):
        close_conjugate_points_check(NowherePlane(), ell=5.0, k_radius=0.0, n_samples=5)


def test_close_check_segment_starvation_trips_at_attempt_limit():
    class FloorPlane(FlatPlane):
        # every segment reaches r = 0 = k_radius, so every one is discarded
        def exhaustion(self, x):
            return np.zeros(np.shape(x)[:-1])

    with pytest.raises(SamplingStarvationError, match="after 301 attempts"):
        close_conjugate_points_check(FloorPlane(), ell=2.0, k_radius=0.0, n_samples=3)


def test_batched_integration_equals_per_start():
    # safe starts and three that leave the guard radius 10: [9, 0] at speed
    # 50 in the stage points of the first step, [5, 0] at speed 5 in a stage
    # point of step 8, and one whose new point leaves while every RK4 stage
    # point of that step is inside (from 9.344 to 9.353 on this ray)
    sph = make_chart("sphere")
    base = np.array([[1.0, 0.0], [0.3, -0.2], [9.0, 0.0], [0.5, 0.5], [9.35, 0.0],
                     [5.0, 0.0]])
    vel = np.array([[0.0, 2 * np.pi], [1.0, 0.4], [50.0, 0.0], [-0.7, 1.1],
                    [20 * np.cos(1.0), 20 * np.sin(1.0)], [5.0, 0.0]])
    steps = 16
    h = 1.0 / steps
    batch = TangentVector(base, vel)
    xs, vs, flow_exit = flow_trajectory(sph, batch, 1.0, steps)
    *grid, jacobi_exit = jacobi._integrate_jacobi(sph, batch, 1.0, steps)
    exits = []
    for i, (x0, v0) in enumerate(zip(base, vel)):
        start = TangentVector(x0, v0)
        try:
            x, v = flow_trajectory(sph, start, 1.0, steps)
        except DomainEscapeError as exc:
            assert flow_exit[i] == exc.exit_time
            with pytest.raises(DomainEscapeError) as jexc:
                jacobi._integrate_jacobi(sph, start, 1.0, steps)
            assert jacobi_exit[i] == jexc.value.exit_time
            last = np.flatnonzero(np.isfinite(xs[i, :, 0]))[-1]
            assert np.all(np.isnan(xs[i, last + 1:])) and np.all(np.isnan(grid[3][i, last + 1:]))
            exits.append("stage" if exc.exit_time == last * h else "point")
            continue
        assert np.isinf(flow_exit[i]) and np.isinf(jacobi_exit[i])
        assert np.array_equal(x, xs[i]) and np.array_equal(v, vs[i])
        single = jacobi._integrate_jacobi(sph, start, 1.0, steps)
        for a, b in zip(single, grid):
            assert np.max(np.abs(a - b[i])) <= 1e-12
    assert exits == ["stage", "point", "stage"]
    assert list(flow_exit[[2, 4, 5]]) == [0.0, h, 8 * h]


def test_close_check_rejects_compact_chart():
    sph = make_chart("sphere")
    with pytest.raises(ValueError):
        close_conjugate_points_check(sph, ell=1.0, k_radius=0.0)
