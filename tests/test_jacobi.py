import numpy as np
import pytest

from geolab.charts import (FlatPlane, Funnel, TangentVector, make_chart, metric_speed,
                           sample_unit_starts)
from geolab import flow, jacobi
from geolab.errors import DomainEscapeError, NotAGeodesicError, SamplingStarvationError
from geolab.jacobi import (
    TIME_TOL,
    close_conjugate_points_check,
    conjugate_points,
    eigenspace_dimension,
    jacobi_propagate,
    nullity_via_monodromy,
    outgoing_orbit,
    refine_closed_orbit,
    shoot_closed_orbit,
    symplectic_defect,
    velocity_frame,
)
from geolab.loops import circle_shift, iterate, make_loop

from conftest import great_circle_loop, sample_inside, waist_loop


def test_flat_fundamental_solution_is_shear():
    plane = make_chart("plane")
    t = 2.5
    mono = jacobi_propagate(plane, TangentVector([0.0, 0.0], [1.0, 0.0]), t)
    expected = np.block([
        [np.eye(2), t * np.eye(2)],
        [np.zeros((2, 2)), np.eye(2)],
    ])
    assert np.max(np.abs(mono.matrix - expected)) < 1e-8


def test_sphere_time_one_blocks():
    # loop closes at t = 1 with speed 2*pi: the normal block is a full
    # rotation (identity), the tangential block the unit shear
    sph = make_chart("sphere")
    mono = jacobi_propagate(sph, TangentVector([1.0, 0.0], [0.0, 2 * np.pi]), 1.0)
    expected = np.eye(4)
    expected[0, 2] = 1.0  # tangential shear entry
    assert np.max(np.abs(mono.matrix - expected)) < 1e-5


def test_hyperbolic_normal_block_cosh_sinh():
    hyp = make_chart("hyperbolic")
    # unit metric speed at the origin: chart velocity 1/2
    orbit = jacobi_propagate(hyp, TangentVector([0.0, 0.0], [0.5, 0.0]), 1.0)
    expected = [[np.cosh(1), np.sinh(1)], [np.sinh(1), np.cosh(1)]]
    assert np.max(np.abs(orbit.y[-1] - expected)) < 1e-5
    assert np.array_equal(orbit.matrix[1::2, 1::2], orbit.y[-1])
    # tangential column is the flat shear
    assert orbit.matrix[0, 0] == 1.0 and orbit.matrix[0, 2] == 1.0


def test_chosen_steps_meet_the_analytic_oracles():
    # on the steps the error estimate chooses, Phi is within 20 FLOW_TOL of
    # the analytic one (fixed-step RK4 at h = 1/512 reached 3.1e-8 on the
    # great circle): the plane's shear, the great circle's shear (+) I at
    # t = 1 and the hyperbolic plane's cosh/sinh block; the great circle's
    # conjugate times 1/2 and 1 are read off that grid within TIME_TOL
    tol = 20 * jacobi.FLOW_TOL
    t = 2.5
    flat = jacobi_propagate(make_chart("plane"), TangentVector([0.0, 0.0], [1.0, 0.0]), t)
    shear = np.eye(4)
    shear[[0, 1], [2, 3]] = t
    assert np.max(np.abs(flat.matrix - shear)) < tol
    circle = jacobi_propagate(make_chart("sphere"), TangentVector([1.0, 0.0], [0.0, 2 * np.pi]),
                              1.0)
    shear = np.eye(4)
    shear[0, 2] = 1.0
    assert np.max(np.abs(circle.matrix - shear)) < tol
    assert len(circle.grid) < 512
    times = circle.conjugate_report().times
    assert len(times) == 2 and np.all(np.abs(np.subtract(times, [0.5, 1.0])) < jacobi.TIME_TOL)
    hyp = jacobi_propagate(make_chart("hyperbolic"), TangentVector([0.0, 0.0], [0.5, 0.0]), 1.0)
    block = [[np.cosh(1.0), np.sinh(1.0)], [np.sinh(1.0), np.cosh(1.0)]]
    assert np.max(np.abs(hyp.y[-1] - block)) < tol


def test_step_grown_over_the_flat_part_is_retried_in_the_bump(monkeypatch):
    # on the bumped cylinder's flat part the error estimate is zero and the
    # step grows fivefold per step; the first step into the bump is then
    # rejected and retried shorter, so Phi agrees with a 4096-step replay
    from geolab import charts, flow
    bc = make_chart("bumped_cylinder")
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return charts.spray(*args, **kwargs)

    monkeypatch.setattr(flow, "spray", counted)
    start = TangentVector([3.0, 0.0], [-1.0, 0.3])
    orbit = jacobi_propagate(bc, start, 5.0)
    assert len(calls) > 1 + 6 * (len(orbit.grid) - 1)
    fine = jacobi_propagate(bc, start, 5.0, np.linspace(0.0, 5.0, 4097))
    assert np.max(np.abs(orbit.matrix - fine.matrix)) < 1e-6 * np.max(np.abs(fine.matrix))


def test_slow_great_circle_steps_at_the_root_cap():
    # at speed w = 0.01 the error estimate would allow steps with h w above
    # (384 TIME_TOL w)^(1/4), the bound that keeps the cubic Hermite error
    # h^4 w^3 / 384 of a bisected conjugate time within TIME_TOL; every
    # chosen step stays under it, the longest sits on it, and the first
    # conjugate time, pi / w, is found within TIME_TOL
    w = 0.01
    sph = make_chart("sphere")
    orbit = jacobi_propagate(sph, TangentVector([1.0, 0.0], [0.0, w]), 1.25 * np.pi / w)
    cap = (384 * jacobi.TIME_TOL * w) ** 0.25
    hw = np.diff(orbit.grid) * w
    assert np.all(hw <= cap * (1 + 1e-9))
    assert abs(np.max(hw) / cap - 1.0) <= 1e-9
    times = orbit.conjugate_report().times
    assert len(times) == 1 and abs(times[0] - np.pi / w) <= jacobi.TIME_TOL


def test_paraboloid_apex_start_holds_its_speed():
    # a unit-speed start drawn as the verify self-test draws them that
    # passes rho = 0.017, where Gamma^theta_{rho theta} = 1/rho is large:
    # fixed-step RK4 at h = 1/256 drifted 4.4e-6 in speed over t = 2, above
    # the self-test's bound 4e-6; the chosen steps hold it to the flow
    # tolerance
    par = make_chart("paraboloid")
    starts = sample_unit_starts(par, np.random.default_rng(20), 8, 0.3, 2.0)
    orbit = jacobi_propagate(par, TangentVector(starts.base[5], starts.v[5]), 2.0)
    assert 0.015 < np.min(orbit.x[:, 0]) < 0.02
    drift = abs(metric_speed(par, orbit.x[-1], orbit.v[-1]) - 1.0)
    assert drift < 4e-6
    assert drift < 2 * len(orbit.grid) * jacobi.FLOW_TOL


def test_orbit_matrix_is_shear_plus_normal_block(rng):
    # Phi(t) = [[1, t], [0, 1]] (+) Y(t) exactly: the tangential block is the
    # shear and nothing couples it to the normal block, single or batched
    fun = make_chart("funnel")
    start = TangentVector([[0.3, 0.1], [-0.2, 1.0]], [[0.4, 0.8], [0.1, -0.6]])
    t = 0.7
    batch, exit_time = jacobi_propagate(fun, start, t)
    assert np.all(np.isinf(exit_time))
    tangential, normal = [0, 2], [1, 3]
    for phi, y in zip(batch.matrix, batch.y[:, -1]):
        assert np.array_equal(phi[np.ix_(tangential, tangential)], [[1.0, t], [0.0, 1.0]])
        assert np.array_equal(phi[np.ix_(normal, normal)], y)
        assert np.all(phi[np.ix_(tangential, normal)] == 0.0)
        assert np.all(phi[np.ix_(normal, tangential)] == 0.0)


def test_symplectic_invariant(zoo_chart, rng):
    for _ in range(3):
        x = sample_inside(zoo_chart, rng)
        v = rng.standard_normal(2)
        v = v / metric_speed(zoo_chart, x, v)
        try:
            mono = jacobi_propagate(zoo_chart, TangentVector(x, v), 2.0)
        except Exception:
            continue
        assert symplectic_defect(mono.matrix) < 1e-6


def test_propagation_multiplicative():
    fun = make_chart("funnel")
    start = TangentVector([0.3, 0.1], [0.4, 0.8])
    t = 0.9
    full = jacobi_propagate(fun, start, 2 * t)
    first = jacobi_propagate(fun, start, t)
    second = jacobi_propagate(fun, TangentVector(first.x[-1], first.v[-1]), t)
    composed = second.matrix @ first.matrix
    assert np.max(np.abs(composed - full.matrix)) < 1e-5


def test_orthonormal_frame_is_orthonormal(zoo_chart, rng):
    x = sample_inside(zoo_chart, rng)
    v = rng.standard_normal(2)
    e = velocity_frame(zoo_chart, x, v)
    g = zoo_chart.metric(x)
    gram = e.T @ g @ e
    assert np.allclose(gram, np.eye(2), atol=1e-12)
    # first vector along v (their 2-D cross product vanishes), the pair
    # positively oriented; -v gives the frame turned by pi
    assert abs(e[0, 0] * v[1] - e[1, 0] * v[0]) < 1e-12 * np.linalg.norm(v)
    assert e[:, 0] @ v > 0 and np.linalg.det(e) > 0
    assert np.array_equal(velocity_frame(zoo_chart, x, -v), -e)


def test_sphere_conjugate_points_half_and_full():
    # normal Jacobi solutions vanish at the zeros of sin(2*pi*s): s = 1/2, 1
    sph = make_chart("sphere")
    report = conjugate_points(sph, TangentVector([1.0, 0.0], [0.0, 2 * np.pi]), 1.0)
    assert report.count == 2
    times = report.times
    assert abs(times[0] - 0.5) < 1e-3 and abs(times[1] - 1.0) < 1e-3
    assert report.count_open() == 1


def test_sphere_conjugate_iterate_times():
    # m = 2: zeros of sin(4*pi*s) at k/4
    sph = make_chart("sphere")
    report = conjugate_points(sph, TangentVector([1.0, 0.0], [0.0, 4 * np.pi]), 1.0)
    times = np.array(report.times)
    assert report.count == 4
    assert np.allclose(times, [0.25, 0.5, 0.75, 1.0], atol=1e-3)
    assert report.count_open() == 3


def exact_ys(w, steps):
    """Row times s of ``steps`` even steps on [0, 1] and the exact rows Y(s)
    of the normal equation y'' + w^2 y = 0: y = Y[0, 1] = sin(w s) / w
    vanishes at k pi / w."""
    s = np.linspace(0.0, 1.0, steps + 1)
    c, sn = np.cos(w * s), np.sin(w * s)
    return s, np.stack([np.stack([c, sn / w], axis=-1), np.stack([-w * sn, c], axis=-1)],
                       axis=-2)


def test_scan_reads_conjugate_points_off_the_grid_alone(monkeypatch):
    # sqrt(K) = 3 pi: y = sin(3 pi s) / (3 pi) vanishes at 1/3, 2/3 and 1,
    # once each
    def no_flow(*args, **kwargs):
        raise AssertionError("the scan integrated a flow")

    monkeypatch.setattr(jacobi, "dopri_batch", no_flow)
    report = jacobi._scan_conjugate_points(*exact_ys(3 * np.pi, 256))
    times = np.array(report.times)
    assert np.all(np.abs(times - [1 / 3, 2 / 3, 1.0]) < jacobi.TIME_TOL)
    # the zero at the endpoint, within rounding of theta(1) = 3 pi, is at 1
    assert report.times[-1] == 1.0
    assert report.count == 3 and report.count_open() == 2
    # zeros at r and 2r, the first within rounding of node 100 of 256, where
    # y(node) is tiny and of either sign
    for root in (100 / 256 - 1e-12, 100 / 256, 100 / 256 + 1e-12):
        report = jacobi._scan_conjugate_points(*exact_ys(np.pi / root, 256))
        assert report.count == 2
        assert np.all(np.abs(np.array(report.times) - [root, 2 * root]) < jacobi.TIME_TOL)


def test_conjugate_additive_at_regular_split():
    # counting is relative to the original start: splitting the interval at
    # a non-conjugate time partitions the same zero set, and the first part
    # recomputed over the shorter interval must agree
    sph = make_chart("sphere")
    start = TangentVector([1.0, 0.0], [0.0, 4 * np.pi])  # two turns: 4 zeros
    split = 0.6
    total = conjugate_points(sph, start, 1.0)
    first = conjugate_points(sph, start, split)
    late = sum(s > split for s in total.times)
    assert first.count + late == total.count
    early = [s for s in total.times if s <= split]
    assert np.allclose(early, first.times, atol=1e-3)


@pytest.mark.parametrize("name", ["plane", "cylinder", "hyperbolic"])
def test_no_conjugate_points_nonpositive_curvature(name, rng):
    chart = make_chart(name)
    for _ in range(20):
        x = sample_inside(chart, rng)
        v = rng.standard_normal(2)
        v = v / metric_speed(chart, x, v)
        try:
            report = conjugate_points(chart, TangentVector(x, v), 4.0)
        except Exception:
            continue
        assert report.count == 0


def test_conjugate_report_validates_ordering():
    from geolab.jacobi import ConjugateReport
    with pytest.raises(ValueError):
        ConjugateReport(times=[0.5, 0.3], t=1.0)


def fixed_space(p, m):
    """dim ker(p^m - Id): the sum of eigenspace_dimension over omega^m = 1."""
    return sum(eigenspace_dimension(p, np.exp(2j * np.pi * k / m)) for k in range(m))


def test_nullity_cylinder_shear_kernel():
    cyl = make_chart("cylinder")
    loop = waist_loop(cyl, 256)
    p = shoot_closed_orbit(cyl, loop, outgoing_orbit(cyl, loop)).return_map()
    for m in (1, 2, 3):
        assert fixed_space(p, m) == 2


def test_nullity_sphere_all_iterates():
    sph = make_chart("sphere")
    loop = great_circle_loop(sph, 256)
    p = shoot_closed_orbit(sph, loop, outgoing_orbit(sph, loop)).return_map()
    for m in range(1, 7):
        assert fixed_space(p, m) == 3
    assert nullity_via_monodromy(sph, loop, 2) == 3


def test_nullity_funnel_waist():
    fun = make_chart("funnel")
    loop = waist_loop(fun, 256)
    p = shoot_closed_orbit(fun, loop, outgoing_orbit(fun, loop)).return_map()
    for m in (1, 2, 3, 4):
        assert fixed_space(p, m) == 1


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
        assert fixed_space(p, m) == expected


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
    # a wobbling polygon near the equator: the segments close onto the great
    # circle, the fixed point of the discrete time-1 map
    sph = make_chart("sphere")
    n = 128
    ts = 2 * np.pi * np.arange(n) / n
    loop = make_loop(sph, great_circle_loop(sph, n).nodes
                     * (1.001 + 0.002 * np.sin(ts))[:, None])
    closed, residual = refine_closed_orbit(sph, loop, outgoing_orbit(sph, loop))
    assert residual < jacobi.SHOOT_TOL * 2 * np.pi
    assert closed.t == 1.0 == closed.grid[-1] and closed.grid[0] == 0.0
    assert len(closed.x) == len(closed.v) == len(closed.y) == len(closed.grid)
    # 16 segments on one grid: the junctions k / 16 are row times
    assert np.all(np.diff(closed.grid) > 0)
    assert np.all(np.isin(np.arange(17) / 16, closed.grid))
    assert abs(np.linalg.norm(closed.start.base) - 1.0) < 1e-6
    assert np.linalg.norm(closed.start.base - loop.basepoint) < 0.01


def displaced_waist(chart, z, n):
    """The circle at height z on a revolution chart, n nodes."""
    return make_loop(chart, np.stack([np.full(n, z), 2 * np.pi * np.arange(n) / n], axis=1))


def closure(chart, orbit):
    """|(x(1) - x(0), v(1) - v(0))| of an orbit over [0, 1], relative to the speed."""
    xs, vs = orbit.x, orbit.v
    f = np.concatenate([chart.wrap_difference(xs[-1] - xs[0]), vs[-1] - vs[0]])
    return float(np.linalg.norm(f)) / metric_speed(chart, xs[0], vs[0])


def test_shoot_closes_displaced_funnel_waist():
    # the basepoint of a single shot from the displaced circle runs off
    # along the waist's unstable direction (multiplier 535); the segments
    # close onto the waist itself
    fun = make_chart("funnel")
    loop = displaced_waist(fun, 0.01, 128)
    closed = shoot_closed_orbit(fun, loop, outgoing_orbit(fun, loop))
    assert abs(closed.start.base[0]) < 1e-8
    assert closure(fun, closed) < jacobi.SHOOT_TOL
    assert eigenspace_dimension(closed.return_map(), 1.0) == 1


@pytest.mark.parametrize("m", [2, 3])
def test_shoot_closes_displaced_funnel_iterates(m):
    fun = make_chart("funnel")
    waist = waist_loop(fun, 128)
    multiplier = np.max(np.abs(np.linalg.eigvals(
        shoot_closed_orbit(fun, waist, outgoing_orbit(fun, waist)).return_map())))
    loop = iterate(displaced_waist(fun, 1e-4, 128), m)
    closed = shoot_closed_orbit(fun, loop, outgoing_orbit(fun, loop))
    assert abs(closed.start.base[0]) < 1e-8
    top = np.max(np.abs(np.linalg.eigvals(closed.return_map())))
    assert abs(top - multiplier ** m) < 1e-3 * multiplier ** m


def test_eigenspace_dimension_two_fold_funnel_waist():
    # the 2-fold waist is hyperbolic like the waist: its only fixed direction
    # is the flow, so dim ker(P - Id) = 1.  P - Id has singular values 1.8e6,
    # 1.0, 0.16 and 0: the kernel threshold is absolute, not relative to the
    # multiplier
    fun = make_chart("funnel")
    loop = iterate(waist_loop(fun, 128), 2)
    p = shoot_closed_orbit(fun, loop, outgoing_orbit(fun, loop)).return_map()
    assert eigenspace_dimension(p, 1.0) == 1


def oracle_loops():
    sph = make_chart("sphere")
    out = [(sph, make_loop(sph, great_circle_loop(sph, 128).nodes @ np.array(
        [[np.cos(a), np.sin(a)], [-np.sin(a), np.cos(a)]]))) for a in (0.0, 0.3, 1.7)]
    for name in ("funnel", "bumped_cylinder"):
        chart = make_chart(name)
        out += [(chart, waist_loop(chart, 128)), (chart, displaced_waist(chart, 0.01, 128))]
    # basepoint at theta = pi: the segment from the node at theta = 0 continues
    # the one that ends at theta = 2 pi
    out.append((chart, circle_shift(displaced_waist(chart, 0.01, 128), 64)))
    return out


@pytest.mark.parametrize("chart, loop", oracle_loops(),
                         ids=["circle-0", "circle-0.3", "circle-1.7", "funnel", "funnel-0.01",
                              "bumped", "bumped-0.01", "bumped-0.01-shifted"])
def test_stitched_orbit_matches_one_shot(chart, loop):
    # the oracle: one integration of the whole orbit from the returned start,
    # replaying the stitched orbit's grid
    closed = shoot_closed_orbit(chart, loop, outgoing_orbit(chart, loop))
    one = jacobi_propagate(chart, closed.start, 1.0, closed.grid)
    assert closure(chart, one) <= 10 * jacobi.SHOOT_TOL
    assert one.t == closed.t
    assert np.max(np.abs(one.x - closed.x)) < 1e-6
    assert np.max(np.abs(one.y - closed.y)) <= 1e-6 * np.max(np.abs(one.y))
    single = one.conjugate_report().times
    stitched = closed.conjugate_report().times
    assert len(single) == len(stitched)
    assert np.all(np.abs(np.subtract(single, stitched)) <= jacobi.TIME_TOL)
    p_single = one.return_map()
    p_stitched = closed.return_map()
    for m in (1, 2, 3, 4):
        for k in range(m):
            omega = np.exp(2j * np.pi * k / m)
            assert eigenspace_dimension(p_single, omega) == eigenspace_dimension(p_stitched, omega)


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


@pytest.mark.parametrize("name, kappa", [
    ("funnel", -1.0), ("hyperbolic", -1.0), ("plane", 0.0), ("cylinder", 0.0),
])
def test_close_check_reads_constant_curvature_exactly(name, kappa):
    # part (a) reads the closed-form K, not a finite-difference Riemann
    # tensor, so a constant-curvature chart reports its constant exactly
    report = close_conjugate_points_check(make_chart(name), ell=3.0, k_radius=0.5,
                                          n_samples=20, seed=0)
    assert report["curvature"]["max_kappa"] == kappa
    assert report["curvature"]["pass"]


def test_close_check_bumped_cylinder(monkeypatch):
    bc = make_chart("bumped_cylinder")
    integrations = [0]
    integrate = jacobi.jacobi_propagate

    def counted(chart, start, *args, **kwargs):
        # segments are integrated in batches: count the members
        integrations[0] += len(start.base) if np.ndim(start.base) > 1 else 1
        return integrate(chart, start, *args, **kwargs)

    monkeypatch.setattr(jacobi, "jacobi_propagate", counted)
    outside = close_conjugate_points_check(bc, ell=20.0, k_radius=2.0,
                                           n_samples=25, seed=3, sample_band=4.0)
    assert outside["pass"]
    # every sampled segment is integrated once, whether kept or discarded
    segments = outside["segments"]
    assert integrations[0] == segments["checked"] + segments["discarded"]
    # the draw order: x then v per attempt, the same sequence as one by one
    assert segments["discarded"] == 24
    integrations[0] = 0
    crossing = close_conjugate_points_check(bc, ell=12.0, k_radius=0.0,
                                            n_samples=25, seed=3, sample_band=3.0)
    assert not crossing["curvature"]["pass"]
    assert not crossing["segments"]["pass"]
    segments = crossing["segments"]
    assert integrations[0] == segments["checked"] + segments["discarded"]
    assert segments["discarded"] == 0
    assert len(segments["conjugate_hits"]) == 1
    assert crossing["rauch_consistent"]
    # the scan of the check's own orbit is the report conjugate_points gives,
    # the steps chosen for one start instead of for its block
    monkeypatch.setattr(jacobi, "jacobi_propagate", integrate)
    for hit in segments["conjugate_hits"]:
        report = conjugate_points(bc, TangentVector(hit["start"], hit["velocity"]), 12.0)
        assert len(report.times) == len(hit["times"])
        assert np.allclose(report.times, hit["times"], rtol=0.0, atol=TIME_TOL)


@pytest.mark.parametrize("seed", range(4))
def test_close_check_bumped_cylinder_segments_take_few_stages(monkeypatch, seed):
    # the segments take the steps the flow chooses, not one replayed even
    # grid of max(64, 32 ell) rows per block (577 stages a block at ell 3)
    calls = [0]
    spray = flow.spray

    def counted(*args):
        calls[0] += 1
        return spray(*args)

    monkeypatch.setattr(flow, "spray", counted)
    close_conjugate_points_check(make_chart("bumped_cylinder"), ell=3.0, k_radius=1.0,
                                 n_samples=25, seed=seed)
    assert calls[0] < 200


@pytest.mark.parametrize("name, ell, k_radius", [
    ("bumped_cylinder", 3.0, 1.0), ("funnel", 3.0, 0.5), ("hyperbolic", 3.0, 0.5),
    ("paraboloid", 10.0, 1.2), ("plane", 5.0, 0.0), ("cylinder", 5.0, 0.5),
])
def test_close_check_keeps_the_segments_the_even_grid_row_test_kept(monkeypatch, name, ell,
                                                                     k_radius):
    # the region's exit test against the row test it replaced: each block's
    # starts replayed on the chart itself over max(64, 32 ell) even steps,
    # kept when they stay in the chart and r > k_radius at every row
    chart = make_chart(name)
    integrate = jacobi.jacobi_propagate
    masks = []

    def compared(region, starts, t):
        orbit, exit_time = integrate(region, starts, t)
        grid = np.linspace(0.0, t, max(64, int(np.ceil(32 * t))) + 1)
        even, even_exit = integrate(chart, starts, t, grid)
        rows_inside = np.all(chart.exhaustion(even.x) > k_radius, axis=1)
        masks.append((np.isinf(exit_time), np.isinf(even_exit) & rows_inside))
        return orbit, exit_time

    monkeypatch.setattr(jacobi, "jacobi_propagate", compared)
    for seed in range(4):
        masks.clear()
        report = close_conjugate_points_check(chart, ell, k_radius, n_samples=25, seed=seed)
        for kept, rows_kept in masks:
            assert np.array_equal(kept, rows_kept)
        assert sum(int(np.count_nonzero(kept)) for kept, _ in masks) == 25
        assert report["segments"]["checked"] == 25


def test_close_check_propagates_programming_errors():
    class BrokenPlane(FlatPlane):
        def metric(self, x):
            raise TypeError("metric bug")

    with pytest.raises(TypeError):
        close_conjugate_points_check(BrokenPlane(), ell=5.0, k_radius=0.0, n_samples=5)


def test_close_check_discards_starts_outside_the_chart_until_segments_starve():
    # part (a) reads K at its points without a domain check; in part (b)
    # every start exits at time 0 and is discarded, 100 n_samples of them
    class NowherePlane(FlatPlane):
        def contains(self, x):
            return np.zeros(np.shape(x)[:-1], dtype=bool)

    with pytest.raises(SamplingStarvationError, match="after 500 attempts"):
        close_conjugate_points_check(NowherePlane(), ell=5.0, k_radius=0.0, n_samples=5)


def test_close_check_segment_starvation_trips_at_attempt_limit():
    class FloorPlane(FlatPlane):
        # every segment reaches r = 0 = k_radius, so every one is discarded
        def exhaustion(self, x):
            return np.zeros(np.shape(x)[:-1])

    with pytest.raises(SamplingStarvationError, match="after 300 attempts"):
        close_conjugate_points_check(FloorPlane(), ell=2.0, k_radius=0.0, n_samples=3)


def test_batched_integration_equals_per_start():
    # a batch takes one common step, and each member's rows are the ones it
    # gets replayed alone on the batch's grid, bitwise and exits included.
    # On a funnel cut off at |z| = 2 two starts stay inside, one starts
    # outside, one leaves in a stage point of a step, and one leaves in the
    # new point of a step whose stage points are all inside: outward funnel
    # geodesics reach farthest at the step's end, and its start sits 4e-7
    # inside the 8.5e-7 wide band of such starts
    class ShortFunnel(Funnel):
        z_bound = 2.0

    fun = ShortFunnel()
    base = np.array([[0.0, 0.0], [0.3, 1.0], [2.5, 0.0], [1.2, 0.3], [1.507081, 0.0]])
    vel = np.array([[0.2, 1.0], [-0.4, 0.5], [1.0, 0.0], [1.5, 0.5], [1.0, 0.2]])
    orbits, exit_time = jacobi_propagate(fun, TangentVector(base, vel), 1.0)
    grid = orbits.grid
    assert grid[0] == 0.0 and grid[-1] == 1.0 and np.all(np.diff(grid) > 0)
    exits = []
    for i, (x0, v0) in enumerate(zip(base, vel)):
        alone, alone_exit = jacobi_propagate(fun, TangentVector(x0[None], v0[None]), 1.0, grid)
        assert alone_exit[0] == exit_time[i]
        for name in ("x", "v", "y", "frames"):
            assert np.array_equal(getattr(alone, name)[0], getattr(orbits, name)[i],
                                  equal_nan=True), name
        start = TangentVector(x0, v0)
        try:
            single = jacobi_propagate(fun, start, 1.0, grid)
        except DomainEscapeError as exc:
            assert exit_time[i] == exc.exit_time
            finite = np.flatnonzero(np.isfinite(orbits.x[i, :, 0]))
            last = finite[-1] if len(finite) else -1
            # every returned row from the exit on, and the frame at the end
            assert all(np.all(np.isnan(a[i, last + 1:])) for a in (orbits.x, orbits.v, orbits.y))
            assert np.all(np.isnan(orbits.frames[i, 1]))
            if last < 0:
                exits.append("start")
            else:
                exits.append("stage" if exc.exit_time == grid[last] else "point")
                assert exc.exit_time == grid[last + (exits[-1] == "point")]
            continue
        assert np.isinf(exit_time[i])
        for name in ("grid", "x", "v", "y", "frames", "matrix"):
            a, b = getattr(single, name), getattr(orbits, name)
            assert np.array_equal(a, b if name == "grid" else b[i]), name
    assert exits == ["start", "stage", "point"]
    assert exit_time[2] == 0.0


def test_close_check_rejects_compact_chart():
    sph = make_chart("sphere")
    with pytest.raises(ValueError):
        close_conjugate_points_check(sph, ell=1.0, k_radius=0.0)


def test_jacobi_flow_refuses_a_chart_that_is_not_a_surface(monkeypatch):
    class FlatSpace(FlatPlane):
        dim = 3

        def metric(self, x):
            return np.broadcast_to(np.eye(3), np.shape(x)[:-1] + (3, 3))

    def no_flow(*args, **kwargs):
        raise AssertionError("the flow stepped")

    monkeypatch.setattr(jacobi, "dopri_batch", no_flow)
    with pytest.raises(NotImplementedError, match="surface"):
        jacobi_propagate(FlatSpace(), TangentVector(np.zeros(3), [1.0, 0.0, 0.0]), 1.0)


def test_jacobi_flow_refuses_a_start_at_rest():
    # the velocity frame e_1 = v / |v|_g needs a moving start
    plane = make_chart("plane")
    with pytest.raises(ValueError, match="speed"):
        jacobi_propagate(plane, TangentVector([0.0, 0.0], [0.0, 0.0]), 1.0)
    batch = TangentVector([[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="speed"):
        jacobi_propagate(plane, batch, 1.0)
