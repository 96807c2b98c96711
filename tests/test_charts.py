import numpy as np
import pytest

import geolab
from geolab.charts import (
    FlatPlane,
    TangentVector,
    christoffels,
    christoffels_of_metric,
    curvature_operator,
    flow_trajectory,
    geodesic_flow,
    make_chart,
    metric_speed,
    riemann,
    sectional_curvature,
)
from geolab.errors import ChartDomainError, DegeneratePlaneError, DomainEscapeError
from geolab.jacobi import jacobi_propagate

from conftest import ZOO, sample_inside


def test_unknown_chart_name():
    with pytest.raises(ChartDomainError):
        make_chart("klein_bottle")


@pytest.mark.parametrize("name, params", [
    ("cylinder", {"radius": 0.0}),
    ("cylinder", {"radius": -1.0}),
    ("bumped_cylinder", {"amplitude": -2.0}),
    ("bumped_cylinder", {"amplitude": float("nan")}),
])
def test_degenerate_chart_parameters_rejected(name, params):
    with pytest.raises(ValueError):
        make_chart(name, **params)


def test_christoffels_flat_plane_zero(rng):
    plane = make_chart("plane")
    x = rng.standard_normal(2) * 3
    assert np.allclose(christoffels(plane, x), 0.0)


def test_christoffels_funnel_waist_symmetry():
    fun = make_chart("funnel")
    gam = christoffels(fun, np.array([0.0, 0.0]))
    # Gamma^z_{theta,theta} = -cosh(0) sinh(0) = 0, Gamma^theta_{z,theta} = tanh(0) = 0
    assert abs(gam[0, 1, 1]) < 1e-12
    assert abs(gam[1, 0, 1]) < 1e-12
    # off the waist the closed forms are -cosh sinh and tanh
    z = 0.4
    gam = christoffels(fun, np.array([z, 1.0]))
    assert abs(gam[0, 1, 1] + np.cosh(z) * np.sinh(z)) < 1e-12
    assert abs(gam[1, 0, 1] - np.tanh(z)) < 1e-12


def sample_batch(chart, rng, n):
    return np.array([sample_inside(chart, rng) for _ in range(n)])


def test_christoffels_closed_form_oracle(zoo_chart, rng):
    # the chart's closed form against the generic formula, fed with the
    # analytic metric derivative and with finite differences of the metric
    x = sample_batch(zoo_chart, rng, 200)
    closed = christoffels(zoo_chart, x)
    generic = christoffels_of_metric(zoo_chart.metric(x), zoo_chart.metric_deriv(x))
    scale = np.max(np.abs(generic), axis=(-3, -2, -1))
    err = np.max(np.abs(closed - generic), axis=(-3, -2, -1))
    assert np.all(err <= 1e-13 * scale)
    fd = christoffels(zoo_chart, x, finite_difference=True)
    assert np.max(np.abs(closed - fd)) <= 1e-6 * max(np.max(scale), 1.0)


def test_christoffels_scalar_matches_stack_bitwise(zoo_chart, rng):
    # a point's Christoffels do not depend on the batch it is evaluated in
    x = sample_batch(zoo_chart, rng, 2000)
    stacked = christoffels(zoo_chart, x)
    assert all(np.array_equal(christoffels(zoo_chart, xi), gi) for xi, gi in zip(x, stacked))


def _bump_profile_by_powers(z, a):
    """The bump profile written with powers and a mask (rho, rho', rho'')."""
    inside = np.abs(z) < 1
    b = np.where(inside, (1 - z**2) ** 4, 0.0)
    db = np.where(inside, -8 * z * (1 - z**2) ** 3, 0.0)
    d2b = np.where(inside, -8 * (1 - z**2) ** 3 + 48 * z**2 * (1 - z**2) ** 2, 0.0)
    return 1.0 + a * b, a * db, a * d2b


def test_profile_jets_match_the_profiles(rng):
    z = np.concatenate([rng.uniform(-3.0, 3.0, 20000), rng.uniform(0.99, 1.01, 2000)])
    for chart, today in [
        (make_chart("cylinder", radius=1.7),
         (np.full(z.shape, 1.7), np.zeros(z.shape), np.zeros(z.shape))),
        (make_chart("funnel"), (np.cosh(z), np.sinh(z), np.cosh(z))),
    ]:
        for got, want in zip(chart.profile_jet(z), today):
            assert np.array_equal(got, want)
    bump = make_chart("bumped_cylinder")
    rho, d1, d2 = bump.profile_jet(z)
    rho_p, d1_p, d2_p = _bump_profile_by_powers(z, bump.amplitude)
    # rho to 1 ulp; the derivatives multiply out u^3 where the powers call
    # pow, which rounds once: a few ulp of the value (rho') or of the
    # magnitude of its two terms (rho'', which cancels at 7 z^2 = 1)
    u = np.maximum(1 - z**2, 0.0)
    d2_terms = bump.amplitude * (8 * u**3 + 48 * z**2 * u**2)
    assert np.all(np.abs(rho - rho_p) <= np.spacing(rho_p))
    assert np.all(np.abs(d1 - d1_p) <= 4 * np.spacing(np.abs(d1_p)))
    assert np.all(np.abs(d2 - d2_p) <= 4 * np.spacing(d2_terms))


def test_bump_christoffels_at_the_junction():
    chart = make_chart("bumped_cylinder")
    a = chart.amplitude
    for side in (1.0, -1.0):
        # continuous across |z| = 1, exactly flat beyond it
        z = side * (1.0 + np.array([-1e-5, -1e-9, 0.0, 1e-9, 1e-5]))
        gam = christoffels(chart, np.stack([z, np.full(5, 0.4)], axis=-1))
        assert np.max(np.abs(np.diff(gam, axis=0))) <= 1e-12
        outside = side * np.array([1.0, 1.0 + 1e-12, 1.5, 7.0])
        gam = christoffels(chart, np.stack([outside, np.zeros(4)], axis=-1))
        assert np.all(gam == 0.0)
        # Gamma^theta_{z theta} = rho'/rho from the profile 1 + a (1 - z^2)^4
        z0 = side * 0.5
        u = 1.0 - z0 * z0
        expected = -8.0 * a * z0 * u**3 / (1.0 + a * u**4)
        gam = christoffels(chart, np.array([z0, 2.0]))
        assert abs(gam[1, 0, 1] - expected) <= 1e-15 * abs(expected)
        assert gam[1, 1, 0] == gam[1, 0, 1]


@pytest.mark.parametrize("name", ["bumped_cylinder", "sphere", "paraboloid"])
def test_one_christoffel_call_per_rk4_stage(name, monkeypatch):
    # the trace counts RK4 stages by calls to charts.christoffels: every
    # right-hand side goes through it, whichever module's name it uses
    chart = make_chart(name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return christoffels(*args, **kwargs)

    for mod in vars(geolab).values():
        if getattr(mod, "christoffels", None) is christoffels:
            monkeypatch.setattr(mod, "christoffels", counted)
    x0, v0 = SAFE_STARTS[name]
    bases = np.array([x0, x0, x0])
    vs = np.array([v0, [0.3, 0.2], [-0.1, 0.25]])
    steps = 24
    _, _, exit_time = flow_trajectory(chart, TangentVector(bases, vs), 0.5, steps)
    assert np.all(np.isinf(exit_time))
    assert len(calls) == 4 * steps
    calls.clear()
    _, exit_time = jacobi_propagate(chart, TangentVector(bases, vs), 0.5, steps)
    assert np.all(np.isinf(exit_time))
    assert len(calls) == 4 * steps


def test_christoffel_index_symmetry(zoo_chart, rng):
    for _ in range(5):
        x = sample_inside(zoo_chart, rng)
        gam = christoffels(zoo_chart, x)
        assert np.allclose(gam, np.swapaxes(gam, -1, -2), atol=1e-12)


def test_christoffels_domain_error():
    sphere = make_chart("sphere")
    with pytest.raises(ChartDomainError):
        christoffels(sphere, np.array([11.0, 0.0]))


@pytest.mark.parametrize("name", ["sphere", "hyperbolic"])
def test_conformal_guard_classifies_as_the_norm(name, rng):
    # random points, points on the axes at the guard radius and 1 ulp either
    # side, and points a few ulp from it in random directions: the guard
    # must agree with |x| < guard_radius through np.linalg.norm on every one
    chart = make_chart(name)
    r = chart.guard_radius
    edge = np.array([np.nextafter(r, 0.0), r, np.nextafter(r, np.inf)])
    axes = np.concatenate([np.stack([s * edge, np.zeros(3)], axis=1) for s in (1.0, -1.0)])
    angles = rng.uniform(0.0, 2 * np.pi, 300)
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1) * np.resize(edge, 300)[:, None]
    points = np.concatenate([rng.uniform(-1.5 * r, 1.5 * r, (300, 2)), axes, axes[:, ::-1], ring])
    expected = np.linalg.norm(points, axis=-1) < r
    assert 0 < np.count_nonzero(expected) < len(points)
    assert np.array_equal(chart.contains(points), expected)
    assert [bool(chart.contains(x)) for x in points] == expected.tolist()


CONSTANT_CURVATURE = {
    "plane": 0.0, "cylinder": 0.0, "sphere": 1.0, "hyperbolic": -1.0, "funnel": -1.0,
}


@pytest.mark.parametrize("name,kappa", sorted(CONSTANT_CURVATURE.items()))
def test_sectional_curvature_constant_charts(name, kappa, rng):
    chart = make_chart(name)
    for _ in range(5):
        x = sample_inside(chart, rng)
        v, w = rng.standard_normal(2), rng.standard_normal(2)
        assert abs(sectional_curvature(chart, x, v, w) - kappa) < 1e-6


def test_sectional_curvature_paraboloid_profile(rng):
    chart = make_chart("paraboloid")
    for rho in (0.5, 1.0, 2.0):
        x = np.array([rho, rng.uniform(0, 2 * np.pi)])
        v, w = rng.standard_normal(2), rng.standard_normal(2)
        expected = 4.0 / (1.0 + 4.0 * rho**2) ** 2
        assert abs(sectional_curvature(chart, x, v, w) - expected) < 1e-6


def test_sectional_curvature_basis_independence(rng):
    chart = make_chart("paraboloid")
    x = np.array([1.3, 0.7])
    v, w = np.array([1.0, 0.2]), np.array([-0.3, 0.9])
    k0 = sectional_curvature(chart, x, v, w)
    k1 = sectional_curvature(chart, x, 2.0 * v + 0.5 * w, -0.7 * v + 1.5 * w)
    assert abs(k0 - k1) < 1e-8


def test_sectional_curvature_degenerate_plane():
    chart = make_chart("plane")
    v = np.array([1.0, 1.0])
    with pytest.raises(DegeneratePlaneError):
        sectional_curvature(chart, np.zeros(2), v, 2.0 * v)


def test_analytic_vs_fd_curvature_agreement(zoo_chart, rng):
    # analytic route vs the all-finite-difference Riemann route
    worst = 0.0
    for _ in range(100):
        x = sample_inside(zoo_chart, rng)
        v, w = rng.standard_normal(2), rng.standard_normal(2)
        try:
            ka = float(zoo_chart.gauss_curvature(x))
        except NotImplementedError:
            ka = sectional_curvature(zoo_chart, x, v, w)
        kf = sectional_curvature(zoo_chart, x, v, w, finite_difference=True)
        worst = max(worst, abs(ka - kf) / max(abs(ka), 1.0))
    assert worst < 1e-5


def test_metric_positive_definite_and_riemann_symmetries(zoo_chart, rng):
    for _ in range(20):
        x = sample_inside(zoo_chart, rng)
        g = zoo_chart.metric_checked(x)
        assert np.all(np.linalg.eigvalsh(g) > 0)
        rm = riemann(zoo_chart, x)
        v, w = rng.standard_normal(2), rng.standard_normal(2)
        rvw_w = np.einsum("lkij,k,i,j->l", rm, w, v, w)
        rwv_v = np.einsum("lkij,k,i,j->l", rm, v, w, v)
        # pair exchange g(R(v,w)w,v) = g(R(w,v)v,w) and antisymmetry R(v,v) = 0
        assert abs(rvw_w @ g @ v - rwv_v @ g @ w) < 1e-7 * (1 + abs(rvw_w @ g @ v))
        rvv = np.einsum("lkij,k,i,j->l", rm, w, v, v)
        assert np.max(np.abs(rvv)) < 1e-7 * (1 + np.max(np.abs(rm)))


def test_curvature_operator_batched_matches_closed_form(zoo_chart, rng):
    # one batched call over a (3, 4) grid of points equals the per-point
    # closed form K (g(v,v) w - g(w,v) v), and R(v,v)v = 0
    xs = np.array([[sample_inside(zoo_chart, rng) for _ in range(4)] for _ in range(3)])
    vs = rng.standard_normal(xs.shape)
    batched = curvature_operator(zoo_chart, xs, vs)
    assert batched.shape == (3, 4, 2, 2)
    for x, v, rop in zip(xs.reshape(-1, 2), vs.reshape(-1, 2), batched.reshape(-1, 2, 2)):
        gv = zoo_chart.metric(x) @ v
        expected = float(zoo_chart.gauss_curvature(x)) * ((v @ gv) * np.eye(2) - np.outer(v, gv))
        scale = max(np.max(np.abs(expected)), 1.0)
        assert np.max(np.abs(rop - expected)) <= 1e-14 * scale
        assert np.max(np.abs(rop - curvature_operator(zoo_chart, x, v))) <= 1e-14 * scale
        assert np.max(np.abs(rop @ v)) <= 1e-12 * scale * (1 + v @ v)


def test_exhaustion_proper_on_rays():
    for name in ZOO:
        chart = make_chart(name)
        if chart.compact:
            continue
        ray = {"plane": np.array([1.0, 0.3]), "hyperbolic": np.array([0.6, 0.8])}
        direction = ray.get(name, np.array([1.0, 0.0]))
        if name == "hyperbolic":
            ts = 1.0 - np.geomspace(0.9, 1e-6, 40)
        else:
            ts = np.linspace(0.5, 50.0, 40)
        values = np.array([float(chart.exhaustion(t * direction)) for t in ts])
        assert np.all(np.diff(values) > 0)
        assert values[-1] > 10.0


def test_exhaustion_grad_hess_fd(rng):
    # analytic overrides against the generic finite-difference fallback
    for name in ("plane", "hyperbolic", "paraboloid"):
        chart = make_chart(name)
        x = chart.sample_point(rng, 0.7, 2.0)
        from geolab.charts import Chart
        g_fd = Chart.exhaustion_grad(chart, x)
        h_fd = Chart.exhaustion_hess(chart, x)
        assert np.max(np.abs(chart.exhaustion_grad(x) - g_fd)) < 1e-6
        assert np.max(np.abs(chart.exhaustion_hess(x) - h_fd)) < 1e-5


def test_flow_flat_straight_line():
    plane = make_chart("plane")
    out = geodesic_flow(plane, TangentVector([0.0, 0.0], [1.0, 0.0]), 3.0, 64)
    assert np.allclose(out.base, [3.0, 0.0], atol=1e-12)
    assert np.allclose(out.v, [1.0, 0.0], atol=1e-12)


def test_flow_cylinder_pure_angular():
    cyl = make_chart("cylinder")
    out = geodesic_flow(cyl, TangentVector([0.0, 0.0], [0.0, 1.0]), 1.0, 64)
    assert np.allclose(out.base, [0.0, 1.0], atol=1e-12)


def test_flow_sphere_great_circle_closes():
    sphere = make_chart("sphere")
    start = TangentVector([1.0, 0.0], [0.0, 1.0])  # unit metric speed on |u| = 1
    out = geodesic_flow(sphere, start, 2 * np.pi, 2048)
    err = np.hypot(np.linalg.norm(out.base - start.base), np.linalg.norm(out.v - start.v))
    assert err < 1e-4


SAFE_STARTS = {
    "plane": ([0.3, -0.2], [0.8, 0.6]),
    "cylinder": ([0.1, 0.4], [0.5, 0.9]),
    "sphere": ([0.9, 0.1], [-0.2, 1.1]),
    "hyperbolic": ([0.1, 0.05], [0.9, 0.4]),
    "paraboloid": ([1.5, 0.2], [0.05, 0.8]),
    "funnel": ([0.3, 0.2], [0.7, 0.5]),
    "bumped_cylinder": ([0.4, 1.0], [0.6, 0.7]),
}


@pytest.mark.parametrize("name", sorted(SAFE_STARTS))
def test_flow_speed_conservation(name):
    chart = make_chart(name)
    x0, v0 = SAFE_STARTS[name]
    v0 = np.asarray(v0) / metric_speed(chart, np.asarray(x0, float), np.asarray(v0, float))
    t = 10.0
    try:
        out = geodesic_flow(chart, TangentVector(x0, v0), t, 2560)
    except DomainEscapeError:
        t = 4.0
        out = geodesic_flow(chart, TangentVector(x0, v0), t, 1024)
    drift = abs(metric_speed(chart, out.base, out.v) - 1.0)
    assert drift < 1e-6 * t


@pytest.mark.parametrize("name", sorted(SAFE_STARTS))
def test_flow_semigroup(name):
    chart = make_chart(name)
    x0, v0 = SAFE_STARTS[name]
    start = TangentVector(np.asarray(x0, float), np.asarray(v0, float))
    t, s = 1.3, 0.7
    once = geodesic_flow(chart, start, t + s, 512)
    mid = geodesic_flow(chart, start, t, 256)
    twice = geodesic_flow(chart, TangentVector(mid.base, mid.v), s, 256)
    assert np.linalg.norm(once.base - twice.base) < 1e-5
    assert np.linalg.norm(once.v - twice.v) < 1e-5


def test_flow_domain_escape_carries_time():
    sphere = make_chart("sphere")
    # radially outward from near the guard: escapes quickly
    with pytest.raises(DomainEscapeError) as err:
        geodesic_flow(sphere, TangentVector([9.0, 0.0], [50.0, 0.0]), 2.0, 256)
    assert 0 <= err.value.exit_time <= 2.0


def test_flow_point_refused_inside_the_guard_is_an_escape():
    class WalledPlane(FlatPlane):
        # refuses x > 1, which its domain guard does not say; the flow
        # reads the chart through its closed-form Christoffels
        def metric(self, x):
            if np.any(np.asarray(x)[..., 0] > 1.0):
                raise ChartDomainError("wall")
            return super().metric(x)

        def christoffels(self, x):
            self.metric(x)
            return super().christoffels(x)

    start = TangentVector([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(DomainEscapeError) as err:
        geodesic_flow(WalledPlane(), start, 2.0, 16)
    # the first stage point past the wall is x_8 + h/2, in step 8
    assert err.value.exit_time == 8 * 2.0 / 16
    _, _, exit_time = flow_trajectory(
        WalledPlane(), TangentVector(np.tile(start.base, (2, 1)), [[1.0, 0.0], [0.0, 1.0]]),
        2.0, 16)
    # the batch cannot tell whose point was refused: both members exit
    assert list(exit_time) == [1.0, 1.0]


def test_flow_rejects_bad_arguments():
    plane = make_chart("plane")
    with pytest.raises(ValueError):
        geodesic_flow(plane, TangentVector([0, 0], [1, 0]), -1.0, 64)
    with pytest.raises(ValueError):
        geodesic_flow(plane, TangentVector([0, 0], [1, 0]), 1.0, 8)


def test_sphere_recentering_isometry(rng):
    sphere = make_chart("sphere")
    x = sphere.sample_point(rng, 0.5, 2.0)
    y = sphere.recenter_map(sphere.recenter_map(x))
    assert np.allclose(x, y, atol=1e-14)
    # isometry: pulled-back squared lengths agree (difference quotient is
    # first-order accurate in h, hence the tolerance)
    h = 1e-6 * rng.standard_normal(2)
    g = sphere.metric(x)
    d2 = h @ g @ h
    fx, fxh = sphere.recenter_map(x), sphere.recenter_map(x + h)
    g2 = sphere.metric(fx)
    d2f = (fxh - fx) @ g2 @ (fxh - fx)
    assert abs(d2 - d2f) < 1e-4 * d2


def test_reduce_and_wrap_periodic():
    cyl = make_chart("cylinder")
    x = np.array([0.5, 2 * np.pi + 0.3])
    assert np.allclose(cyl.reduce_point(x), [0.5, 0.3])
    assert np.allclose(cyl.wrap_difference(np.array([0.0, 2 * np.pi - 0.1])), [0.0, -0.1])
