import numpy as np
import pytest

import geolab
from geolab.charts import (
    CHART_BUILDERS,
    FlatPlane,
    TangentVector,
    central_difference,
    christoffels,
    christoffels_of_metric,
    curvature_operator,
    geodesic_flow,
    make_chart,
    metric_speed,
    sectional_curvature,
    spray,
)
from geolab.errors import ChartDomainError, DomainEscapeError
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


def test_plane_is_exactly_flat_through_the_conformal_formulas(rng):
    # the plane is the conformal chart with lambda = 1: its jet, spray,
    # connection and curvature are zero exactly, not within a tolerance
    plane = make_chart("plane")
    for shape in ((2,), (3, 4, 2)):
        x, v = 3 * rng.standard_normal(shape), rng.standard_normal(shape)
        batch = shape[:-1]
        assert np.array_equal(plane.metric(x), np.broadcast_to(np.eye(2), batch + (2, 2)))
        for value, axes in ((plane.metric_deriv(x), 3), (plane.metric_second_deriv(x), 4),
                            *zip(spray(plane, x, v), (1, 0)), (christoffels(plane, x), 3),
                            (plane.gauss_curvature(x), 0)):
            assert value.shape == batch + (2,) * axes
            assert np.all(value == 0)


def test_zoo_fixture_covers_every_chart():
    # a chart missing from ZOO would escape every zoo-parametrized test
    assert set(ZOO) == set(CHART_BUILDERS)


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
    # the generic formula on the analytic metric derivative against the
    # same formula on finite differences of the metric
    x = sample_batch(zoo_chart, rng, 200)
    closed = christoffels(zoo_chart, x)
    scale = np.max(np.abs(closed), axis=(-3, -2, -1))
    fd = christoffels_of_metric(zoo_chart.metric(x), central_difference(zoo_chart.metric, x))
    assert np.max(np.abs(closed - fd)) <= 1e-6 * max(np.max(scale), 1.0)


def test_christoffels_scalar_matches_stack_bitwise(zoo_chart, rng):
    # a point's chart values do not depend on the batch it is evaluated in
    x = sample_batch(zoo_chart, rng, 2000)
    v = rng.standard_normal(x.shape)
    values = {  # each gives a tuple of arrays
        "christoffels": lambda y, w: (christoffels(zoo_chart, y),),
        "metric": lambda y, w: (zoo_chart.metric(y),),
        "metric_diag": lambda y, w: (zoo_chart.metric_diag(y),),
        "metric_diag_deriv": lambda y, w: (zoo_chart.metric_diag_deriv(y),),
        "metric_diag_second_deriv": lambda y, w: (zoo_chart.metric_diag_second_deriv(y),),
        "metric_deriv": lambda y, w: (zoo_chart.metric_deriv(y),),
        "metric_second_deriv": lambda y, w: (zoo_chart.metric_second_deriv(y),),
        "gauss_curvature": lambda y, w: (zoo_chart.gauss_curvature(y),),
        "spray": lambda y, w: spray(zoo_chart, y, w),
    }
    if not zoo_chart.compact:
        for name in ("exhaustion", "exhaustion_grad", "exhaustion_hess"):
            values[name] = lambda y, w, f=getattr(zoo_chart, name): (f(y),)
    differ = {}
    for name, value in values.items():
        stacked = value(x, v)
        differ[name] = sum(
            not all(np.array_equal(a, s[i]) for a, s in zip(value(x[i], v[i]), stacked))
            for i in range(len(x)))
    assert differ == dict.fromkeys(values, 0)


def test_dense_metric_jets_embed_the_diagonal_jets(zoo_chart, rng):
    # every zoo chart is orthogonal: the dense jets hold the diagonal jets on
    # i = j and zero elsewhere, and the diagonal jets pass the same
    # central-difference links as the dense ones
    from geolab.cli import _difference_link

    x = sample_batch(zoo_chart, rng, 200)
    d = zoo_chart.dim
    off = ~np.eye(d, dtype=bool)
    for axes, name in enumerate(("metric", "metric_deriv", "metric_second_deriv")):
        full = getattr(zoo_chart, name)(x)
        jet = getattr(zoo_chart, name.replace("metric", "metric_diag", 1))(x)
        assert jet.shape == x.shape[:-1] + (d,) * (axes + 1)
        assert full.shape == jet.shape + (d,)
        assert np.array_equal(np.diagonal(full, 0, -2, -1), jet)
        assert np.all(full[..., off] == 0)
    assert np.array_equal(zoo_chart.metric_checked(x), zoo_chart.metric(x))
    for f, df in ((zoo_chart.metric_diag, zoo_chart.metric_diag_deriv),
                  (zoo_chart.metric_diag_deriv, zoo_chart.metric_diag_second_deriv)):
        err, bound = _difference_link(f, df, x)
        assert np.all(err <= bound)


@pytest.mark.parametrize("radius", [0.0, float("nan")])
def test_metric_checked_refuses_a_diagonal_entry_not_positive(radius):
    # the cylinder's constructor refuses such radii; set past it, g_thth is
    # 0 or NaN, and neither is > 0
    cyl = make_chart("cylinder")
    cyl.radius = radius
    with pytest.raises(ChartDomainError, match="not positive definite"):
        cyl.metric_checked(np.array([0.3, 1.0]))
    with pytest.raises(ChartDomainError, match="not positive definite"):
        cyl.metric_checked(np.array([[0.3, 1.0], [-0.2, 4.0]]))


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
    # the right-hand side reads the chart through charts.spray, whichever
    # module's name it uses, so its call count is the stage count: one first
    # slope, then six per Dormand-Prince step (the seventh is the next
    # step's first), on a replayed grid as on chosen steps
    chart = make_chart(name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return spray(*args, **kwargs)

    for mod in vars(geolab).values():
        if getattr(mod, "spray", None) is spray:
            monkeypatch.setattr(mod, "spray", counted)
    x0, v0 = SAFE_STARTS[name]
    bases = np.array([x0, x0, x0])
    vs = np.array([v0, [0.3, 0.2], [-0.1, 0.25]])
    steps = 24
    _, exit_time = jacobi_propagate(chart, TangentVector(bases, vs), 0.5,
                                    np.linspace(0.0, 0.5, steps + 1))
    assert np.all(np.isinf(exit_time))
    assert len(calls) == 1 + 6 * steps
    calls.clear()
    orbit, exit_time = jacobi_propagate(chart, TangentVector(bases, vs), 0.5)
    assert np.all(np.isinf(exit_time))
    # rejected steps cost six calls too
    assert len(calls) >= 1 + 6 * (len(orbit.grid) - 1) and (len(calls) - 1) % 6 == 0


def test_spray_closed_form_oracle(zoo_chart, rng):
    # -Gamma(v, v) against the Christoffel einsum, closed form and finite
    # differences; K g(v, v) against the closed-form curvature and Brioschi's
    # curvature times g(v, v)
    x = sample_batch(zoo_chart, rng, 40)
    v = rng.standard_normal(x.shape)
    acc, k_vv = spray(zoo_chart, x, v)
    assert acc.shape == x.shape and k_vv.shape == x.shape[:-1]
    vv = np.sum(v * v, axis=-1)
    gam = christoffels(zoo_chart, x)
    scale = np.max(np.abs(gam), axis=(-3, -2, -1)) * vv + vv
    closed = -np.einsum("...kij,...i,...j->...k", gam, v, v)
    assert np.all(np.max(np.abs(acc - closed), axis=-1) <= 1e-14 * scale)
    dg_fd = central_difference(zoo_chart.metric, x)
    fd = -np.einsum("...kij,...i,...j->...k", christoffels_of_metric(zoo_chart.metric(x), dg_fd),
                    v, v)
    assert np.all(np.max(np.abs(acc - fd), axis=-1) <= 1e-6 * scale)
    g = zoo_chart.metric(x)
    gvv = np.einsum("...i,...ij,...j->...", v, g, v)
    k = zoo_chart.gauss_curvature(x)
    k_tol = 1e-14 * np.maximum(np.abs(k), 1.0)
    assert np.all(np.abs(k_vv - k * gvv) <= k_tol * gvv)
    k_jet, rounding = sectional_curvature(zoo_chart, x)
    assert np.all(np.abs(k_vv - k_jet * gvv) <= (k_tol + rounding) * gvv)


def test_spray_of_a_member_matches_its_batch_of_one_bitwise(zoo_chart, rng):
    # a member's spray does not depend on the batch it is evaluated in
    x = sample_batch(zoo_chart, rng, 500)
    v = rng.standard_normal(x.shape)
    acc, k_vv = spray(zoo_chart, x, v)
    for i in range(len(x)):
        acc_i, k_i = spray(zoo_chart, x[i:i + 1], v[i:i + 1])
        assert np.array_equal(acc_i[0], acc[i]) and k_i[0] == k_vv[i]


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
    k, rounding = sectional_curvature(chart, sample_batch(chart, rng, 5))
    assert k.shape == rounding.shape == (5,)
    assert np.all(np.abs(k - kappa) <= rounding)


def test_sectional_curvature_paraboloid_profile(rng):
    chart = make_chart("paraboloid")
    rho = np.array([0.5, 1.0, 2.0])
    k, rounding = sectional_curvature(
        chart, np.stack([rho, rng.uniform(0, 2 * np.pi, 3)], axis=-1))
    assert np.all(np.abs(k - 4.0 / (1.0 + 4.0 * rho**2) ** 2) <= rounding)


def test_analytic_vs_fd_curvature_agreement(zoo_chart, rng):
    # the closed-form K against Brioschi's K on the analytic jet, within the
    # latter's rounding bound, and that bound within a thousand eps of max(|K|, 1)
    x = sample_batch(zoo_chart, rng, 100)
    k, rounding = sectional_curvature(zoo_chart, x)
    assert np.all(np.abs(zoo_chart.gauss_curvature(x) - k) <= rounding)
    assert np.all(rounding <= 1e3 * np.finfo(float).eps * np.maximum(np.abs(k), 1.0))


def test_metric_positive_definite_and_riemann_symmetries(zoo_chart, rng):
    # the curvature the Jacobi equation reads, w -> R(w, v)v: pair exchange
    # g(R(w,v)v, w') = g(R(w',v)v, w) makes it g-self-adjoint, and
    # g(R(w,v)v, w) = g(R(v,w)w, v), both K times a Gram determinant that
    # cancels down from g(v,v) g(w,w)
    for _ in range(20):
        x = sample_inside(zoo_chart, rng)
        g = zoo_chart.metric_checked(x)
        assert np.all(np.linalg.eigvalsh(g) > 0)
        v, w = rng.standard_normal(2), rng.standard_normal(2)
        g_rop = g @ curvature_operator(zoo_chart, x, v)
        scale = 1.0 + np.max(np.abs(g_rop))
        assert np.max(np.abs(g_rop - g_rop.T)) <= 1e-14 * scale
        rwv_v = curvature_operator(zoo_chart, x, v) @ w
        rvw_w = curvature_operator(zoo_chart, x, w) @ v
        gram_scale = (v @ g @ v) * (w @ g @ w) * max(abs(float(zoo_chart.gauss_curvature(x))), 1.0)
        assert abs(rwv_v @ g @ w - rvw_w @ g @ v) <= 1e-14 * gram_scale


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
    # the closed forms of both exhaustion forms against central differences
    # of the one below, on every non-compact chart
    for name in ZOO:
        chart = make_chart(name)
        if chart.compact:
            continue
        x = chart.sample_point(rng, 0.7, 2.0)
        g_fd = central_difference(chart.exhaustion, x)
        h_fd = central_difference(chart.exhaustion_grad, x)
        assert np.max(np.abs(chart.exhaustion_grad(x) - g_fd)) < 1e-6, name
        assert np.max(np.abs(chart.exhaustion_hess(x) - h_fd)) < 1e-5, name


def _revolution_exhaustion_by_chart(name, x):
    """(r, grad r, Hess r) as each revolution chart wrote its own: |z| on the
    profile charts, rho on the paraboloid."""
    grad = np.zeros(x.shape)
    if name == "paraboloid":
        r, grad[..., 0] = x[..., 0], 1.0
    else:
        r, grad[..., 0] = np.abs(x[..., 0]), np.sign(x[..., 0])
    return r, grad, np.zeros(x.shape[:-1] + (2, 2))


@pytest.mark.parametrize("name", ["cylinder", "funnel", "bumped_cylinder", "paraboloid"])
def test_revolution_exhaustion_matches_the_per_chart_forms(name, rng):
    # the ramp of find and the region test of verify read these values: the
    # one revolution form gives each chart's own formulas bit for bit
    chart = make_chart(name)
    x = sample_batch(chart, rng, 2000).reshape(40, 50, 2)
    for got, want in zip((chart.exhaustion(x), chart.exhaustion_grad(x),
                          chart.exhaustion_hess(x)), _revolution_exhaustion_by_chart(name, x)):
        assert got.shape == want.shape and np.array_equal(got, want)


def test_sphere_has_no_exhaustion():
    sphere = make_chart("sphere")
    for name in ("exhaustion", "exhaustion_grad", "exhaustion_hess"):
        with pytest.raises(NotImplementedError):
            getattr(sphere, name)(np.array([0.3, 0.1]))


def test_flow_flat_straight_line():
    plane = make_chart("plane")
    out = geodesic_flow(plane, TangentVector([0.0, 0.0], [1.0, 0.0]), 3.0)
    assert np.allclose(out.base, [3.0, 0.0], atol=1e-12)
    assert np.allclose(out.v, [1.0, 0.0], atol=1e-12)


def test_flow_cylinder_pure_angular():
    cyl = make_chart("cylinder")
    out = geodesic_flow(cyl, TangentVector([0.0, 0.0], [0.0, 1.0]), 1.0)
    assert np.allclose(out.base, [0.0, 1.0], atol=1e-12)


def test_flow_sphere_great_circle_closes():
    sphere = make_chart("sphere")
    start = TangentVector([1.0, 0.0], [0.0, 1.0])  # unit metric speed on |u| = 1
    out = geodesic_flow(sphere, start, 2 * np.pi)
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
        out = geodesic_flow(chart, TangentVector(x0, v0), t)
    except DomainEscapeError:
        t = 4.0
        out = geodesic_flow(chart, TangentVector(x0, v0), t)
    drift = abs(metric_speed(chart, out.base, out.v) - 1.0)
    assert drift < 1e-6 * t


@pytest.mark.parametrize("name", sorted(SAFE_STARTS))
def test_flow_semigroup(name):
    chart = make_chart(name)
    x0, v0 = SAFE_STARTS[name]
    start = TangentVector(np.asarray(x0, float), np.asarray(v0, float))
    t, s = 1.3, 0.7
    once = geodesic_flow(chart, start, t + s)
    mid = geodesic_flow(chart, start, t)
    twice = geodesic_flow(chart, TangentVector(mid.base, mid.v), s)
    assert np.linalg.norm(once.base - twice.base) < 1e-5
    assert np.linalg.norm(once.v - twice.v) < 1e-5


def test_flow_domain_escape_carries_time():
    sphere = make_chart("sphere")
    # radially outward from near the guard: escapes quickly
    with pytest.raises(DomainEscapeError) as err:
        geodesic_flow(sphere, TangentVector([9.0, 0.0], [50.0, 0.0]), 2.0)
    assert 0 <= err.value.exit_time <= 2.0
    # a start outside the chart exits at once
    with pytest.raises(DomainEscapeError) as err:
        geodesic_flow(sphere, TangentVector([11.0, 0.0], [1.0, 0.0]), 2.0)
    assert err.value.exit_time == 0.0


def test_flow_point_refused_inside_the_guard_is_an_escape():
    class WalledPlane(FlatPlane):
        # refuses x > 1, which its domain guard does not say; the flow
        # reads the chart through its closed-form spray
        def metric(self, x):
            if np.any(np.asarray(x)[..., 0] > 1.0):
                raise ChartDomainError("wall")
            return super().metric(x)

        def spray(self, x, v):
            self.metric(x)
            return super().spray(x, v)

    start = TangentVector([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(DomainEscapeError) as err:
        geodesic_flow(WalledPlane(), start, 2.0)
    assert 0.0 < err.value.exit_time <= 1.0
    grid = np.linspace(0.0, 2.0, 17)
    with pytest.raises(DomainEscapeError) as err:
        jacobi_propagate(WalledPlane(), start, 2.0, grid)
    # the first stage point past the wall is x_8 + h/5, in step 8
    assert err.value.exit_time == grid[8] == 1.0
    _, exit_time = jacobi_propagate(
        WalledPlane(), TangentVector(np.tile(start.base, (2, 1)), [[1.0, 0.0], [0.0, 1.0]]),
        2.0, grid)
    # the batch cannot tell whose point was refused: both members exit
    assert list(exit_time) == [1.0, 1.0]


def test_flow_rejects_bad_arguments():
    plane = make_chart("plane")
    with pytest.raises(ValueError):
        geodesic_flow(plane, TangentVector([0, 0], [1, 0]), -1.0)
    with pytest.raises(ValueError):
        geodesic_flow(plane, TangentVector([0, 0], [1, 0]), 0.0)
    with pytest.raises(ValueError, match="speed"):
        geodesic_flow(plane, TangentVector([0, 0], [0, 0]), 1.0)
    # a replayed grid must rise strictly from 0 to t
    start = TangentVector([0.0, 0.0], [1.0, 0.0])
    for grid in ([0.0, 0.5, 0.9], [0.1, 0.5, 1.0], [0.0, 0.6, 0.5, 1.0]):
        with pytest.raises(ValueError, match="grid"):
            jacobi_propagate(plane, start, 1.0, grid)


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
