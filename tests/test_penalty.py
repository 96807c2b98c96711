import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geolab.charts import TangentVector, geodesic_flow, make_chart
from geolab.loops import make_loop, preconditioned_norm
from geolab.penalty import (
    PenaltySchedule,
    classify_critical_point,
    corner_residual,
    penalized_energy,
    penalized_gradient,
    penalty_coordinate_grad,
    penalty_gradient_and_hessian,
    penalty_value,
)

from conftest import waist_loop


def test_schedule_radii_increasing():
    sched = PenaltySchedule(r0=2.0, dr=1.5)
    radii = [sched.radius(a) for a in range(6)]
    assert all(b > a for a, b in zip(radii, radii[1:]))
    with pytest.raises(ValueError):
        PenaltySchedule(r0=-1.0)
    with pytest.raises(ValueError):
        sched.radius(-1)


def test_ramp_vanishes_inside_support():
    plane = make_chart("plane")
    sched = PenaltySchedule(r0=2.0, dr=1.0)
    x = np.array([1.0, 0.5])  # r < 2
    assert penalty_value(plane, sched, 0, x) == 0.0
    grad, hess = penalty_gradient_and_hessian(plane, sched, 0, x)
    assert np.all(grad == 0) and np.all(hess == 0)


def test_flat_plane_ramp_gradient_example():
    # d/dr of (r - R)^3 at r - R = 1 is 3, pointing radially
    plane = make_chart("plane")
    sched = PenaltySchedule(r0=2.0, dr=1.0, stiffness=1.0)
    grad, _ = penalty_gradient_and_hessian(plane, sched, 0, np.array([3.0, 0.0]))
    assert np.allclose(grad, [3.0, 0.0], atol=1e-12)
    assert penalty_value(plane, sched, 0, np.array([3.0, 0.0])) == 1.0


def test_compact_chart_gets_zero_penalty():
    sphere = make_chart("sphere")
    sched = PenaltySchedule()
    x = np.array([1.5, 0.0])
    assert penalty_value(sphere, sched, 0, x) == 0.0
    grad, hess = penalty_gradient_and_hessian(sphere, sched, 0, x)
    assert np.all(grad == 0) and np.all(hess == 0)


def test_hessian_is_second_derivative_along_geodesics(rng):
    # the covariant Hessian is defined by d^2/ds^2 f(exp_x(s v)) at s = 0
    fun = make_chart("funnel")
    sched = PenaltySchedule(r0=1.0, dr=1.0, stiffness=1.3)
    x = np.array([2.2, 0.7])
    for _ in range(4):
        v = rng.standard_normal(2)
        _, hess = penalty_gradient_and_hessian(fun, sched, 0, x)
        h = 1e-4

        def f_along(s):
            if s == 0:
                return penalty_value(fun, sched, 0, x)
            out = geodesic_flow(fun, TangentVector(x, v), abs(s) * h)
            if s < 0:
                out = geodesic_flow(fun, TangentVector(x, -v), abs(s) * h)
            return penalty_value(fun, sched, 0, out.base)

        fd = (f_along(1.0) - 2 * f_along(0) + f_along(-1.0)) / h**2
        assert abs(fd - v @ hess @ v) < 1e-4 * max(1.0, abs(fd))


def test_penalized_energy_ramp_example():
    cyl = make_chart("cylinder")
    sched = PenaltySchedule(r0=2.0, dr=1.0, stiffness=1.0)
    n = 64
    ts = 2 * np.pi * np.arange(n) / n
    loop = make_loop(cyl, np.stack([np.full(n, 3.0), ts], axis=1))  # r - R = 1
    from geolab.loops import energy
    assert abs(penalized_energy(cyl, sched, 0, loop) - (energy(cyl, loop) + 1.0)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(z0=st.floats(-4.0, 4.0), amp=st.floats(0.0, 0.3), alpha=st.integers(0, 4))
def test_property_penalty_monotone_in_alpha(z0, amp, alpha):
    cyl = make_chart("cylinder")
    sched = PenaltySchedule(r0=1.0, dr=0.7)
    ts = 2 * np.pi * np.arange(24) / 24
    loop = make_loop(cyl, np.stack([z0 + amp * np.sin(ts), ts], axis=1))
    e_a = penalized_energy(cyl, sched, alpha, loop)
    e_b = penalized_energy(cyl, sched, alpha + 1, loop)
    from geolab.loops import energy
    assert e_a >= e_b >= energy(cyl, loop)


def test_support_escapes_every_compact_ball():
    sched = PenaltySchedule(r0=1.0, dr=2.0)
    for ball_radius in (3.0, 10.0, 50.0):
        alpha0 = next(a for a in range(100) if sched.radius(a) > ball_radius)
        assert sched.radius(alpha0) > ball_radius


def test_penalty_hessian_psd_where_exhaustion_convex(rng):
    plane = make_chart("plane")
    sched = PenaltySchedule(r0=1.0, dr=1.0)
    for _ in range(20):
        x = plane.sample_point(rng, 1.5, 6.0)
        _, hess = penalty_gradient_and_hessian(plane, sched, 0, x)
        assert np.min(np.linalg.eigvalsh(hess)) >= -1e-10


def test_corner_residual_constant_loop_off_support():
    plane = make_chart("plane")
    sched = PenaltySchedule(r0=2.0, dr=1.0)
    loop = make_loop(plane, np.broadcast_to([0.3, 0.1], (16, 2)).copy())
    assert np.allclose(corner_residual(plane, sched, 0, loop), 0.0)


def test_corner_residual_smooth_geodesic_refines():
    cyl = make_chart("cylinder")
    sched = PenaltySchedule(r0=5.0, dr=1.0)
    res = corner_residual(cyl, sched, 0, waist_loop(cyl, 256))
    assert np.linalg.norm(res) < 1e-3


def test_corner_point_residual_and_refinement(corner_point):
    fc = corner_point
    chart, sched, alpha = fc["chart"], fc["schedule"], fc["alpha"]
    res_256 = np.linalg.norm(corner_residual(chart, sched, alpha, fc["loop_at"](256)))
    res_512 = np.linalg.norm(corner_residual(chart, sched, alpha, fc["loop_at"](512)))
    assert res_256 < 1e-2
    assert res_512 < res_256
    # the loop really is a critical point of the penalized energy
    grad = penalized_gradient(chart, sched, alpha, fc["loop_at"](256))
    assert np.linalg.norm(grad) / 256 < 1e-3


def test_classification_genuine_waist():
    fun = make_chart("funnel")
    sched = PenaltySchedule(r0=5.0, dr=1.0)
    cls = classify_critical_point(fun, sched, 0, waist_loop(fun, 64), ell=10.0)
    assert cls.case == "genuine"
    assert cls.basepoint_excess < 0  # off the penalty support


def test_classification_penalty_supported_with_containment(corner_point):
    fc = corner_point
    loop = fc["loop_at"](256)
    # the arc oscillates through |z| ~ 0: containment is only assertable
    # for a trivial inner radius, but the separation logic is exercised
    cls = classify_critical_point(fc["chart"], fc["schedule"], fc["alpha"], loop,
                                  ell=0.1, k_radius=0.0)
    assert cls.case == "penalty_supported"
    assert cls.basepoint_excess > 0
    assert cls.containment_ok is True
    # separation too weak: containment not asserted
    cls_weak = classify_critical_point(fc["chart"], fc["schedule"], fc["alpha"], loop,
                                       ell=5.0, k_radius=0.0)
    assert cls_weak.case == "penalty_supported" and cls_weak.containment_ok is None
    # without a compact-set radius the containment stays unchecked
    cls2 = classify_critical_point(fc["chart"], fc["schedule"], fc["alpha"], loop, ell=0.1)
    assert cls2.case == "penalty_supported"
    assert cls2.containment_ok is None


def _plane_constant_loop(excess, n=32, r0=2.0):
    direction = np.array([0.6, 0.8])
    return make_loop(make_chart("plane"), np.tile((r0 + excess) * direction, (n, 1)))


def test_classification_plane_constant_loop_tolerance_band():
    # the band edge follows from the norms alone: a unit df at node 0 has
    # M-norm sqrt((M^-1)_00), and |dr| = 1 for the plane's radial exhaustion
    plane = make_chart("plane")
    sched = PenaltySchedule(r0=2.0, dr=1.0, stiffness=1.0)
    n, tau = 32, 1e-6
    unit = np.zeros((n, 2))
    unit[0, 0] = 1.0
    m00 = preconditioned_norm(unit) ** 2
    assert abs(m00 - 0.5 / np.tanh(0.5)) < 1e-3  # H^1 Green's function at 0
    edge = np.sqrt(tau / (3.0 * sched.stiffness * np.sqrt(m00)))
    inside = classify_critical_point(plane, sched, 0, _plane_constant_loop(0.99 * edge, n),
                                     ell=10.0, acceptance_level=tau)
    assert inside.case == "genuine"
    assert abs(inside.basepoint_excess - 0.99 * edge) < 1e-12
    assert inside.acceptance_level == tau
    assert inside.ramp_gradient_norm <= tau
    outside = classify_critical_point(plane, sched, 0, _plane_constant_loop(1.01 * edge, n),
                                      ell=10.0, acceptance_level=tau)
    assert outside.case == "penalty_supported"
    assert outside.ramp_gradient_norm > tau
    # an exactly critical loop (level 0) keeps the strict dichotomy
    strict = classify_critical_point(plane, sched, 0, _plane_constant_loop(0.99 * edge, n),
                                     ell=10.0)
    assert strict.case == "penalty_supported"
    off = classify_critical_point(plane, sched, 0, _plane_constant_loop(-0.5, n), ell=10.0)
    assert off.case == "genuine" and off.basepoint_excess == -0.5
    with pytest.raises(ValueError):
        classify_critical_point(plane, sched, 0, _plane_constant_loop(0.0, n), ell=10.0,
                                acceptance_level=-1.0)


def test_classification_funnel_stalled_constant_loop_is_genuine():
    # a constant funnel loop at the basepoint where Armijo descent alone
    # stalled start 0 of a funnel census (N=128, seed 2), r - R = 2.28e-4 on
    # the ramp, accepted at that stall's gradient level; the descent now
    # converges there at grad_tol (test_descend_ramp_start_converges_at_grad_tol)
    fun = make_chart("funnel")
    sched = PenaltySchedule()
    loop = make_loop(fun, np.tile([2.0002278582936657, 0.0], (128, 1)))
    level = 2.57e-7
    cls = classify_critical_point(fun, sched, 0, loop, ell=10.0, acceptance_level=level)
    assert cls.basepoint_excess > 0
    assert cls.case == "genuine"
    assert cls.acceptance_level == level
    # at the strict tolerance the ramp would count as resolved
    strict = classify_critical_point(fun, sched, 0, loop, ell=10.0, acceptance_level=1e-8)
    assert strict.case == "penalty_supported"


def test_classification_corner_point_supported_at_its_acceptance_level(corner_point):
    fc = corner_point
    chart, sched, alpha = fc["chart"], fc["schedule"], fc["alpha"]
    loop = fc["loop_at"](256)
    level = preconditioned_norm(penalized_gradient(chart, sched, alpha, loop))
    cls = classify_critical_point(chart, sched, alpha, loop, ell=0.1, k_radius=0.0,
                                  acceptance_level=level)
    assert cls.case == "penalty_supported"
    assert cls.containment_ok is True
    assert abs(cls.basepoint_excess - (fc["z0"] - sched.radius(alpha))) < 1e-12
    assert cls.ramp_gradient_norm > 1e3 * level
