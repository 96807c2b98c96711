import numpy as np
import pytest

from geolab.charts import make_chart
from geolab.descent import (
    DescentOptions,
    SweepOptions,
    SweepoutFamily,
    _armijo_step,
    _LoopStack,
    descend,
    minimax_sweepout,
    penalty_continuation,
    preconditioned_norm,
    validate_family,
)
from geolab.errors import FamilyTearError
from geolab.families import (
    birkhoff_latitudes,
    concentric_circles,
    random_loop,
    winding_band,
)
from geolab.loops import circle_shift, energy, make_loop, segment_checks
from geolab.penalty import PenaltySchedule

from conftest import circle_nodes


def test_descend_plane_to_constant(rng):
    plane = make_chart("plane")
    loop = random_loop(plane, rng, 64)
    res = descend(plane, loop)
    assert res.converged
    assert res.energy < 1e-10
    spread = np.max(res.loop.nodes, axis=0) - np.min(res.loop.nodes, axis=0)
    assert np.all(spread < 1e-4)


def test_descend_funnel_winding_to_waist(rng):
    fun = make_chart("funnel")
    sched = PenaltySchedule(r0=2.0, dr=1.0)
    loop = random_loop(fun, rng, 128, winding=1, r_band=(0.5, 2.0))
    res = descend(fun, loop, sched, 0)
    assert res.converged
    assert abs(res.energy - 4 * np.pi**2) < 0.01 * 4 * np.pi**2
    assert abs(res.loop.basepoint[0]) < 1e-3


def test_descend_funnel_from_penalty_region(rng):
    fun = make_chart("funnel")
    sched = PenaltySchedule(r0=2.0, dr=1.0)
    loop = random_loop(fun, rng, 128, winding=1, r_band=(4.0, 5.0))
    res = descend(fun, loop, sched, 0)
    assert res.converged
    assert abs(res.energy - 4 * np.pi**2) < 0.01 * 4 * np.pi**2


def test_descend_sphere_near_great_circle():
    sph = make_chart("sphere")
    n = 128
    ts = 2 * np.pi * np.arange(n) / n
    a = 1.0 / np.cos(np.pi / n)
    # perturbation in stable sectors only (k >= 2): descent with a loose
    # tolerance lands back on the saddle before the slow instability grows
    pert = 5e-4 * np.cos(2 * ts)[:, None] * np.stack([np.cos(ts), np.sin(ts)], axis=1)
    pert += 2.5e-4 * np.sin(3 * ts)[:, None] * np.stack([-np.sin(ts), np.cos(ts)], axis=1)
    loop = make_loop(sph, a * np.stack([np.cos(ts), np.sin(ts)], axis=1) + pert)
    res = descend(sph, loop, opts=DescentOptions(grad_tol=1e-3))
    assert res.converged
    assert abs(res.energy - 4 * np.pi**2) < 0.01 * 4 * np.pi**2


def test_descend_shift_equivariance_compact(rng):
    # no penalty on the sphere, so descent commutes with node rotation
    sph = make_chart("sphere")
    n = 64
    ts = 2 * np.pi * np.arange(n) / n
    nodes = 0.8 * np.stack([np.cos(ts), np.sin(ts)], axis=1)
    nodes[:, 0] += 0.1 * np.cos(3 * ts)
    loop = make_loop(sph, nodes)
    opts = DescentOptions(grad_tol=1e-6, max_iter=400)
    k = 17
    a = descend(sph, circle_shift(loop, k), opts=opts).loop
    b = circle_shift(descend(sph, loop, opts=opts).loop, k)
    assert np.max(np.abs(a.nodes - b.nodes)) < 1e-6


def test_descend_monotone_energy_assertion(rng):
    # the monotonicity guard runs on every accepted step; a full descent
    # completing without CrossCheckError is the assertion
    fun = make_chart("funnel")
    loop = random_loop(fun, rng, 64, winding=1, r_band=(0.2, 1.0))
    res = descend(fun, loop)
    assert res.converged


def test_preconditioned_norm_positive(rng):
    g = rng.standard_normal((32, 2))
    assert preconditioned_norm(g) > 0
    assert preconditioned_norm(np.zeros((32, 2))) == 0.0


def test_single_member_family_reduces_to_descend(rng):
    plane = make_chart("plane")
    loop = random_loop(plane, rng, 32)
    family = SweepoutFamily([loop], [False])
    res_sweep = minimax_sweepout(plane, family)
    res_desc = descend(plane, loop)
    assert abs(res_sweep.value - res_desc.energy) < 1e-12
    assert np.allclose(res_sweep.argmax.nodes, res_desc.loop.nodes)


def test_concentric_family_descends_to_zero():
    plane = make_chart("plane")
    family = concentric_circles(plane, 11, 48, r_max=1.2)
    res = minimax_sweepout(plane, family)
    assert res.value < 1e-8
    assert res.stable


def test_winding_family_funnel_waist_value():
    fun = make_chart("funnel")
    family = winding_band(fun, 5, 96, z_center=1.0, z_halfwidth=0.5)
    res = minimax_sweepout(fun, family)
    assert abs(res.value - 4 * np.pi**2) < 0.01 * 4 * np.pi**2
    assert res.argmax_grad_norm < 1e-3


def test_minimax_reversal_invariance():
    fun = make_chart("funnel")
    sched = PenaltySchedule(r0=2.0, dr=1.0)
    family = winding_band(fun, 5, 96, z_center=3.0, z_halfwidth=0.5)
    fwd = minimax_sweepout(fun, family, sched, 0)
    rev_members = list(reversed(winding_band(fun, 5, 96, 3.0, 0.5).members))
    rev = minimax_sweepout(fun, SweepoutFamily(rev_members, [False] * 5), sched, 0)
    assert abs(fwd.value - rev.value) < 1e-6


def test_birkhoff_family_construction_valid():
    sph = make_chart("sphere")
    family = birkhoff_latitudes(sph, 17, 64)
    validate_family(sph, family)
    assert family.frozen[0] and family.frozen[-1]
    assert family.members[0].frame == 0 and family.members[-1].frame == 1
    # south constant, equator at |u| = 1, north constant in the flipped gauge
    assert np.allclose(family.members[0].nodes, 0)
    assert np.allclose(family.members[-1].nodes, 0)


def test_birkhoff_minimax_small():
    # small instance of the latitude sweepout: the saddle is the equator
    sph = make_chart("sphere")
    family = birkhoff_latitudes(sph, 17, 64)
    res = minimax_sweepout(sph, family, sweep=SweepOptions(max_rounds=3000))
    assert abs(res.value - 4 * np.pi**2) < 0.01 * 4 * np.pi**2
    assert res.argmax_grad_norm < 1e-3
    assert res.stable


def test_latitude_sweep_pinned():
    # the benchmark's sweep: retighten and prune passes must keep the
    # members, and so the rounds, insertions and value, of the pair walk
    sph = make_chart("sphere")
    res = minimax_sweepout(sph, birkhoff_latitudes(sph, 9, 128),
                           sweep=SweepOptions(max_rounds=50))
    assert (res.rounds, res.insertions, res.family.size) == (50, 370, 143)
    assert abs(res.value - 39.49427739963668) <= 1e-12 * 39.49427739963668


def test_family_tear_budget():
    sph = make_chart("sphere")
    family = birkhoff_latitudes(sph, 17, 64)
    with pytest.raises(FamilyTearError):
        minimax_sweepout(sph, family, sweep=SweepOptions(max_members=17))


def test_penalty_continuation_monotone_funnel():
    fun = make_chart("funnel")
    sched = PenaltySchedule(r0=2.0, dr=1.0)
    family = winding_band(fun, 5, 96, z_center=4.0, z_halfwidth=0.5)
    cont = penalty_continuation(fun, sched, range(4), family)
    values = cont["values"]
    assert cont["violations"] == []
    assert all(b <= a + 1e-4 for a, b in zip(values, values[1:]))
    assert abs(values[-1] - 4 * np.pi**2) < 0.01 * 4 * np.pi**2


def test_penalty_continuation_constant_on_compact():
    # zero penalty on the sphere: the stage index cannot matter
    sph = make_chart("sphere")
    sched = PenaltySchedule(r0=2.0, dr=1.0)
    family = birkhoff_latitudes(sph, 9, 48)
    cont = penalty_continuation(sph, sched, range(2), family,
                                sweep=SweepOptions(max_rounds=1500))
    assert abs(cont["values"][0] - cont["values"][1]) < 1e-6 * cont["values"][0]


def test_penalty_continuation_rejects_bad_range():
    fun = make_chart("funnel")
    sched = PenaltySchedule()
    family = winding_band(fun, 3, 64, 1.0, 0.2)
    with pytest.raises(ValueError):
        penalty_continuation(fun, sched, [2, 1], family)


@pytest.mark.parametrize("max_move", [None, 0.05])
def test_stacked_step_equals_members_stepped_alone(max_move):
    # one step of a stacked family equals each member stepped as a stack of
    # one: no member's masks or step size may leak into another
    sph = make_chart("sphere")
    n = 32
    ts = 2 * np.pi * np.arange(n) / n
    circle = np.stack([np.cos(ts), np.sin(ts)], axis=1)
    # widest admissible latitude circle: descent pushes it outward, so every
    # trial stretches its segments past the cap
    lo, hi = 3.0, 4.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        _, over_cap, outside = segment_checks(sph, make_loop(sph, mid * circle))
        lo, hi = (lo, mid) if (over_cap or outside) else (mid, hi)
    members = [
        make_loop(sph, 0.8 * circle + 0.1 * np.cos(3 * ts)[:, None] * circle),
        make_loop(sph, 0.5 * circle, frame=1),                   # flipped gauge
        make_loop(sph, lo * circle),                             # cap-blocked
        make_loop(sph, circle / np.cos(np.pi / n)),              # critical polygon
        make_loop(sph, np.array([3.3, 0.0]) + 0.3 * circle),     # recenters on acceptance
    ]
    taus = [1.0, 4.0, 0.25, 2.0, 8.0]
    sched = PenaltySchedule()
    family = _LoopStack.of(sph, sched, 0, members)
    family.tau[:] = taus
    status, grad_norm = _armijo_step(family, np.arange(len(members)), 1e-8, max_move=max_move)
    assert list(status) == ["moved", "moved", "cap_stalled", "converged", "moved"]
    assert list(family.frame) == [0, 1, 0, 0, 1]
    for s, (loop, tau) in enumerate(zip(members, taus)):
        alone = _LoopStack.of(sph, sched, 0, [loop])
        alone.tau[:] = tau
        (status_alone,), (grad_norm_alone,) = _armijo_step(alone, [0], 1e-8, max_move=max_move)
        assert status_alone == status[s]
        assert abs(grad_norm_alone - grad_norm[s]) <= 1e-12
        assert alone.frame[0] == family.frame[s]
        assert np.max(np.abs(alone.nodes[0] - family.nodes[s])) <= 1e-12
        assert abs(alone.energy[0] - family.energy[s]) <= 1e-12
        assert abs(alone.tau[0] - family.tau[s]) <= 1e-12
