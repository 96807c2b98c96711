import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geolab import descent
from geolab.charts import make_chart
from geolab.descent import (
    DAMPING_FACTOR,
    MAX_DAMPING,
    NEWTON_TRIALS,
    RESOLUTION_FACTOR,
    STALL_GRAD_ACCEPT,
    DescentOptions,
    DescentResult,
    SweepOptions,
    SweepoutFamily,
    _add_metric,
    _armijo_step,
    _descent_step,
    _LoopStack,
    _resample,
    descend,
    descend_starts,
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
from geolab.loops import (
    circle_shift,
    double_nodes,
    energy,
    energy_gradient,
    loop_distance,
    make_loop,
    maybe_recenter,
    pair_distance,
    precondition,
    segment_checks,
)
from geolab.morse import SecondVariation, positive_solve
from geolab.penalty import PenaltySchedule, penalized_gradient

from conftest import circle_nodes, waist_loop


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


@pytest.mark.parametrize("index", range(3))
def test_descend_funnel_winding_starts_converge_at_grad_tol(index):
    # Armijo alone stopped these by the stall route at |g|_M = 0.7-1.4e-6
    # after about 230 steps; the Levenberg-Marquardt tail reaches grad_tol,
    # its last steps quadratic (25-32 steps, 4 of them LM)
    fun = make_chart("funnel")
    rng = np.random.default_rng(7)
    starts = [random_loop(fun, rng, 128, winding=1, r_band=(0.0, 3.0)) for _ in range(3)]
    opts = DescentOptions(grad_tol=1e-8)
    res = descend(fun, starts[index], PenaltySchedule(), 0, opts)
    assert res.converged and res.grad_norm <= opts.grad_tol
    assert 3 <= res.newton_steps <= 5 and res.iterations <= 40
    assert abs(res.energy - 4 * np.pi**2) < 1e-9


def test_descend_ramp_start_converges_at_grad_tol():
    # start 0 of a funnel census (N=128, seed 2) settles to a constant loop on
    # the cubic penalty ramp, whose gradient 3c(r - R)^2 Armijo alone crept
    # down for 16,383 steps before the stall route stopped it at 2.6e-7; each
    # Newton step halves r - R there
    fun = make_chart("funnel")
    sched = PenaltySchedule()
    opts = DescentOptions(grad_tol=1e-8)
    start = random_loop(fun, np.random.default_rng(2), 128, winding=0, r_band=(0.0, 3.0))
    res = descend(fun, start, sched, 0, opts)
    assert res.converged and res.grad_norm <= opts.grad_tol
    assert res.iterations <= 200
    assert res.grad_norm == preconditioned_norm(penalized_gradient(fun, sched, 0, res.loop))


def test_capped_newton_trial_falls_back_to_armijo(monkeypatch):
    # the widest latitude the cap admits (N = 40), in the LM phase with
    # c = 1/16: H + mu M is positive definite at each of the three trials
    # (mu = c |g|_M, 4c |g|_M and 16c |g|_M; it is for c in about
    # [0.033, 0.16], and 16c |g|_M < MAX_DAMPING for c below 0.16), but
    # every LM step pushes the loop outward past the cap, and so does every
    # Armijo trial, so the member reports cap_stalled, unmoved, which
    # descend_starts answers by doubling its nodes
    # (test_descend_starts_doubles_a_capped_member_alone)
    sph = make_chart("sphere")
    circle = circle_nodes(1.0, 40)
    capped = make_loop(sph, _widest_latitude(sph, circle, 4.0, 6.0) * circle)
    stack = _LoopStack.of(sph, None, None, [capped])
    stack.damping[:] = 1 / 16
    events = []

    def recorded_solve(sv, rhs):
        step = positive_solve(sv, rhs)
        events.append("refused" if step is None else "solved")
        return step

    def recorded_checks(chart, loop):
        checks = segment_checks(chart, loop)
        events.append("over_cap" if checks[1].any() else "admitted")
        return checks

    monkeypatch.setattr(descent, "positive_solve", recorded_solve)
    monkeypatch.setattr(descent, "segment_checks", recorded_checks)
    status, grad_norm, lm = _descent_step(stack, [0], [True], 1e-8)
    assert DAMPING_FACTOR**(NEWTON_TRIALS - 1) / 16 * grad_norm[0] < MAX_DAMPING
    lm_events, armijo_events = events[:2 * NEWTON_TRIALS], events[2 * NEWTON_TRIALS:]
    assert lm_events == ["solved", "over_cap"] * NEWTON_TRIALS
    assert armijo_events and set(armijo_events) == {"over_cap"}
    assert list(status) == ["cap_stalled"] and not lm[0]
    assert stack.damping[0] == DAMPING_FACTOR**NEWTON_TRIALS / 16
    assert np.array_equal(stack.nodes[0], capped.nodes)
    assert stack.energy[0] == energy(sph, capped)


def test_refused_block_solve_is_a_refused_trial(monkeypatch):
    # a waist rippled into the Newton tail (|g|_M about 1e-3): when the
    # block solve refuses every H + mu M, each trial multiplies c by
    # DAMPING_FACTOR, and the member then takes exactly its Armijo step
    fun = make_chart("funnel")
    ts = 2 * np.pi * np.arange(64) / 64
    rippled = make_loop(fun, np.stack([1e-3 * np.cos(3 * ts), ts], axis=1))
    sched = PenaltySchedule()
    stack, armijo = (_LoopStack.of(fun, sched, 0, [rippled]) for _ in range(2))
    refusals = []
    monkeypatch.setattr(descent, "positive_solve", lambda sv, rhs: refusals.append(1))
    status, grad_norm, lm = _descent_step(stack, [0], [True], 1e-8)
    assert len(refusals) == NEWTON_TRIALS and not lm[0]
    assert stack.damping[0] == DAMPING_FACTOR**NEWTON_TRIALS
    assert DAMPING_FACTOR**(NEWTON_TRIALS - 1) * grad_norm[0] <= MAX_DAMPING
    armijo_status, armijo_norm = _armijo_step(armijo, [0], 1e-8)
    assert list(status) == list(armijo_status) == ["moved"] and grad_norm[0] == armijo_norm[0]
    assert np.array_equal(stack.nodes, armijo.nodes)


def test_add_metric_is_the_operator_precondition_inverts(rng):
    n, d = 16, 2
    sv = SecondVariation(diag=np.zeros((n, d, d)), off=np.zeros((n, d, d)),
                         method="exact_discrete")
    _add_metric(sv, 1.0)
    m = sv.dense()
    assert np.array_equal(m, m.T)
    g = rng.standard_normal((n, d))
    p = np.linalg.solve(m, g.reshape(-1)).reshape(n, d)
    assert np.allclose(p, precondition(g), rtol=0.0, atol=1e-12 * np.abs(p).max())


def test_tail_below_the_rounding_floor_converges_by_the_stall_route():
    # the funnel waist is critical, but its |g|_M cannot fall below about
    # 4e-14 in float64, so grad_tol = 1e-16 is out of reach: the member
    # stalls once no step lowers the energy, and is accepted at the |g|_M
    # of the loop it stalls on, below STALL_GRAD_ACCEPT
    fun = make_chart("funnel")
    opts = DescentOptions(grad_tol=1e-16)
    res, = descend_starts(fun, [waist_loop(fun, 64)], opts=opts)
    assert res.converged and opts.grad_tol < res.grad_norm <= STALL_GRAD_ACCEPT
    assert res.grad_norm == preconditioned_norm(energy_gradient(fun, res.loop))


def test_preconditioned_norm_positive(rng):
    g = rng.standard_normal((32, 2))
    assert preconditioned_norm(g) > 0
    assert preconditioned_norm(np.zeros((32, 2))) == 0.0


def test_concentric_family_descends_to_zero():
    plane = make_chart("plane")
    family = concentric_circles(plane, 11, 48, r_max=1.2)
    res = minimax_sweepout(plane, family)
    assert res.value < 1e-8
    assert res.stable


@pytest.mark.parametrize("chart_name, make, sweep", [
    ("sphere", lambda c: birkhoff_latitudes(c, 9, 128), SweepOptions(max_rounds=50)),
    ("plane", lambda c: concentric_circles(c, 11, 48, r_max=1.2), SweepOptions()),
], ids=["latitudes", "concentric"])
def test_constant_end_members_never_move(chart_name, make, sweep):
    # the sweepout steps every member: a constant end loop is critical at
    # level 0, so each step finds it converged and leaves it as it is
    chart = make_chart(chart_name)
    family = make(chart)
    res = minimax_sweepout(chart, family, sweep=sweep)
    ends = [res.family.members[i] for i in (0, -1)]
    for got, want in zip(ends, (family.members[0], family.members[-1])):
        assert np.array_equal(got.nodes, want.nodes) and got.frame == want.frame
    stack = _LoopStack.of(chart, None, None, ends)
    status, _ = _armijo_step(stack, np.arange(2), DescentOptions().grad_tol)
    assert list(status) == ["converged", "converged"]


def test_pole_to_pole_family_is_torn():
    # the two gauges' chart origins are the two poles, pi apart on the
    # sphere: each gauge holds the other's origin at chart infinity
    sph = make_chart("sphere")
    south = make_loop(sph, np.zeros((16, 2)))
    north = make_loop(sph, np.zeros((16, 2)), frame=1)
    assert not np.any(np.isfinite(sph.recenter_map(np.zeros(2))))
    assert loop_distance(sph, south, north) == np.inf
    with pytest.raises(FamilyTearError):
        validate_family(sph, SweepoutFamily([south, north]))


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
    rev = minimax_sweepout(fun, SweepoutFamily(rev_members), sched, 0)
    assert abs(fwd.value - rev.value) < 1e-6


def test_birkhoff_family_construction_valid():
    sph = make_chart("sphere")
    family = birkhoff_latitudes(sph, 17, 64)
    validate_family(sph, family)
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
    assert res.rounds < 200


@pytest.mark.parametrize("variant", ["reversed", "circle_shifted"])
def test_birkhoff_minimax_orientation_and_shift(variant):
    # the latitude sweep read backwards, or with every member's node
    # indexing rotated, is the same sweepout: same level, just as fast
    sph = make_chart("sphere")
    family = birkhoff_latitudes(sph, 17, 64)
    if variant == "reversed":
        other = SweepoutFamily(family.members[::-1])
    else:
        other = SweepoutFamily([circle_shift(lp, 5) for lp in family.members])
    sweep = SweepOptions(max_rounds=3000)
    fwd = minimax_sweepout(sph, family, sweep=sweep)
    res = minimax_sweepout(sph, other, sweep=sweep)
    assert res.stable and res.rounds < 200
    assert abs(res.value - fwd.value) <= 1e-6 * fwd.value


def test_latitude_sweep_pinned():
    # the benchmark's sweep: the respaced family, and so the rounds,
    # insertions, member count and value, are pinned
    sph = make_chart("sphere")
    res = minimax_sweepout(sph, birkhoff_latitudes(sph, 9, 128),
                           sweep=SweepOptions(max_rounds=50))
    assert (res.rounds, res.insertions, res.family.size) == (50, 1483, 44)
    assert res.value == 39.49427754661288


def _sections(limit, gauge):
    """Runs of neighbor pairs that share one limit and one gauge (index lists)."""
    runs = [[0]]
    for s in range(1, len(limit)):
        if limit[s] == limit[s - 1] and gauge[s] == gauge[s - 1]:
            runs[-1].append(s)
        else:
            runs.append([s])
    return runs


def test_resample_spacing_on_relaxed_latitudes():
    sph = make_chart("sphere")
    family = birkhoff_latitudes(sph, 17, 64)
    stack = _LoopStack.of(sph, None, None, family.members)
    resolution = RESOLUTION_FACTOR * sph.segment_cap
    floor = 1e-9 * 4 * np.pi**2
    for _ in range(20):
        _armijo_step(stack, np.arange(stack.size), 1e-8, max_move=0.5 * resolution)
        _resample(stack, resolution, floor)
    _armijo_step(stack, np.arange(stack.size), 1e-8, max_move=0.5 * resolution)
    ends = [(stack.nodes[i].copy(), stack.frame[i], stack.energy[i]) for i in (0, -1)]
    dist, gauge = pair_distance(sph, stack.loop(slice(None, -1)), stack.loop(slice(1, None)))
    low = stack.energy <= floor
    limit = np.where(low[:-1] & low[1:], sph.segment_cap, resolution)
    units = [np.ceil(np.sum(dist[run] / limit[run])) for run in _sections(limit, gauge)]
    assert len(units) > 1        # the family crosses the gauge seam

    built = _resample(stack, resolution, floor)
    assert stack.size == sum(units) + 1 == built + 2
    assert stack.size >= np.ceil(np.sum(dist / limit)) + 1
    for i, (nodes, frame, e) in zip((0, -1), ends):
        assert np.array_equal(stack.nodes[i], nodes) and stack.frame[i] == frame
        assert stack.energy[i] == e
    low = stack.energy <= floor
    limit = np.where(low[:-1] & low[1:], sph.segment_cap, resolution)
    gaps = loop_distance(sph, stack.loop(slice(None, -1)), stack.loop(slice(1, None)))
    assert np.all(gaps <= limit + 1e-12)


def test_family_tear_budget(monkeypatch):
    sph = make_chart("sphere")
    family = birkhoff_latitudes(sph, 17, 64)
    monkeypatch.setattr(descent, "MAX_MEMBERS", 17)
    with pytest.raises(FamilyTearError):
        minimax_sweepout(sph, family)


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


def _widest_latitude(chart, circle, lo, hi):
    """Chart radius in [lo, hi] of the widest ``circle`` multiple the segment cap admits."""
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        _, over_cap, outside = segment_checks(chart, make_loop(chart, mid * circle))
        lo, hi = (lo, mid) if (over_cap or outside) else (mid, hi)
    return lo


@pytest.mark.parametrize("max_move", [None, 0.05])
def test_stacked_step_equals_members_stepped_alone(max_move):
    # one step of a stacked family equals each member stepped as a stack of
    # one, bit for bit: no member's masks, step size or batch may leak into
    # another
    sph = make_chart("sphere")
    n = 32
    ts = 2 * np.pi * np.arange(n) / n
    circle = np.stack([np.cos(ts), np.sin(ts)], axis=1)
    # widest admissible latitude circle: descent pushes it outward, so every
    # trial stretches its segments past the cap
    lo = _widest_latitude(sph, circle, 3.0, 4.0)
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
        assert grad_norm_alone == grad_norm[s]
        assert alone.frame[0] == family.frame[s]
        assert np.array_equal(alone.nodes[0], family.nodes[s])
        assert alone.energy[0] == family.energy[s]
        assert alone.tau[0] == family.tau[s]


def _descend_alone(chart, loop, schedule, alpha, opts):
    """The single-loop descent, a stack of one stepped alone: the reference."""
    stack = _LoopStack.of(chart, schedule, alpha, [maybe_recenter(chart, loop)])
    doubled, iterations, converged, grad_norm, newton = False, 0, False, np.inf, 0
    while iterations < opts.max_iter:
        lm_trial = stack.damping[0] * grad_norm <= MAX_DAMPING
        (status,), (grad_norm,), (lm,) = _descent_step(stack, [0], [lm_trial], opts.grad_tol)
        iterations += 1
        newton += lm
        if status == "cap_stalled":
            assert not doubled
            doubled = True
            stack = _LoopStack.of(chart, schedule, alpha, [double_nodes(chart, stack.loop(0))])
        elif status != "moved":
            if status == "stalled":
                grad_norm = preconditioned_norm(stack.gradient(stack.loop(0)))
            converged = status == "converged" or grad_norm <= STALL_GRAD_ACCEPT
            break
    return DescentResult(stack.loop(0), converged, iterations, stack.energy[0], grad_norm, newton)


def _assert_same_results(results, others):
    for a, b in zip(results, others, strict=True):
        assert np.array_equal(a.loop.nodes, b.loop.nodes) and a.loop.frame == b.loop.frame
        assert ((a.iterations, a.newton_steps, a.energy, a.grad_norm)
                == (b.iterations, b.newton_steps, b.energy, b.grad_norm))
        assert a.converged == b.converged


def _check_batch(chart, starts, schedule, alpha, opts):
    """``descend_starts`` of the batch, checked member by member against each start alone."""
    batch = descend_starts(chart, starts, schedule, alpha, opts)
    _assert_same_results(batch, [descend(chart, lp, schedule, alpha, opts) for lp in starts])
    _assert_same_results(batch, [_descend_alone(chart, lp, schedule, alpha, opts) for lp in starts])
    return batch


@pytest.mark.parametrize("max_iter", [20000, 30, 28])
def test_descend_starts_funnel_members_equal_starts_descended_alone(rng, max_iter):
    # a contractible start, a winding start and a contractible start on the
    # penalty ramp; the winding start converges at step 30, after four
    # Levenberg-Marquardt steps, so at max_iter 28 it is cut off inside its
    # tail, after three, while the contractible ones converge
    fun = make_chart("funnel")
    sched = PenaltySchedule(r0=2.0, dr=1.0)
    starts = [random_loop(fun, rng, 64, winding=0, r_band=(0.0, 3.0)),
              random_loop(fun, rng, 64, winding=1, r_band=(0.5, 2.0)),
              random_loop(fun, rng, 64, winding=0, r_band=(2.0, 3.0))]
    batch = _check_batch(fun, starts, sched, 0, DescentOptions(max_iter=max_iter))
    assert [r.converged for r in batch] == [True, max_iter > 28, True]
    assert batch[1].newton_steps == (4 if max_iter > 28 else 3)


@pytest.mark.parametrize("max_iter", [20000, 1])
def test_descend_starts_doubles_a_capped_member_alone(max_iter):
    # the widest latitude the cap admits inside the recenter trigger: its
    # first step is cap-blocked, so it doubles to 48 nodes and descends on in
    # a stack of its own; at max_iter 1 it ends on its doubled loop
    sph = make_chart("sphere")
    circle = circle_nodes(1.0, 24)
    ts = 2 * np.pi * np.arange(24) / 24
    starts = [make_loop(sph, 0.8 * circle + 0.1 * np.cos(3 * ts)[:, None] * circle),
              make_loop(sph, _widest_latitude(sph, circle, 2.0, 3.0) * circle),
              make_loop(sph, 0.5 * circle, frame=1)]
    assert np.all(np.linalg.norm(starts[1].nodes, axis=-1) < sph.recenter_trigger)
    batch = _check_batch(sph, starts, None, None, DescentOptions(max_iter=max_iter))
    assert [r.loop.n_nodes for r in batch] == [24, 48, 24]
    assert [r.converged for r in batch] == [max_iter > 1] * 3


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), order=st.permutations(range(4)))
def test_descend_starts_permuted_starts_permute_results(seed, order):
    fun = make_chart("funnel")
    rng = np.random.default_rng(seed)
    starts = [random_loop(fun, rng, 32, winding=k % 2, r_band=(0.0, 3.0)) for k in range(4)]
    sched = PenaltySchedule(r0=2.0, dr=1.0)
    opts = DescentOptions(max_iter=30)
    results = descend_starts(fun, starts, sched, 0, opts)
    permuted = descend_starts(fun, [starts[k] for k in order], sched, 0, opts)
    _assert_same_results(permuted, [results[k] for k in order])
