"""Critical-point search: preconditioned descent and sweepout minimax.

Descent runs Armijo-backtracked gradient steps preconditioned by the
inverse of the periodic operator (1/N) I + N L (L the second-difference
circulant), applied blockwise per coordinate via FFT.  That operator is
the discrete H^1 inner product on nodal fields, so step sizes and
convergence rates are mesh-independent; the gradient norm reported and
thresholded everywhere is the preconditioned one, |g|_M = sqrt(g . M^{-1} g).

The sweepout minimax evolves a discrete one-parameter family of loops:
every non-frozen member takes one descent step per round, family
continuity is re-tightened by nodewise-midpoint insertion whenever two
neighbors drift beyond the chart cap, and the family max of the penalized
energy is tracked until it stabilizes.  Near a saddle the two members
straddling it pull apart, midpoint insertion bisects the bracket, and the
running argmax converges to the critical point; extra midpoints are
inserted around a stalled argmax until its gradient norm passes the
target.  The returned value approximates the minimax level from the
family side; the gap to the true level is reported, not bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .charts import Chart
from .errors import ChartDomainError, CrossCheckError, FamilyTearError, RefineNeededError
from .loops import (
    DiscreteLoop,
    double_nodes,
    loop_distance,
    make_loop,
    maybe_recenter,
    midpoint_loop,
    precondition,
    preconditioned_norm,
    validate_loop,
)
from .penalty import PenaltySchedule, penalized_energy, penalized_gradient


@dataclass(frozen=True)
class DescentOptions:
    max_iter: int = 20000
    grad_tol: float = 1e-8             # preconditioned norm
    armijo: float = 1e-4
    backtrack: float = 0.5
    initial_step: float = 1.0
    max_step: float = 64.0
    #: gradient level still accepted as converged when the energy hits the
    #: float64 rounding floor before the strict tolerance is reachable
    stall_grad_accept: float = 1e-4

    def __post_init__(self):
        if self.grad_tol <= 0 or self.armijo <= 0 or not 0 < self.backtrack < 1:
            raise ValueError("descent tolerances must be positive, backtrack in (0,1)")


@dataclass
class DescentResult:
    """Stub report carried by a descended loop (full spectra live elsewhere)."""

    loop: DiscreteLoop
    converged: bool
    iterations: int
    energy: float
    grad_norm: float
    doublings: int = 0


class _LoopState:
    """One loop undergoing descent: caches energy and the trusted step size."""

    def __init__(self, chart, schedule, alpha, loop, opts):
        self.chart = chart
        self.schedule = schedule
        self.alpha = alpha
        self.opts = opts
        self.loop = loop
        self.tau = opts.initial_step
        self.energy = self._value(loop)
        self.grad_norm = np.inf
        self.no_progress = 0

    def _value(self, loop):
        if self.schedule is None:
            from .loops import energy
            return energy(self.chart, loop)
        return penalized_energy(self.chart, self.schedule, self.alpha, loop)

    def _gradient(self, loop):
        if self.schedule is None:
            from .loops import energy_gradient
            return energy_gradient(self.chart, loop)
        return penalized_gradient(self.chart, self.schedule, self.alpha, loop)

    def _trial(self, p, tau):
        trial = make_loop(self.chart, self.loop.nodes - tau * p, frame=self.loop.frame)
        with np.errstate(over="ignore", invalid="ignore"):
            return trial, self._value(trial)

    def step(self, max_move: float | None = None) -> str:
        """One Armijo-backtracked step: 'moved' | 'converged' | 'stalled' | 'cap_stalled'.

        'stalled' means no trial size produced a sufficient decrease (the
        energy sits at its rounding floor); 'cap_stalled' means the segment
        cap or chart domain blocked every trial, so the loop needs more
        nodes.  ``max_move`` bounds the max node displacement (sweepout
        members must move gently to keep the family continuous).
        """
        grad = self._gradient(self.loop)
        p = precondition(grad)
        slope = float(np.sum(grad * p))
        self.grad_norm = float(np.sqrt(max(slope, 0.0)))
        if self.grad_norm < self.opts.grad_tol:
            return "converged"
        tau = self.tau
        if max_move is not None:
            reach = float(np.max(np.linalg.norm(p, axis=-1)))
            if reach > 0:
                tau = min(tau, max_move / reach)
        blocked = 0
        trials = 0
        while tau > 1e-14:
            trials += 1
            try:
                trial, e_trial = self._trial(p, tau)
            except (RefineNeededError, ChartDomainError):
                blocked += 1
                tau *= self.opts.backtrack
                continue
            if np.isfinite(e_trial) and e_trial <= self.energy - self.opts.armijo * tau * slope:
                # greedy halving probe: the first sufficient decrease can be
                # far from the best one on stiff spectra
                while True:
                    try:
                        t2, e2 = self._trial(p, tau * self.opts.backtrack)
                    except (RefineNeededError, ChartDomainError):
                        break
                    if np.isfinite(e2) and e2 < e_trial:
                        tau, trial, e_trial = tau * self.opts.backtrack, t2, e2
                    else:
                        break
                if e_trial > self.energy + 1e-12 * max(1.0, abs(self.energy)):
                    raise CrossCheckError("descent accepted an energy increase")
                recentered = maybe_recenter(self.chart, trial)
                if recentered.frame != trial.frame:
                    e_trial = self._value(recentered)
                # decreases below float resolution on |E| count as no progress
                if self.energy - e_trial <= 16 * np.finfo(float).eps * max(abs(self.energy), 1.0):
                    self.no_progress += 1
                else:
                    self.no_progress = 0
                self.loop = recentered
                self.energy = e_trial
                self.tau = min(tau * 2.0, self.opts.max_step)
                if self.no_progress >= 25:
                    return "stalled"
                return "moved"
            tau *= self.opts.backtrack
        return "cap_stalled" if blocked == trials else "stalled"


def descend(chart: Chart, loop: DiscreteLoop, schedule: PenaltySchedule | None = None,
            alpha: int | None = None, opts: DescentOptions = DescentOptions()) -> DescentResult:
    """Drive one loop to a critical point of the (penalized) energy.

    The penalized energy is non-increasing across accepted steps (asserted).
    A segment-cap violation that backtracking cannot avoid triggers one
    automatic node doubling; a second one is a hard error.
    """
    validate_loop(chart, loop)
    state = _LoopState(chart, schedule, alpha, maybe_recenter(chart, loop), opts)
    doublings = 0
    iterations = 0
    converged = False
    while iterations < opts.max_iter:
        status = state.step()
        iterations += 1
        if status == "moved":
            continue
        if status == "converged":
            converged = True
        elif status == "stalled":
            # a stall after an accepted move measured the norm one loop back
            state.grad_norm = preconditioned_norm(state._gradient(state.loop))
            converged = state.grad_norm <= opts.stall_grad_accept
        elif status == "cap_stalled":
            if doublings >= 1:
                raise RefineNeededError(
                    "segment cap blocks descent even after node doubling"
                )
            doublings += 1
            state = _LoopState(chart, schedule, alpha,
                               double_nodes(chart, state.loop), opts)
            continue
        break
    return DescentResult(
        loop=state.loop, converged=converged, iterations=iterations,
        energy=state.energy, grad_norm=state.grad_norm, doublings=doublings,
    )


# ---------------------------------------------------------------------------
# sweepout minimax
# ---------------------------------------------------------------------------


@dataclass
class SweepoutFamily:
    """Ordered one-parameter family of loops; frozen members never move."""

    members: list
    frozen: list

    def __post_init__(self):
        if len(self.members) != len(self.frozen):
            raise ValueError("frozen flags must match the member count")

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SweepOptions:
    max_rounds: int = 6000
    stable_window: int = 50
    stable_rel: float = 1e-6
    #: relax-stage window: the family max only needs to settle to this
    #: level before the argmax bracket is polished at full precision
    relax_rel: float = 1e-3
    argmax_grad_tol: float = 1e-3
    max_members: int = 256
    value_floor: float = 1e-10
    polish_cycles: int = 400
    #: working resolution of the family as a fraction of the chart cap;
    #: neighbors are midpoint-split beyond it (the cap itself is the tear
    #: scale, far too coarse for good nodewise interpolants)
    resolution_factor: float = 0.25


@dataclass
class SweepoutResult:
    value: float
    argmax_index: int
    argmax: DiscreteLoop
    family: SweepoutFamily
    rounds: int
    stable: bool
    argmax_grad_norm: float
    insertions: int


def validate_family(chart: Chart, family: SweepoutFamily) -> None:
    for loop in family.members:
        validate_loop(chart, loop)
    for s in range(family.size - 1):
        dist = loop_distance(chart, family.members[s], family.members[s + 1])
        if dist > chart.segment_cap:
            raise FamilyTearError(
                f"family members {s}, {s+1} are {dist:.3g} apart "
                f"(cap {chart.segment_cap})", round_index=-1,
            )


def _retighten(chart, states, frozen, resolution, floor, max_members, round_index):
    """Insert nodewise midpoints wherever neighbors exceed the resolution.

    Pairs already settled at the bottom of the landscape (both energies
    below ``floor``) only need continuity at the tear scale (the chart
    cap): the minimax never reads them and midpoint quality is moot there.
    """
    cap = chart.segment_cap
    inserted = 0
    s = 0
    while s < len(states) - 1:
        a, b = states[s], states[s + 1]
        dist = loop_distance(chart, a.loop, b.loop)
        threshold = cap if (a.energy <= floor and b.energy <= floor) else resolution
        if dist > threshold:
            if len(states) >= max_members:
                raise FamilyTearError(
                    f"family needs more than {max_members} members", round_index
                )
            mid = midpoint_loop(chart, a.loop, b.loop)
            st = _new_state_like(a, mid)
            st.tau = 0.5 * (a.tau + b.tau)
            states.insert(s + 1, st)
            frozen.insert(s + 1, False)
            inserted += 1
            # re-examine the same pair after insertion
            continue
        s += 1
    return inserted


def _prune(chart, states, frozen, resolution, floor, protect: set):
    """Drop members whose removal keeps the family continuous.

    Two regimes: anywhere, when the flanking neighbors are already well
    inside the resolution (0.4 hysteresis against insertion); at the
    landscape bottom (energy below ``floor``), when the neighbors stay
    within 0.8 of the tear cap - settled near-constant loops would
    otherwise accumulate in the wake of every slide toward a minimum.
    The indices in ``protect`` (argmax bracket) and frozen members are kept.
    """
    cap = chart.segment_cap
    removed = 0
    s = 1
    while s < len(states) - 1:
        if frozen[s] or s in protect:
            s += 1
            continue
        dist = loop_distance(chart, states[s - 1].loop, states[s + 1].loop)
        settled = (states[s].energy <= floor
                   and states[s - 1].energy <= floor and states[s + 1].energy <= floor)
        if dist <= 0.4 * resolution or (settled and dist <= 0.8 * cap):
            del states[s]
            del frozen[s]
            protect = {p - 1 if p > s else p for p in protect}
            removed += 1
        else:
            s += 1
    return removed


def _new_state_like(proto: _LoopState, loop: DiscreteLoop) -> _LoopState:
    return _LoopState(proto.chart, proto.schedule, proto.alpha, loop, proto.opts)


def _polish_bracket(chart, states, frozen, k, opts, sweep):
    """Adaptive family bisection around the argmax member.

    Works on the argmax and its neighbors only: bounded descent steps,
    midpoint insertion inside the bracket, and dropping of the outermost
    members keep a shrinking three-member bracket around the saddle until
    the center's preconditioned gradient passes the target.  Everything
    stays within the family (the polished bracket replaces the original
    members), so the result is still a sweepout.

    Returns (argmax index, value window, cycles, success).
    """
    lo = max(k - 1, 0)
    hi = min(k + 1, len(states) - 1)
    bracket = states[lo:hi + 1]
    values: list[float] = []
    success = False
    cycles = 0
    quiet = max(10, sweep.stable_window // 5)
    for cycles in range(1, sweep.polish_cycles + 1):
        width = max(
            loop_distance(chart, bracket[0].loop, bracket[-1].loop), 1e-12
        )
        for st in bracket:
            st.step(max_move=width / 8.0)
        # refine: insert midpoints inside the bracket, keep the top three
        refined = []
        for i, st in enumerate(bracket):
            refined.append(st)
            if i + 1 < len(bracket):
                mid = midpoint_loop(chart, st.loop, bracket[i + 1].loop)
                refined.append(_new_state_like(st, mid))
        vals = [st.energy for st in refined]
        j = int(np.argmax(vals))
        bracket = refined[max(j - 1, 0):min(j + 2, len(refined))]
        center = refined[j]
        values.append(float(center.energy))
        grad = center._gradient(center.loop)
        if preconditioned_norm(grad) < sweep.argmax_grad_tol:
            # gradient target met: also require a quiet value window, so
            # the reported max is stationary and not still drifting down
            tail = values[-quiet:]
            if len(tail) == quiet and (
                max(tail) - min(tail) <= sweep.stable_rel * max(abs(tail[-1]), 1e-12)
            ):
                success = True
                break
    # splice the bracket back in place of the original slots
    states[lo:hi + 1] = bracket
    frozen[lo:hi + 1] = [False] * len(bracket)
    j = lo + int(np.argmax([st.energy for st in bracket]))
    return j, values, cycles, success


def minimax_sweepout(chart: Chart, family: SweepoutFamily,
                     schedule: PenaltySchedule | None = None, alpha: int | None = None,
                     opts: DescentOptions = DescentOptions(),
                     sweep: SweepOptions = SweepOptions()) -> SweepoutResult:
    """Relax a sweepout family and return the stabilized max of the energy.

    A single free member degenerates exactly to ``descend``.  Two stages:

    1. relax - every non-frozen member takes one bounded descent step per
       round, with midpoint re-tightening and redundancy pruning, until the
       family max settles at the ``relax_rel`` level (or everything
       converges, or the max hits the floor);
    2. polish - adaptive midpoint bisection of the argmax bracket drives
       the argmax member to an approximate critical point (preconditioned
       gradient below ``argmax_grad_tol``) and the max to ``stable_rel``
       stationarity.

    A saddle-straddling member always eventually slides off, so the family
    max is only stationary while the bracket is actively maintained; the
    returned value is read at the end of the polish stage.  Ties break
    toward the lowest family index.
    """
    validate_family(chart, family)
    if family.size == 1 and not family.frozen[0]:
        res = descend(chart, family.members[0], schedule, alpha, opts)
        fam = SweepoutFamily([res.loop], [False])
        return SweepoutResult(res.energy, 0, res.loop, fam, res.iterations,
                              res.converged, res.grad_norm, 0)

    states = [_LoopState(chart, schedule, alpha, loop, opts) for loop in family.members]
    frozen = list(family.frozen)
    insertions = 0
    window: list[float] = []
    rounds = 0
    all_done = False
    resolution = chart.segment_cap * sweep.resolution_factor

    def family_values():
        return np.array([st.energy for st in states])

    def argmax_info():
        vals = family_values()
        k = int(np.argmax(vals))
        grad = states[k]._gradient(states[k].loop)
        return k, float(vals[k]), preconditioned_norm(grad)

    move_limit = 0.5 * resolution
    for rounds in range(1, sweep.max_rounds + 1):
        all_done = True
        for s, st in enumerate(states):
            if frozen[s]:
                continue
            if st.step(max_move=move_limit) == "moved":
                all_done = False
        floor = max(sweep.value_floor, 1e-9 * max(abs(st.energy) for st in states))
        insertions += _retighten(chart, states, frozen, resolution, floor,
                                 sweep.max_members, rounds)
        k_now = int(np.argmax(family_values()))
        _prune(chart, states, frozen, resolution, floor,
               {k_now - 2, k_now - 1, k_now, k_now + 1, k_now + 2})

        k, value, argmax_grad = argmax_info()
        window.append(value)
        if len(window) > sweep.stable_window:
            window.pop(0)
        if all_done or value <= sweep.value_floor:
            break
        if len(window) == sweep.stable_window:
            spread = max(window) - min(window)
            if spread <= sweep.relax_rel * max(abs(window[-1]), 1e-12):
                break

    k, value, argmax_grad = argmax_info()
    stable = all_done or value <= sweep.value_floor
    if not stable and argmax_grad >= sweep.argmax_grad_tol:
        k, pol_values, cycles, success = _polish_bracket(
            chart, states, frozen, k, opts, sweep)
        insertions += 2 * cycles
        stable = success
        value = pol_values[-1]
        grad = states[k]._gradient(states[k].loop)
        argmax_grad = preconditioned_norm(grad)
    else:
        stable = True

    out_family = SweepoutFamily([st.loop for st in states], frozen)
    return SweepoutResult(
        value=value, argmax_index=k, argmax=states[k].loop, family=out_family,
        rounds=rounds, stable=stable, argmax_grad_norm=argmax_grad,
        insertions=insertions,
    )


def penalty_continuation(chart: Chart, schedule: PenaltySchedule, alphas,
                         family: SweepoutFamily,
                         opts: DescentOptions = DescentOptions(),
                         sweep: SweepOptions = SweepOptions()) -> dict:
    """Warm-started sweepout minimax along an increasing penalty stage range.

    Looser penalties can only lower the minimax level, so the value
    sequence must be non-increasing up to solver tolerance; violations
    beyond 1e-4 are flagged, not raised.
    """
    alphas = list(alphas)
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alpha range must be increasing")
    values = []
    results = []
    current = family
    for alpha in alphas:
        res = minimax_sweepout(chart, current, schedule, alpha, opts, sweep)
        values.append(res.value)
        results.append(res)
        current = res.family
    violations = [
        {"alpha": alphas[i + 1], "increase": values[i + 1] - values[i]}
        for i in range(len(values) - 1)
        if values[i + 1] > values[i] + 1e-4
    ]
    return {
        "alphas": alphas,
        "values": values,
        "violations": violations,
        "results": results,
    }
