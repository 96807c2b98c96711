"""Critical-point search: preconditioned descent and sweepout minimax.

Descent runs Armijo-backtracked gradient steps preconditioned by the
inverse of the periodic operator (1/N) I + N L (L the second-difference
circulant), applied blockwise per coordinate via FFT.  That operator is
the discrete H^1 inner product on nodal fields, so step sizes and
convergence rates are mesh-independent; the gradient norm reported and
thresholded everywhere is the preconditioned one, |g|_M = sqrt(g . M^{-1} g).

Every descent steps a stack of M loops: nodes (M, N, d) with per-member
gauge, energy, step size and stall count.  One step makes one gradient,
one preconditioner and one trial-energy call per backtracking round for
all members, which part ways only through masks.  ``descend`` is a stack
of one.  The sweepout minimax keeps its family as a stack: every free
member steps each round, stacked neighbor distances pick the pairs that
get nodewise midpoints and the members that can go, the family max is
tracked until it settles, and the argmax bracket is then bisected down
to the saddle.  The returned value approximates the minimax level from
the family side; the gap to the true level is reported, not bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .charts import Chart
from .errors import ChartDomainError, CrossCheckError, FamilyTearError, RefineNeededError
from .loops import (
    DiscreteLoop,
    double_nodes,
    energy,
    energy_gradient,
    loop_distance,
    maybe_recenter,
    midpoint_loop,
    precondition,
    preconditioned_norm,
    segment_checks,
    validate_loop,
)
from .penalty import PenaltySchedule, penalized_energy, penalized_gradient

ARMIJO = 1e-4          # sufficient-decrease constant
BACKTRACK = 0.5        # step factor per backtracking trial and per halving probe
INITIAL_STEP = 1.0     # step size tau of a fresh member
MAX_STEP = 64.0        # ceiling of tau, which doubles after each accepted step
#: gradient level still accepted as converged when the energy hits the
#: float64 rounding floor before the strict tolerance is reachable
STALL_GRAD_ACCEPT = 1e-4
STALL_STEPS = 25       # accepted steps in a row without float-resolved progress
_FLOAT_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class DescentOptions:
    """Step budget and |g|_M convergence level of each descending loop."""

    max_iter: int = 20000
    grad_tol: float = 1e-8             # preconditioned norm

    def __post_init__(self):
        if self.grad_tol <= 0:
            raise ValueError("descent tolerance grad_tol must be positive")


@dataclass
class DescentResult:
    """Stub report carried by a descended loop (full spectra live elsewhere)."""

    loop: DiscreteLoop
    converged: bool
    iterations: int
    energy: float
    grad_norm: float
    doublings: int = 0


_MEMBER_FIELDS = ("nodes", "frame", "energy", "tau", "stall", "frozen")


@dataclass
class _LoopStack:
    """Loops under descent along a leading member axis; one array per field."""

    chart: Chart
    value: Callable          # objective of a loop or a stack of loops
    gradient: Callable
    nodes: np.ndarray        # (M, N, d)
    frame: np.ndarray        # chart gauge
    energy: np.ndarray       # objective value
    tau: np.ndarray          # trusted step size
    stall: np.ndarray        # accepted steps in a row without float-resolved progress
    frozen: np.ndarray       # members the sweepout never steps

    @classmethod
    def of(cls, chart: Chart, schedule: PenaltySchedule | None, alpha: int | None,
           loops, frozen=None) -> "_LoopStack":
        """Stack ``loops`` under the penalized energy (the energy without a schedule)."""
        if schedule is None:
            value, gradient = partial(energy, chart), partial(energy_gradient, chart)
        else:
            value = partial(penalized_energy, chart, schedule, alpha)
            gradient = partial(penalized_gradient, chart, schedule, alpha)
        m = len(loops)
        nodes, frame = np.stack([lp.nodes for lp in loops]), np.array([lp.frame for lp in loops])
        return cls(chart, value, gradient, nodes, frame, value(DiscreteLoop(nodes, frame)),
                   np.full(m, INITIAL_STEP), np.zeros(m, dtype=int),
                   np.zeros(m, dtype=bool) if frozen is None else np.array(frozen, dtype=bool))

    @property
    def size(self) -> int:
        return len(self.energy)

    def loop(self, s) -> DiscreteLoop:
        """Member ``s``, or the stack of members an index array or slice picks."""
        return DiscreteLoop(self.nodes[s], self.frame[s])

    def insert(self, s, loops: DiscreteLoop, tau) -> None:
        """Insert the stack ``loops`` before the members at positions ``s`` (np.insert)."""
        row = (loops.nodes, loops.frame, self.value(loops), tau, 0, False)
        for name, v in zip(_MEMBER_FIELDS, row):
            setattr(self, name, np.insert(getattr(self, name), s, v, axis=0))

    def delete(self, s: int | slice) -> None:
        for name in _MEMBER_FIELDS:
            setattr(self, name, np.delete(getattr(self, name), s, axis=0))


def _trial_values(stack: _LoopStack, trial: DiscreteLoop):
    """(objective, admissible) per trial member; NaN where the cap or domain blocks it."""
    try:
        return stack.value(trial), True
    except (RefineNeededError, ChartDomainError):
        _, over_cap, outside = segment_checks(stack.chart, trial)
        ok = ~(over_cap | outside)
        values = np.full(len(ok), np.nan)
        if ok.any():
            values[ok] = stack.value(DiscreteLoop(trial.nodes[ok], trial.frame[ok]))
        return values, ok


def _armijo_step(stack: _LoopStack, members, grad_tol: float, max_move: float | None = None):
    """One Armijo-backtracked step of each listed member; returns (status, |g|_M).

    Status per member: 'moved' | 'converged' | 'stalled' (no trial size
    gave a sufficient decrease, or ``STALL_STEPS`` accepted steps made no
    float-resolved progress) | 'cap_stalled' (the segment cap or chart
    domain blocked every trial: the loop needs more nodes).  ``max_move``
    bounds the max node displacement (sweepout members must move gently to
    keep the family continuous).
    """
    idx = np.asarray(members, dtype=int)
    nodes, frame, e0 = stack.nodes[idx], stack.frame[idx], stack.energy[idx]
    grad = stack.gradient(DiscreteLoop(nodes, frame))
    p = precondition(grad)
    slope = (grad * p).sum(axis=(-2, -1))
    del grad                # not needed past the slope; keeps the stack's peak memory down
    gnorm = np.sqrt(np.maximum(slope, 0.0))
    converged = gnorm < grad_tol
    step = stack.tau[idx]
    if max_move is not None:
        reach = np.linalg.norm(p, axis=-1).max(axis=-1)
        far = reach > 0
        step = np.where(far, np.minimum(step, max_move / np.where(far, reach, 1.0)), step)

    # each member in play tries ``step``, then half of it: a failed trial
    # backtracks; after the first sufficient decrease, a greedy probe keeps
    # halving while that lowers the energy (the first sufficient decrease
    # can be far from the best one on stiff spectra)
    searching, probing = ~converged, np.zeros_like(converged)
    accepted, admitted = np.zeros_like(converged), np.zeros_like(converged)
    best_tau, best_e = np.zeros(idx.size), np.zeros(idx.size)
    e, ok = np.empty(idx.size), np.empty(idx.size, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            searching &= step > 1e-14
            pending = searching | probing
            if not pending.any():
                break
            stepped = (nodes - step[:, None, None] * p)[pending]
            trial = DiscreteLoop(stack.chart.reduce_point(stepped), frame[pending])
            e.fill(np.nan)
            e[pending], ok[pending] = _trial_values(stack, trial)
            admitted |= searching & ok
            decrease = searching & np.isfinite(e) & (e <= e0 - ARMIJO * step * slope)
            better = probing & (e < best_e)         # NaN and inf never compare less
            keep = decrease | better
            best_tau, best_e = np.where(keep, step, best_tau), np.where(keep, e, best_e)
            accepted |= probing & ~better
            probing = keep
            searching &= ~decrease
            step = step * BACKTRACK

    status = np.full(idx.size, "stalled", dtype="<U11")
    status[converged] = "converged"
    status[~converged & ~accepted & ~admitted] = "cap_stalled"
    if not accepted.any():
        return status, gnorm
    e_prev, e_new = e0[accepted], best_e[accepted]
    if (e_new > e_prev + 1e-12 * np.maximum(1.0, np.abs(e_prev))).any():
        raise CrossCheckError("descent accepted an energy increase")
    # the kept trial of each member, rebuilt bit for bit from its step size
    best = stack.chart.reduce_point(
        nodes[accepted] - best_tau[accepted][:, None, None] * p[accepted])
    moved = maybe_recenter(stack.chart, DiscreteLoop(best, frame[accepted]))
    flipped = moved.frame != frame[accepted]
    if flipped.any():
        e_new[flipped] = stack.value(DiscreteLoop(moved.nodes[flipped], moved.frame[flipped]))
    # decreases below float resolution on |E| count as no progress
    idle = e_prev - e_new <= 16 * _FLOAT_EPS * np.maximum(np.abs(e_prev), 1.0)
    rows = idx[accepted]
    stack.stall[rows] = np.where(idle, stack.stall[rows] + 1, 0)
    stack.nodes[rows], stack.frame[rows], stack.energy[rows] = moved.nodes, moved.frame, e_new
    stack.tau[rows] = np.minimum(best_tau[accepted] * 2.0, MAX_STEP)
    status[accepted] = np.where(stack.stall[rows] >= STALL_STEPS, "stalled", "moved")
    return status, gnorm


def descend(chart: Chart, loop: DiscreteLoop, schedule: PenaltySchedule | None = None,
            alpha: int | None = None, opts: DescentOptions = DescentOptions()) -> DescentResult:
    """Drive one loop to a critical point of the (penalized) energy.

    The penalized energy is non-increasing across accepted steps (asserted).
    A segment-cap violation that backtracking cannot avoid triggers one
    automatic node doubling; a second one is a hard error.
    """
    validate_loop(chart, loop)
    stack = _LoopStack.of(chart, schedule, alpha, [maybe_recenter(chart, loop)])
    doublings = 0
    iterations = 0
    converged = False
    grad_norm = np.inf
    while iterations < opts.max_iter:
        (status,), (grad_norm,) = _armijo_step(stack, [0], opts.grad_tol)
        iterations += 1
        if status == "moved":
            continue
        if status == "converged":
            converged = True
        elif status == "stalled":
            # a stall after an accepted move measured the norm one loop back
            grad_norm = preconditioned_norm(stack.gradient(stack.loop(0)))
            converged = grad_norm <= STALL_GRAD_ACCEPT
        elif status == "cap_stalled":
            if doublings >= 1:
                raise RefineNeededError(
                    "segment cap blocks descent even after node doubling"
                )
            doublings += 1
            stack = _LoopStack.of(chart, schedule, alpha, [double_nodes(chart, stack.loop(0))])
            continue
        break
    return DescentResult(
        loop=stack.loop(0), converged=converged, iterations=iterations,
        energy=float(stack.energy[0]), grad_norm=float(grad_norm), doublings=doublings,
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


STABLE_WINDOW = 50     # relax-stage window (rounds); a fifth of it is the polish quiet window
STABLE_REL = 1e-6      # relative spread of the polished max that counts as stationary
#: relax-stage window: the family max only needs to settle to this
#: level before the argmax bracket is polished at full precision
RELAX_REL = 1e-3
VALUE_FLOOR = 1e-10    # family max at or below which the sweep has reached the bottom
POLISH_CYCLES = 400    # bisection cycles the polish stage may spend
#: working resolution of the family as a fraction of the chart cap;
#: neighbors are midpoint-split beyond it (the cap itself is the tear
#: scale, far too coarse for good nodewise interpolants)
RESOLUTION_FACTOR = 0.25


@dataclass(frozen=True)
class SweepOptions:
    """Relax-round budget, argmax |g|_M target and family size cap."""

    max_rounds: int = 6000
    argmax_grad_tol: float = 1e-3
    max_members: int = 256


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
    nodes = np.stack([lp.nodes for lp in family.members])
    frame = np.array([lp.frame for lp in family.members])
    validate_loop(chart, DiscreteLoop(nodes, frame))
    dist = loop_distance(chart, DiscreteLoop(nodes[:-1], frame[:-1]),
                         DiscreteLoop(nodes[1:], frame[1:]))
    for s in np.flatnonzero(dist > chart.segment_cap)[:1]:
        raise FamilyTearError(f"family members {s}, {s+1} are {dist[s]:.3g} apart "
                              f"(cap {chart.segment_cap})", round_index=-1)


def _retighten(stack: _LoopStack, resolution, floor, max_members, round_index):
    """Insert nodewise midpoints wherever neighbors exceed the resolution.

    One stacked distance per pass measures all adjacent pairs and every pair
    over its limit gets a midpoint, until none is over; each decision reads
    only its own pair, so this is each gap split until it fits.  Pairs
    already settled at the bottom of the landscape (both energies below
    ``floor``) only need continuity at the tear scale (the chart cap): the
    minimax never reads them and midpoint quality is moot there.
    """
    chart = stack.chart
    inserted = 0
    while True:
        dist = loop_distance(chart, stack.loop(slice(None, -1)), stack.loop(slice(1, None)))
        low = stack.energy <= floor
        gap = np.flatnonzero(dist > np.where(low[:-1] & low[1:], chart.segment_cap, resolution))
        if gap.size == 0:
            return inserted
        if stack.size + gap.size > max_members:
            raise FamilyTearError(f"family needs more than {max_members} members", round_index)
        stack.insert(gap + 1, midpoint_loop(chart, stack.loop(gap), stack.loop(gap + 1)),
                     tau=0.5 * (stack.tau[gap] + stack.tau[gap + 1]))
        inserted += gap.size


def _prune(stack: _LoopStack, resolution, floor, protect: set) -> None:
    """Drop members whose removal keeps the family continuous.

    Greedy, left to right, on the distance from the kept left neighbor to
    the right one: one stacked call gives every (s-1, s+1) distance, and a
    member whose left neighbor was just dropped is measured again.  Two
    regimes: anywhere, when it is already well inside the resolution (0.4
    hysteresis against insertion); at the landscape bottom (energy below
    ``floor``), when it stays within 0.8 of the tear cap - settled
    near-constant loops would otherwise accumulate in the wake of every
    slide toward a minimum.  ``protect`` (argmax bracket) and frozen members stay.
    """
    chart, m = stack.chart, stack.size
    skip = loop_distance(chart, stack.loop(slice(None, -2)), stack.loop(slice(2, None)))
    low = stack.energy <= floor
    keep = np.ones(m, dtype=bool)
    left = 0
    for s in range(1, m - 1):
        if stack.frozen[s] or s in protect:
            left = s
            continue
        dist = skip[s - 1] if left == s - 1 else loop_distance(
            chart, stack.loop(left), stack.loop(s + 1))
        settled = low[left] and low[s] and low[s + 1]
        if dist <= 0.4 * resolution or (settled and dist <= 0.8 * chart.segment_cap):
            keep[s] = False
        else:
            left = s
    stack.delete(np.flatnonzero(~keep))


def _polish_bracket(stack: _LoopStack, k, opts, sweep):
    """Adaptive family bisection around the argmax member, in place.

    Works on the argmax and its neighbors only: bounded descent steps,
    midpoint insertion inside the bracket, and dropping of the outermost
    members keep a shrinking three-member bracket around the saddle until
    the center's preconditioned gradient passes the target.  Everything
    stays within the family (the polished bracket replaces the original
    members), so the result is still a sweepout.

    Returns (argmax index, value window, cycles, success).
    """
    chart = stack.chart
    lo = max(k - 1, 0)
    n = min(k + 2, stack.size) - lo         # the bracket is members lo .. lo + n - 1
    values: list[float] = []
    success = False
    cycles = 0
    quiet = max(10, STABLE_WINDOW // 5)
    for cycles in range(1, POLISH_CYCLES + 1):
        width = max(loop_distance(chart, stack.loop(lo), stack.loop(lo + n - 1)), 1e-12)
        _armijo_step(stack, np.arange(lo, lo + n), opts.grad_tol, max_move=width / 8.0)
        # refine: insert midpoints inside the bracket, keep the top three
        mids = midpoint_loop(chart, stack.loop(slice(lo, lo + n - 1)),
                             stack.loop(slice(lo + 1, lo + n)))
        stack.insert(np.arange(lo + 1, lo + n), mids, tau=INITIAL_STEP)
        n = 2 * n - 1
        j = int(np.argmax(stack.energy[lo:lo + n]))
        values.append(float(stack.energy[lo + j]))
        center = stack.loop(lo + j)
        stack.delete(slice(lo + min(j + 2, n), lo + n))
        stack.delete(slice(lo, lo + max(j - 1, 0)))
        n = min(j + 2, n) - max(j - 1, 0)
        if preconditioned_norm(stack.gradient(center)) < sweep.argmax_grad_tol:
            # gradient target met: also require a quiet value window, so
            # the reported max is stationary and not still drifting down
            tail = values[-quiet:]
            if len(tail) == quiet and (
                max(tail) - min(tail) <= STABLE_REL * max(abs(tail[-1]), 1e-12)
            ):
                success = True
                break
    stack.frozen[lo:lo + n] = False
    return lo + int(np.argmax(stack.energy[lo:lo + n])), values, cycles, success


def minimax_sweepout(chart: Chart, family: SweepoutFamily,
                     schedule: PenaltySchedule | None = None, alpha: int | None = None,
                     opts: DescentOptions = DescentOptions(),
                     sweep: SweepOptions = SweepOptions()) -> SweepoutResult:
    """Relax a sweepout family and return the stabilized max of the energy.

    A single free member degenerates exactly to ``descend``.  Two stages:

    1. relax - all non-frozen members take one bounded descent step per
       round (one stacked step), with midpoint re-tightening and redundancy
       pruning, until the family max settles at the ``RELAX_REL`` level
       (or everything converges, or the max hits the floor);
    2. polish - adaptive midpoint bisection of the argmax bracket drives
       the argmax member to an approximate critical point (preconditioned
       gradient below ``argmax_grad_tol``) and the max to ``STABLE_REL``
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

    stack = _LoopStack.of(chart, schedule, alpha, family.members, family.frozen)
    insertions = 0
    window: list[float] = []
    rounds = 0
    all_done = False
    resolution = chart.segment_cap * RESOLUTION_FACTOR
    move_limit = 0.5 * resolution
    for rounds in range(1, sweep.max_rounds + 1):
        status, _ = _armijo_step(stack, np.flatnonzero(~stack.frozen), opts.grad_tol,
                                 max_move=move_limit)
        all_done = not np.any(status == "moved")
        floor = max(VALUE_FLOOR, 1e-9 * float(np.max(np.abs(stack.energy))))
        insertions += _retighten(stack, resolution, floor, sweep.max_members, rounds)
        k_now = int(np.argmax(stack.energy))
        _prune(stack, resolution, floor, {k_now - 2, k_now - 1, k_now, k_now + 1, k_now + 2})

        value = float(np.max(stack.energy))
        window.append(value)
        if len(window) > STABLE_WINDOW:
            window.pop(0)
        if all_done or value <= VALUE_FLOOR:
            break
        if len(window) == STABLE_WINDOW:
            spread = max(window) - min(window)
            if spread <= RELAX_REL * max(abs(window[-1]), 1e-12):
                break

    k = int(np.argmax(stack.energy))
    value = float(stack.energy[k])
    argmax_grad = preconditioned_norm(stack.gradient(stack.loop(k)))
    stable = all_done or value <= VALUE_FLOOR
    if not stable and argmax_grad >= sweep.argmax_grad_tol:
        k, pol_values, cycles, success = _polish_bracket(stack, k, opts, sweep)
        insertions += 2 * cycles
        stable = success
        value = pol_values[-1]
        argmax_grad = preconditioned_norm(stack.gradient(stack.loop(k)))
    else:
        stable = True

    out_family = SweepoutFamily([stack.loop(s) for s in range(stack.size)],
                                [bool(f) for f in stack.frozen])
    return SweepoutResult(
        value=value, argmax_index=k, argmax=stack.loop(k), family=out_family,
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
