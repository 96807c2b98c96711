"""Critical-point search: preconditioned descent and sweepout minimax.

Descent runs Armijo-backtracked gradient steps preconditioned by the
inverse of the periodic operator M = (1/N) I + N L (L the second-difference
circulant), applied blockwise per coordinate via FFT.  That operator is
the discrete H^1 inner product on nodal fields, so step sizes and
convergence rates are mesh-independent; the gradient norm reported and
thresholded everywhere is the preconditioned one, |g|_M = sqrt(g . M^{-1} g).
Armijo's tail converges linearly, and stalls where the energy is flat
to rounding, so ``descend_starts`` tries Levenberg-Marquardt steps
(H + mu M) s = -g, H the exact Hessian and mu = c |g|_M, whenever mu would
be at most ``MAX_DAMPING``.  The sweepout keeps Armijo: its argmax is a
saddle, where a Newton step does not descend.

Every descent steps a stack of loops: nodes (members, N, d) with
per-member gauge, energy, step size, stall count and LM damping.  One
Armijo step makes one gradient, one preconditioner and one trial-energy
call per backtracking round for all members, which part ways only
through masks; an LM step assembles and solves (``positive_solve``, in
O(N d^3)) member by member.  ``descend_starts`` descends many starts as
one stack, each member on its own step budget; ``descend`` is its batch
of one.  The sweepout minimax keeps its family as a stack: every member
steps each round, one stacked neighbor distance and one stacked nodewise
interpolation then respace the family evenly in units of its resolution,
the lowest family max is tracked until it stops falling, and the argmax
bracket is then bisected down to the saddle.  The returned value
approximates the minimax level from the family side; the gap to the true
level is reported, not bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .charts import Chart, _squared_norm
from .errors import ChartDomainError, CrossCheckError, FamilyTearError, RefineNeededError
from .loops import (
    DiscreteLoop,
    double_nodes,
    energy,
    energy_gradient,
    in_gauge,
    loop_distance,
    maybe_recenter,
    midpoint_loop,
    pair_distance,
    precondition,
    preconditioned_norm,
    segment_checks,
    validate_loop,
)
from .morse import SecondVariation, assemble_second_variation, positive_solve
from .penalty import PenaltySchedule, penalized_energy, penalized_gradient

ARMIJO = 1e-4          # sufficient-decrease constant
BACKTRACK = 0.5        # step factor per backtracking trial and per halving probe
INITIAL_STEP = 1.0     # step size tau of a fresh member
MAX_STEP = 64.0        # ceiling of tau, which doubles after each accepted step
#: gradient level still accepted as converged when the energy hits the
#: float64 rounding floor before the strict tolerance is reachable
STALL_GRAD_ACCEPT = 1e-4
STALL_STEPS = 25       # accepted steps in a row without float-resolved progress
NEWTON_TRIALS = 3      # LM trials per step before the member takes the Armijo step
DAMPING_FACTOR = 4.0   # LM damping factor c: divided by it on acceptance, times it on refusal
#: largest LM damping mu, and so the trigger of a member's LM trials: the
#: energy Hessian is about 2M on the high node modes, so beyond it an LM step
#: is a short preconditioned gradient step, which Armijo sizes better (a member
#: whose Hessian needs more to turn positive definite is near a saddle)
MAX_DAMPING = 1.0
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
    newton_steps: int        # accepted Levenberg-Marquardt steps among the iterations


_MEMBER_FIELDS = ("nodes", "frame", "energy", "tau", "stall", "damping")


@dataclass
class _LoopStack:
    """Loops under descent along a leading member axis; one array per field."""

    chart: Chart
    value: Callable          # objective of a loop or a stack of loops
    gradient: Callable
    hessian: Callable        # ``SecondVariation`` of the objective at one loop
    nodes: np.ndarray        # (M, N, d)
    frame: np.ndarray        # chart gauge
    energy: np.ndarray       # objective value
    tau: np.ndarray          # trusted step size
    stall: np.ndarray        # accepted steps in a row without float-resolved progress
    damping: np.ndarray      # LM damping factor c: mu = c |g|_M

    @classmethod
    def of(cls, chart: Chart, schedule: PenaltySchedule | None, alpha: int | None,
           loops) -> "_LoopStack":
        """Stack ``loops`` under the penalized energy (the energy without a schedule)."""
        if schedule is None:
            value, gradient = partial(energy, chart), partial(energy_gradient, chart)
        else:
            value = partial(penalized_energy, chart, schedule, alpha)
            gradient = partial(penalized_gradient, chart, schedule, alpha)
        hessian = partial(assemble_second_variation, chart, schedule=schedule, alpha=alpha)
        m = len(loops)
        nodes, frame = np.stack([lp.nodes for lp in loops]), np.array([lp.frame for lp in loops])
        return cls(chart, value, gradient, hessian, nodes, frame,
                   value(DiscreteLoop(nodes, frame)), np.full(m, INITIAL_STEP),
                   np.zeros(m, dtype=int), np.ones(m))

    @property
    def size(self) -> int:
        return len(self.energy)

    def loop(self, s) -> DiscreteLoop:
        """Member ``s``, or the stack of members an index array or slice picks."""
        return DiscreteLoop(self.nodes[s], self.frame[s])

    def insert(self, s, loops: DiscreteLoop, tau) -> None:
        """Insert the stack ``loops`` before the members at positions ``s`` (np.insert)."""
        row = (loops.nodes, loops.frame, self.value(loops), tau, 0, 1.0)
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
        reach = np.sqrt(_squared_norm(p)).max(axis=-1)
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
    # the kept trial of each member, rebuilt bit for bit from its step size
    best = stack.chart.reduce_point(
        nodes[accepted] - best_tau[accepted][:, None, None] * p[accepted])
    rows = idx[accepted]
    stalled = _accept(stack, rows, DiscreteLoop(best, frame[accepted]), best_e[accepted])
    stack.tau[rows] = np.minimum(best_tau[accepted] * 2.0, MAX_STEP)
    status[accepted] = np.where(stalled, "stalled", "moved")
    return status, gnorm


def _accept(stack: _LoopStack, rows, trial: DiscreteLoop, e_new) -> np.ndarray:
    """Store the accepted ``trial`` (objective ``e_new``) of members ``rows``, recentered.

    Returns whether each member has now made ``STALL_STEPS`` accepted steps
    in a row without float-resolved progress.  An energy increase is a
    hard error.
    """
    e_prev = stack.energy[rows]
    if (e_new > e_prev + 1e-12 * np.maximum(1.0, np.abs(e_prev))).any():
        raise CrossCheckError("descent accepted an energy increase")
    moved = maybe_recenter(stack.chart, trial)
    flipped = moved.frame != trial.frame
    if flipped.any():
        e_new[flipped] = stack.value(DiscreteLoop(moved.nodes[flipped], moved.frame[flipped]))
    # decreases below float resolution on |E| count as no progress
    idle = e_prev - e_new <= 16 * _FLOAT_EPS * np.maximum(np.abs(e_prev), 1.0)
    stack.stall[rows] = np.where(idle, stack.stall[rows] + 1, 0)
    stack.nodes[rows], stack.frame[rows], stack.energy[rows] = moved.nodes, moved.frame, e_new
    return stack.stall[rows] >= STALL_STEPS


def _add_metric(sv: SecondVariation, mu: float) -> None:
    """Add mu M in place to the blocks of ``sv``, M the preconditioner's operator
    ((1/N) I + N L) on each coordinate: on the diagonals of ``diag`` and ``off``."""
    n, i = sv.n_nodes, np.arange(sv.dim)
    sv.diag[:, i, i] += mu * (1.0 / n + 2.0 * n)
    sv.off[:, i, i] -= mu * n


def _newton_step(stack: _LoopStack, r: int, grad_tol: float):
    """One Levenberg-Marquardt step of member ``r``: (status, |g|_M), or None
    when every trial is refused.

    A trial solves (H + mu M) s = -g, with H the objective's exact Hessian,
    M the preconditioner's operator ((1/N) I + N L) on each coordinate and
    mu = c |g|_M <= ``MAX_DAMPING``, on the Hessian's blocks (``positive_solve``).
    It is accepted when H + mu M is positive definite above rounding, the
    segment checks admit the stepped loop and its objective does not rise; c
    is divided by ``DAMPING_FACTOR`` on acceptance and multiplied by it on
    refusal.  With mu proportional to |g|, the steps converge quadratically
    also to the non-isolated minima of a critical manifold under a local
    error bound (Li, Fukushima, Qi & Yamashita, Comput. Optim. Appl. 28, 2004).
    """
    chart, loop = stack.chart, stack.loop(r)
    grad = stack.gradient(loop)
    gnorm = preconditioned_norm(grad)
    if gnorm < grad_tol:
        return "converged", gnorm
    sv, added = stack.hessian(loop), 0.0
    for _ in range(NEWTON_TRIALS):
        mu = stack.damping[r] * gnorm
        if mu > MAX_DAMPING:
            break
        _add_metric(sv, mu - added)
        added, step = mu, positive_solve(sv, -grad)
        if step is not None:
            trial = DiscreteLoop(chart.reduce_point(loop.nodes + step)[None], stack.frame[[r]])
            e, _ = _trial_values(stack, trial)       # NaN where the segment checks refuse it
            if e[0] <= stack.energy[r]:
                stack.damping[r] /= DAMPING_FACTOR
                return ("stalled" if _accept(stack, [r], trial, e)[0] else "moved"), gnorm
        stack.damping[r] *= DAMPING_FACTOR
    return None


def _descent_step(stack: _LoopStack, members, newton, grad_tol: float):
    """One step of each listed member: Levenberg-Marquardt where ``newton``
    is set, Armijo elsewhere and where every LM trial is refused.

    Returns (status, |g|_M, whether the member took an LM step) per member,
    with the statuses of ``_armijo_step``.
    """
    idx = np.asarray(members, dtype=int)
    status, gnorm = np.full(idx.size, "", dtype="<U11"), np.empty(idx.size)
    for j in np.flatnonzero(newton):
        out = _newton_step(stack, idx[j], grad_tol)
        if out is not None:
            status[j], gnorm[j] = out
    rest = status == ""
    lm = ~rest & (status != "converged")
    if rest.any():
        status[rest], gnorm[rest] = _armijo_step(stack, idx[rest], grad_tol)
    return status, gnorm, lm


def descend_starts(chart: Chart, loops, schedule: PenaltySchedule | None = None,
                   alpha: int | None = None,
                   opts: DescentOptions = DescentOptions()) -> list[DescentResult]:
    """Drive each of ``loops`` (one node count N) to a critical point, as one stack.

    Each iteration steps every member still descending: by Levenberg-Marquardt
    (``_newton_step``) when its damping c times the |g|_M measured at its
    previous step is at most ``MAX_DAMPING``, else, and when every LM trial
    is refused, by Armijo.  The stall route (accepting a member at up to
    ``STALL_GRAD_ACCEPT`` once its energy stops falling by a float-resolved
    amount) is the fallback for a tail that never reaches ``grad_tol``.  A
    member's step does not depend on the others, so each result is that of
    the loop descended alone; ``max_iter`` counts each member's own steps.
    Accepted steps never raise the energy (asserted).  A member's first
    unavoidable segment-cap violation doubles its nodes, and it goes on with
    its step count in a stack of 2N nodes; a second one is a hard error.
    """
    for loop in loops:
        validate_loop(chart, loop)
    n = len(loops)
    results = [None] * n
    # (start indices, loops, steps taken, |g|_M, LM steps) per stack; one
    # that has taken steps holds doubled members
    batches = [(np.arange(n), [maybe_recenter(chart, lp) for lp in loops], 0, np.full(n, np.inf),
                np.zeros(n, dtype=int))]
    while batches:
        starts, members, taken, grad_norm, lm_steps = batches.pop()
        k = taken
        stack = _LoopStack.of(chart, schedule, alpha, members)
        live, steps = np.arange(stack.size), np.full(stack.size, k)
        converged = np.zeros_like(steps, bool)
        while live.size and k < opts.max_iter:
            status, grad_norm[live], lm = _descent_step(
                stack, live, stack.damping[live] * grad_norm[live] <= MAX_DAMPING, opts.grad_tol)
            k += 1
            lm_steps[live] += lm
            steps[live], converged[live] = k, status == "converged"
            for r in live[status == "stalled"]:
                # a stall after an accepted move measured the norm one loop back
                grad_norm[r] = preconditioned_norm(stack.gradient(stack.loop(r)))
                converged[r] = grad_norm[r] <= STALL_GRAD_ACCEPT
            capped = live[status == "cap_stalled"]
            if capped.size:
                if taken:     # a second cap stall of doubled members
                    raise RefineNeededError("segment cap blocks descent even after node doubling")
                # their results are rewritten when the doubled stack ends
                batches.append((starts[capped], [double_nodes(chart, stack.loop(r)) for r in capped],
                                k, grad_norm[capped], lm_steps[capped]))
            live = live[status == "moved"]
        for r, i in enumerate(starts):
            results[i] = DescentResult(stack.loop(r), bool(converged[r]), int(steps[r]),
                                       float(stack.energy[r]), float(grad_norm[r]), int(lm_steps[r]))
    return results


def descend(chart: Chart, loop: DiscreteLoop, schedule: PenaltySchedule | None = None,
            alpha: int | None = None, opts: DescentOptions = DescentOptions()) -> DescentResult:
    """Drive one loop to a critical point: ``descend_starts`` of a batch of one."""
    return descend_starts(chart, [loop], schedule, alpha, opts)[0]


# ---------------------------------------------------------------------------
# sweepout minimax
# ---------------------------------------------------------------------------


@dataclass
class SweepoutFamily:
    """Ordered one-parameter family of loops.

    Every member steps in the sweepout.  An end member that is a critical
    point (a constant loop) converges at once and so never moves.
    """

    members: list

    @property
    def size(self) -> int:
        return len(self.members)


#: relax rounds without a RELAX_REL fall of the lowest family max that end
#: the relax; a fifth of it is the polish quiet window
STABLE_WINDOW = 50
STABLE_REL = 1e-6      # relative spread of the polished max that counts as stationary
#: relative fall of the lowest family max that counts as relax progress (the
#: polish then reaches full precision on the argmax bracket)
RELAX_REL = 1e-3
VALUE_FLOOR = 1e-10    # family max at or below which the sweep has reached the bottom
POLISH_CYCLES = 400    # bisection cycles the polish stage may spend
#: working resolution of the family as a fraction of the chart cap: the
#: respaced family keeps its neighbors within it (the cap itself is the
#: tear scale, far too coarse for good nodewise interpolants)
RESOLUTION_FACTOR = 0.25
MAX_MEMBERS = 256      # family size beyond which the sweepout counts as torn


@dataclass(frozen=True)
class SweepOptions:
    """Relax-round budget and argmax |g|_M target."""

    max_rounds: int = 6000
    argmax_grad_tol: float = 1e-3


@dataclass
class SweepoutResult:
    """Minimax value and argmax; ``insertions`` counts the interpolated members:
    the interior of each relax round's respaced family, two per polish cycle."""

    value: float
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
                              f"(cap {chart.segment_cap})")


def _resample(stack: _LoopStack, resolution, floor) -> int:
    """Respace the family one gap limit apart; returns the rebuilt member count.

    Each neighbor gap is measured in its limit: ``resolution``, or the chart
    cap where both members sit at the landscape bottom (energy at most
    ``floor``; the minimax never reads those).  A run of gaps with one limit
    and one gauge is a section; its measure is rounded up to whole units,
    so a member stays on each section border and no new gap spans two.
    The ends stay as they are; the interior members, one unit apart, are
    built by one stacked interpolation in the gauge of the bracketing pair.
    """
    chart = stack.chart
    dist, gauge = pair_distance(chart, stack.loop(slice(None, -1)), stack.loop(slice(1, None)))
    low = stack.energy <= floor
    limit = np.where(low[:-1] & low[1:], chart.segment_cap, resolution)
    section = np.cumsum((np.diff(limit, prepend=limit[:1]) != 0)
                        | (np.diff(gauge, prepend=gauge[:1]) != 0))
    measure = dist / limit
    total = np.bincount(section, measure)
    units = np.ceil(total)
    if not units.sum() <= MAX_MEMBERS - 1:          # also an unmeasurable (inf) gap
        raise FamilyTearError(f"family needs more than {MAX_MEMBERS} members")
    measure = measure * (units / np.maximum(total, 1e-300))[section]
    edges = np.concatenate([[0.0], np.cumsum(measure)])
    at = np.arange(1.0, units.sum())
    # a member on a section border is the old member there, read off the pair it starts
    s = np.clip(np.searchsorted(edges, at + 1e-9, side="right") - 1, 0, len(measure) - 1)
    w = np.clip((at - edges[s]) / measure[s], 0.0, 1.0)
    interior = midpoint_loop(chart, in_gauge(chart, stack.loop(s), gauge[s]), stack.loop(s + 1), w)
    tau = (1.0 - w) * stack.tau[s] + w * stack.tau[s + 1]
    stack.delete(slice(1, -1))
    stack.insert(np.ones(at.size, dtype=int), interior, tau)
    return at.size


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
    return lo + int(np.argmax(stack.energy[lo:lo + n])), values, cycles, success


def minimax_sweepout(chart: Chart, family: SweepoutFamily,
                     schedule: PenaltySchedule | None = None, alpha: int | None = None,
                     opts: DescentOptions = DescentOptions(),
                     sweep: SweepOptions = SweepOptions()) -> SweepoutResult:
    """Relax a sweepout family and return the stabilized max of the energy.

    Two stages:

    1. relax - every member takes one bounded descent step per round (one
       stacked step; a converged member, such as a constant end loop, stays
       put), and ``_resample`` then respaces the family at its working
       resolution, until ``STABLE_WINDOW`` rounds pass without the family
       max falling by more than ``RELAX_REL`` below its lowest level (or
       everything converges, or the max hits the floor);
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
    stack = _LoopStack.of(chart, schedule, alpha, family.members)
    insertions = 0
    rounds = 0
    all_done = False
    resolution = chart.segment_cap * RESOLUTION_FACTOR
    move_limit = 0.5 * resolution
    # the family max at its last fall by more than RELAX_REL, and that round
    lowest, lowest_round = float(np.max(stack.energy)), 0
    for rounds in range(1, sweep.max_rounds + 1):
        status, _ = _armijo_step(stack, np.arange(stack.size), opts.grad_tol,
                                 max_move=move_limit)
        all_done = not np.any(status == "moved")
        floor = max(VALUE_FLOOR, 1e-9 * float(np.max(np.abs(stack.energy))))
        insertions += _resample(stack, resolution, floor)
        value = float(np.max(stack.energy))
        if all_done or value <= VALUE_FLOOR:
            break
        if value < lowest - RELAX_REL * max(abs(lowest), 1e-12):
            lowest, lowest_round = value, rounds
        elif rounds - lowest_round >= STABLE_WINDOW:
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

    out_family = SweepoutFamily([stack.loop(s) for s in range(stack.size)])
    return SweepoutResult(
        value=value, argmax=stack.loop(k), family=out_family,
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
