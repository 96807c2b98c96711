"""Linearized geodesic flow: Jacobi fields, monodromy, conjugate points.

Every chart in the zoo is a surface, and the flow below is written for
d = 2.  Along a geodesic the velocity frame e_1 = v / |v|_g, e_2 = e_1
turned +90 degrees is parallel, and in it the Jacobi operator is

    Rt(s) = K(x(s)) |v|_g^2 diag(0, 1),

so a Jacobi field splits into a tangential part xi_1'' = 0 (the shear
[[1, s], [0, 1]]) and one scalar normal equation y'' + K |v|_g^2 y = 0,
whose 2 x 2 fundamental matrix Y is all the flow integrates.  The
fundamental solution Phi(s) = shear (+) Y of the first-order form is
symplectic; its upper-right block B(s) = diag(s, y(s)) propagates purely
vertical initial conditions (xi(0) = 0), so conjugate points are the zeros
of y = Y[0, 1] (y(0) = 0, y'(0) = Y[1, 1] = 1).  Its lifted Prufer angle
theta = arg(y' + i y) has theta' = 1 wherever y = 0: it crosses each
multiple of pi once and upward, so the count on (0, s] is floor(theta(s) /
pi) and each zero is simple.  Lifting theta from grid nodes needs each step
to turn it by less than pi; with K |v|_g^2 = w^2 it gains pi per half
period pi / w, so any step with h w < pi suffices.

The lab's one integrator, ``flow.dopri_batch``, steps x, v and Y with the
embedded Dormand-Prince 5(4) pair: on steps it chooses, each within the
one tolerance ``FLOW_TOL`` and capped so that h w stays far under pi, or
on a given grid of row times, which only the shooting's re-shoots replay.
The at-infinity segments run on chosen steps in the region itself: a copy
of the chart whose domain is {r > k_radius}, so the flow's exit test is
the region test.

For a closed geodesic, expressing the time-1 fundamental matrix in a single
basis (undoing the holonomy of the frame) produces the linearized return
map P; the nullity of the m-fold iterate is the kernel dimension of
P^m - Id, the sum of dim ker(P - omega Id) over omega^m = 1.

An integration is one ``Orbit`` record: its grid of row times on [0, t],
the rows of x, v and Y there (with a leading batch axis for a batch of
starts) and the velocity frames at the two ends; Phi and the frames are
read only at the ends.  An analysed loop's first orbit is its
``outgoing_orbit`` from (basepoint, v_+), which gives cp_1.  Unless that
orbit already closes, ``shoot_closed_orbit`` closes it by multiple
shooting: B segments start at evenly spaced polygon nodes, are integrated
as one batch on one grid of row times, and Gauss-Newton drives their
junction mismatches to zero, each re-shoot replaying that grid.  Both
routes find the closed orbit as a fixed point of the time-1 map, and the
segments' Ys, multiplied up, give its Y, which the based cross-check
scans.  The scan (``Orbit.conjugate_report``) integrates nothing.  The
tolerances are module constants; no caller sets them.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .charts import (
    Chart,
    TangentVector,
    christoffels,
    metric_speed,
    sample_unit_starts,
)
from .errors import DomainEscapeError, NotAGeodesicError, SamplingStarvationError
from .flow import dopri_batch
from .loops import DiscreteLoop, energy, one_sided_velocities

TIME_TOL = 1e-6             # conjugate times are bisected to this; a zero this close to t is at t
ENDPOINT_MARGIN = 1e-3      # O(1/N^2) wander of a conjugate time sitting at the endpoint
UNIT_TOL = 1e-4             # an eigenvalue this close to a unit root omega counts as omega
RANK_REL = 1e-4             # singular values below this span the kernel; omega Id sets the unit scale
CLOSURE_TOL = 1e-2          # closure residual (relative to the speed) of a shot orbit
SHOOT_TOL = 1e-9            # closure residual (relative to the speed) that ends the shooting
SHOOT_MAX_ITER = 8          # Gauss-Newton steps of one shooting
MAX_SEGMENTS = 16           # a closed orbit is shot as gcd(N, MAX_SEGMENTS) segments
# One tolerance for every integration: each step's error estimate, relative
# to max(1, |state|), for every member.  The consumers need the Y rows to
# TIME_TOL (a conjugate time errs as y does, |y'| = 1 at a zero) and Phi to
# UNIT_TOL^2 (a Jordan block at a unit root, the shear for one, turns a
# matrix error e into an eigenvalue error sqrt(e)); a tenth of the tighter
# holds Phi(1) of the reference orbits within 2e-9 to 2e-8 of the truth.
FLOW_TOL = min(TIME_TOL, UNIT_TOL ** 2) / 10


def symplectic_defect(m: np.ndarray) -> float:
    """max |M^T J M - J| of a 2d x 2d matrix: zero for a symplectic M."""
    d = len(m) // 2
    j = np.block([[np.zeros((d, d)), np.eye(d)], [-np.eye(d), np.zeros((d, d))]])
    return float(np.max(np.abs(m.T @ j @ m - j)))


@dataclass
class ConjugateReport:
    """Conjugate times in (0, t], strictly increasing; each is a simple zero, so count is len."""

    times: list = field(default_factory=list)
    t: float = 0.0

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("conjugate times must be strictly increasing")

    @property
    def count(self) -> int:
        return len(self.times)

    def count_open(self) -> int:
        """Conjugate times on the open interval (0, t - ``ENDPOINT_MARGIN``)."""
        return sum(s < self.t - ENDPOINT_MARGIN for s in self.times)


@dataclass(frozen=True)
class Orbit:
    """One Jacobi-flow integration over [0, t], or a batch of them.

    ``grid`` holds the row times (rows,), shared by the members of a batch,
    from 0 to t.  ``x`` and ``v`` hold the chart rows (..., rows, d) and
    ``y`` the rows (..., rows, 2, 2) of the normal fundamental matrix Y;
    ``frames`` (..., 2, d, d) holds the velocity frames (columns, chart
    components) at the first and last rows.  The leading axes, if any,
    index the members of a batch; an escaped member's rows are NaN from its
    exit on.
    """

    t: float
    grid: np.ndarray
    x: np.ndarray
    v: np.ndarray
    y: np.ndarray
    frames: np.ndarray

    @property
    def start(self) -> TangentVector:
        return TangentVector(self.x[..., 0, :], self.v[..., 0, :])

    @property
    def matrix(self) -> np.ndarray:
        """Phi(t) = [[1, t], [0, 1]] (+) Y(t): maps the frame components
        (xi_1, xi_2, D xi_1, D xi_2) at 0 to those at t."""
        y = self.y[..., -1, :, :]
        phi = np.zeros(y.shape[:-2] + (4, 4))
        phi[..., 0, 0] = phi[..., 2, 2] = 1.0
        phi[..., 0, 2] = self.t
        phi[..., 1::2, 1::2] = y
        return phi

    def return_map(self) -> np.ndarray:
        """Time-t differential in the fixed frame at the start point.

        Only meaningful when the orbit closes up; the frame holonomy
        T = frame0^{-1} frame1 is undone blockwise.
        """
        t = np.linalg.solve(self.frames[0], self.frames[1])
        conj = np.zeros((4, 4))
        conj[:2, :2] = t
        conj[2:, 2:] = t
        return conj @ self.matrix

    def conjugate_report(self) -> ConjugateReport:
        """Conjugate times in (0, t] read off the Y rows; integrates nothing."""
        return _scan_conjugate_points(self.grid, self.y)


def _speed_sq(g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """g(v, v) over leading batch axes."""
    return np.sum(v * (g @ v[..., None])[..., 0], axis=-1)


def velocity_frame(chart: Chart, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """g-orthonormal frame (columns) e_1 = v / |v|_g, e_2 = e_1 turned +90 degrees,
    at one point or over leading batch axes; parallel along a geodesic."""
    g = chart.metric(x)
    gv = (g @ v[..., None])[..., 0]
    speed = np.sqrt(np.sum(v * gv, axis=-1))[..., None]
    # (-(g v)_2, (g v)_1) is g-orthogonal to v, positively oriented, of g-norm
    # sqrt(det g) |v|_g
    normal = np.stack([-gv[..., 1], gv[..., 0]], axis=-1)
    det_g = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    return np.stack([v / speed, normal / (speed * np.sqrt(det_g)[..., None])], axis=-1)


def jacobi_propagate(chart: Chart, start: TangentVector, t: float,
                     grid: np.ndarray | None = None) -> Orbit | tuple[Orbit, np.ndarray]:
    """Dormand-Prince integration of (x, v, Y) over [0, t] from one start or
    a batch of starts.

    Y is the fundamental matrix of the normal equation.  The state is packed
    as one row (x, v, Y) per start and stepped by ``flow.dopri_batch``, which
    chooses the steps, or replays ``grid``, row times rising strictly from
    0 to t; the velocity frames are read off the end rows after.  One start
    (base and velocity of shape (d,)) runs as a batch of one, returns its
    ``Orbit`` and raises DomainEscapeError with the exit time when the
    geodesic leaves the chart (time 0 for a start outside it).  A batch
    (shape (B, d)) returns the batch ``Orbit`` and the exit times (B,): inf
    for a member that stayed inside, s_n when a stage point of the step from
    row time s_n left the chart and s_{n+1} when its new point did.  A
    member's rows are NaN from its exit on.  A chart that is not a surface
    raises NotImplementedError; a start with zero metric speed, t <= 0 or a
    grid that does not rise from 0 to t raise ValueError.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if grid is not None:
        grid = np.asarray(grid, dtype=float)
        if grid[0] != 0.0 or grid[-1] != t or not np.all(np.diff(grid) > 0):
            raise ValueError("a replayed grid must rise strictly from 0 to t")
    if chart.dim != 2:
        raise NotImplementedError(f"{chart.name}: the Jacobi flow is written for surfaces "
                                  f"(d = 2), not d = {chart.dim}")
    x, v = start.base, start.v
    if not np.all(_speed_sq(chart.metric(x), v) > 0):
        raise ValueError("a Jacobi flow start needs a nonzero metric speed")
    batched = x.ndim > 1
    x, v = np.atleast_2d(x, v)
    y = np.tile(np.eye(2).ravel(), (len(x), 1))
    rows, grid, exit_time = dopri_batch(chart, np.concatenate([x, v, y], axis=1), t, grid,
                                        FLOW_TOL, TIME_TOL)
    if not batched:
        if np.isfinite(exit_time[0]):
            raise DomainEscapeError(f"{chart.name}: geodesic left the chart domain during "
                                    "Jacobi propagation", exit_time=float(exit_time[0]))
        rows = rows[0]
    xs, vs = rows[..., :2], rows[..., 2:4]
    ends = [0, -1]
    orbit = Orbit(t, grid, xs, vs, rows[..., 4:].reshape(rows.shape[:-1] + (2, 2)),
                  velocity_frame(chart, xs[..., ends, :], vs[..., ends, :]))
    return (orbit, exit_time) if batched else orbit


def is_moving(chart: Chart, loop: DiscreteLoop) -> bool:
    """Moving geodesic, not a constant loop: outgoing speed and energy both resolved."""
    speed = float(np.linalg.norm(one_sided_velocities(chart, loop)[1]))
    return speed > 1e-4 and energy(chart, loop) > 1e-8


def outgoing_orbit(chart: Chart, loop: DiscreteLoop) -> Orbit:
    """Orbit over [0, 1] of the geodesic from the basepoint with the outgoing
    velocity v_+: the scanned orbit, and the closed orbit when it already
    closes."""
    _, v_plus = one_sided_velocities(chart, loop)
    return jacobi_propagate(chart, TangentVector(loop.basepoint, v_plus), 1.0)


def _refine_root(grid_t: np.ndarray, y: np.ndarray, dy: np.ndarray, k: int) -> float:
    """Bisect the sign change of the normal solution y inside (grid_t[k],
    grid_t[k+1]) to ``TIME_TOL`` on its cubic Hermite interpolant, whose
    node derivatives dy the grid holds; returns the root."""
    lo, hi = grid_t[k], grid_t[k + 1]
    y0, y1 = y[k], y[k + 1]
    dy0, dy1 = (hi - lo) * dy[k], (hi - lo) * dy[k + 1]

    def y_at(s):
        u = (s - grid_t[k]) / (grid_t[k + 1] - grid_t[k])
        return (y0 + (3 - 2 * u) * u * u * (y1 - y0)
                + (u - 1) * u * ((u - 1) * dy0 + u * dy1))

    flo = y0
    while hi - lo > TIME_TOL:
        mid = 0.5 * (lo + hi)
        fmid = y_at(mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return float(0.5 * (lo + hi))


def conjugate_points(chart: Chart, start: TangentVector, t: float) -> ConjugateReport:
    """Conjugate times in (0, t] along the geodesic from ``start``: the
    ``Orbit.conjugate_report`` scan of one integration."""
    return jacobi_propagate(chart, start, t).conjugate_report()


def _scan_conjugate_points(grid: np.ndarray, ys: np.ndarray) -> ConjugateReport:
    """Conjugate times in (0, t] from the Y rows of one orbit at the row times
    ``grid`` on [0, t]: a root is bisected in each interval where
    floor(theta / pi) steps up, theta the lifted angle of (y, y') =
    (Y[0, 1], Y[1, 1]).  A zero within ``TIME_TOL`` of t is at t: a last
    root that close below t, or theta(t) that close below a multiple of pi
    (theta' = 1 there, so the angle gap is the time gap)."""
    t = float(grid[-1])
    y, dy = ys[:, 0, 1], ys[:, 1, 1]
    theta = np.unwrap(np.arctan2(y, dy))
    laps = np.floor(theta / np.pi)
    roots = [_refine_root(grid, y, dy, k) for k in np.flatnonzero(np.diff(laps) > 0)]
    if roots and t - roots[-1] < TIME_TOL:
        roots[-1] = t
    elif (laps[-1] + 1) * np.pi - theta[-1] < TIME_TOL:
        roots.append(t)
    return ConjugateReport(times=roots, t=t)


# ---------------------------------------------------------------------------
# closed-orbit machinery
# ---------------------------------------------------------------------------


def _chart_to_covariant(chart: Chart, x, v, e):
    """Block maps taking chart-coordinate (dx, dv) to frame (xi, D xi), over
    leading batch axes.  The frame e is g-orthonormal, so e^-1 = e^T g."""
    d = chart.dim
    einv = np.swapaxes(e, -1, -2) @ chart.metric(x)
    gv = np.einsum("...kij,...i->...kj", christoffels(chart, x), v)   # dv_cov = dv + Gamma(v, dx)
    out = np.zeros(x.shape[:-1] + (2 * d, 2 * d))
    out[..., :d, :d] = einv
    out[..., d:, :d] = einv @ gv
    out[..., d:, d:] = einv
    return out


def _junctions(chart: Chart, shot: Orbit) -> np.ndarray:
    """Stacked mismatches (x, v) of each segment's end against the next
    segment's start, the last against the first; zero on a closed orbit."""
    fx = chart.wrap_difference(shot.x[:, -1] - np.roll(shot.x[:, 0], -1, axis=0))
    fv = shot.v[:, -1] - np.roll(shot.v[:, 0], -1, axis=0)
    return np.concatenate([fx, fv], axis=1).ravel()


def _shoot_segments(chart: Chart, x: np.ndarray, v: np.ndarray,
                    grid: np.ndarray | None = None) -> Orbit:
    """Batch orbit of the len(x) segments of [0, 1] from the starts (x, v),
    on their own common steps or replaying ``grid``; raises
    DomainEscapeError when a segment leaves the chart."""
    b = len(x)
    shot, exit_time = jacobi_propagate(chart, TangentVector(x, v), 1.0 / b, grid)
    escaped = np.flatnonzero(np.isfinite(exit_time))
    if len(escaped):
        k = escaped[0]
        raise DomainEscapeError(f"{chart.name}: geodesic left the chart domain during "
                                "closed-orbit shooting", exit_time=float(k / b + exit_time[k]))
    return shot


def _stitch(chart: Chart, shot: Orbit) -> Orbit:
    """One orbit over [0, 1] from a batch of consecutive segments: the rows
    and row times concatenated (each junction once), the positions lifted
    across periodic coordinates, Y the running product of the segment Ys
    (the shears compose by adding their times), and the frames those of the
    first start and the last end."""
    jumps = shot.x[:-1, -1] - shot.x[1:, 0]
    lifts = np.cumsum(jumps - chart.wrap_difference(jumps), axis=0)
    xs = shot.x + np.concatenate([np.zeros((1, shot.x.shape[-1])), lifts])[:, None]
    ys = shot.y.copy()
    for k in range(1, len(ys)):
        ys[k] = ys[k] @ ys[k - 1, -1]
    rows = [np.concatenate([a[0], a[1:, 1:].reshape((-1,) + a.shape[2:])])
            for a in (xs, shot.v, ys)]
    grid = np.concatenate([shot.grid] + [k * shot.t + shot.grid[1:] for k in range(1, len(ys))])
    return Orbit(len(ys) * shot.t, grid, *rows,
                 np.stack([shot.frames[0, 0], shot.frames[-1, 1]]))


def refine_closed_orbit(chart: Chart, loop: DiscreteLoop,
                        orbit: Orbit) -> tuple[Orbit, float]:
    """Multiple-shooting Gauss-Newton that closes up an approximately
    periodic geodesic, the one the polygon ``loop`` discretizes.

    ``orbit`` is the loop's ``outgoing_orbit``; when it already closes to
    ``SHOOT_TOL`` (relative to the speed) it is returned with no
    integration.  Otherwise B = gcd(N, ``MAX_SEGMENTS``) segments start at
    the nodes k N / B with the polygon's outgoing velocities there (B = 1 is
    the outgoing orbit itself) and are integrated as one batch over
    [0, 1 / B] on common steps.  Each Gauss-Newton step solves the cyclic
    block-bidiagonal 4B x 4B junction system by least squares, since the
    orbit's symmetry directions are in its kernel; each segment's block
    comes from its end frames and end Phi.  Each re-shoot replays the first
    shot's grid, so the junction map is smooth in the starts.  Takes at
    most ``SHOOT_MAX_ITER`` steps and stops once the stacked junction
    residual is below ``SHOOT_TOL``.  Returns the orbit stitched from the
    last shot's segments (its ``start`` the corrected initial condition) and
    that residual.
    """
    d = chart.dim
    b = math.gcd(loop.n_nodes, MAX_SEGMENTS)
    # the outgoing orbit as a batch of one segment
    shot = Orbit(orbit.t, orbit.grid, orbit.x[None], orbit.v[None], orbit.y[None],
                 orbit.frames[None])
    speed = max(metric_speed(chart, orbit.x[0], orbit.v[0]), 1e-12)
    if b > 1 and np.linalg.norm(_junctions(chart, shot)) >= SHOOT_TOL * speed:
        idx = np.arange(b) * (loop.n_nodes // b)
        shot = _shoot_segments(chart, loop.nodes[idx], one_sided_velocities(chart, loop, idx)[1])
    b = len(shot.x)                          # 1 when the outgoing orbit is the shot
    cyclic = -np.eye(2 * d * b, k=2 * d) - np.eye(2 * d * b, k=2 * d * (1 - b))
    diag = np.arange(b)
    for it in range(SHOOT_MAX_ITER + 1):
        f = _junctions(chart, shot)
        residual = float(np.linalg.norm(f))
        if residual < SHOOT_TOL * speed or it == SHOOT_MAX_ITER:
            return _stitch(chart, shot), residual
        ends = [np.concatenate([a[:, 0], a[:, -1]]) for a in (shot.x, shot.v, shot.frames)]
        covariant = _chart_to_covariant(chart, *ends)
        # each segment's flow derivative in chart coordinates on the diagonal
        jac = cyclic.copy()
        jac.reshape(b, 2 * d, b, 2 * d)[diag, :, diag, :] += np.linalg.solve(
            covariant[b:], shot.matrix @ covariant[:b])
        step, *_ = np.linalg.lstsq(jac, -f, rcond=1e-8)
        step = step.reshape(b, 2, d)
        shot = _shoot_segments(chart, shot.x[:, 0] + step[:, 0], shot.v[:, 0] + step[:, 1],
                               shot.grid)


def _kernel_dim(b: np.ndarray) -> int:
    return int(np.sum(np.linalg.svd(b, compute_uv=False) < RANK_REL))


def eigenspace_dimension(p: np.ndarray, omega: complex) -> int:
    """dim_C ker(p - omega Id), the geometric multiplicity of omega as an
    eigenvalue of p (0 when no eigenvalue lies within ``UNIT_TOL`` of it)."""
    if not np.any(np.abs(np.linalg.eigvals(p) - omega) < UNIT_TOL):
        return 0
    return _kernel_dim(p - np.real_if_close(omega) * np.eye(len(p)))


def shoot_closed_orbit(chart: Chart, loop: DiscreteLoop, orbit: Orbit) -> Orbit:
    """The closed geodesic a genuine critical ``loop`` discretizes, shot once
    by ``refine_closed_orbit`` from its ``outgoing_orbit`` and the polygon's
    nodes: the stitched orbit over [0, 1], whose ``return_map()`` is the
    orbit's linearized return map and whose ``conjugate_report()`` is its
    conjugate scan.  Raises NotAGeodesicError when the orbit refuses to close
    to ``CLOSURE_TOL`` (relative to the speed) or wanders off.
    """
    closed, residual = refine_closed_orbit(chart, loop, orbit)
    x0, v0 = closed.start.base, closed.start.v
    speed = max(metric_speed(chart, x0, v0), 1e-12)
    speed0 = max(metric_speed(chart, orbit.x[0], orbit.v[0]), 1e-12)
    moved = float(np.linalg.norm(chart.wrap_difference(x0 - orbit.x[0])))
    # the shooting must tighten the loop's own orbit, not wander off to a
    # different (e.g. constant) one
    if (residual > CLOSURE_TOL * speed
            or moved > chart.segment_cap
            or abs(speed - speed0) > 0.2 * speed0):
        raise NotAGeodesicError(
            f"orbit refinement failed (residual {residual:.2e}, basepoint moved "
            f"{moved:.2e}, speed {speed0:.3g} -> {speed:.3g}); "
            "the loop is not a closed geodesic"
        )
    return closed


def nullity_via_monodromy(chart: Chart, loop: DiscreteLoop, m: int = 1) -> int:
    """Kernel dimension of P^m - Id for the return map P of a genuine closed
    geodesic, shot once: the sum of ``eigenspace_dimension`` over omega^m = 1.

    Working with P itself instead of its explicit m-th power keeps the
    count stable when P has strongly hyperbolic blocks, whose entries would
    otherwise swamp the singular-value scale of P^m - Id.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    p = shoot_closed_orbit(chart, loop, outgoing_orbit(chart, loop)).return_map()
    return sum(eigenspace_dimension(p, np.exp(2j * np.pi * k / m)) for k in range(m))


# ---------------------------------------------------------------------------
# conjugate points at infinity
# ---------------------------------------------------------------------------


def close_conjugate_points_check(chart: Chart, ell: float, k_radius: float,
                                 n_samples: int = 100, seed: int = 0,
                                 sample_band: float | None = None) -> dict:
    """Two-part probe of the region {r > k_radius} for a length budget ell.

    Part (a): the largest Gauss curvature K, read in closed form at random
    points in the band and at points hugging its inner boundary, against
    the Rauch bound (pi/ell)^2 (on a surface every plane has curvature K).
    Part (b): sample unit-speed geodesic segments of length ell whose trace
    stays in the region (leaving segments are discarded and resampled) and
    require empty conjugate reports.  The segments are integrated in
    blocks on chosen steps in the region itself, a shallow copy of the
    chart whose ``contains`` also requires r > k_radius: a segment is kept
    exactly when its exit time is inf, every stage point of its steps
    inside the region, and each kept segment's Y rows get one scan, the
    criterion ``conjugate_points`` applies.  The Rauch comparison direction
    says (a) passing forces (b) to pass; the report records both verdicts
    and their consistency.
    """
    if ell <= 0:
        raise ValueError("ell must be positive")
    if chart.compact:
        raise ValueError("the check needs a non-compact chart with an exhaustion")
    rng = np.random.default_rng(seed)
    region = copy.copy(chart)
    region.contains = lambda x: np.asarray(chart.contains(x)) & (chart.exhaustion(x) > k_radius)
    band = sample_band if sample_band is not None else max(ell, 5.0)
    bound = (np.pi / ell) ** 2

    # part (a): the curvature at sampled points
    points = [chart.sample_point(rng, k_radius + off * 0.999, k_radius + off)
              for off in np.linspace(1e-4, band, 9)[:5] for _ in range(2)]
    while len(points) < n_samples:
        points.append(chart.sample_point(rng, k_radius, k_radius + band))
    max_kappa = float(np.max(chart.gauss_curvature(np.array(points[:n_samples]))))
    part_a = bool(max_kappa < bound)

    # part (b): geodesic segment sampling, integrated in blocks of exactly
    # the segments still needed, so every integrated segment is counted
    hits = []
    checked = 0
    discarded = 0
    attempts = 0
    while checked < n_samples:
        block = min(n_samples - checked, 100 * n_samples - attempts)
        if block == 0:
            raise SamplingStarvationError(
                f"could not find {n_samples} segments staying in r > {k_radius} "
                f"after {attempts} attempts"
            )
        attempts += block
        starts = sample_unit_starts(chart, rng, block, k_radius, k_radius + band)
        orbit, exit_time = jacobi_propagate(region, starts, ell)
        kept = np.isinf(exit_time)
        discarded += block - int(np.count_nonzero(kept))
        checked += int(np.count_nonzero(kept))
        for j in np.flatnonzero(kept):
            report = _scan_conjugate_points(orbit.grid, orbit.y[j])
            if report.count > 0:
                hits.append({
                    "start": starts.base[j].tolist(),
                    "velocity": starts.v[j].tolist(),
                    "times": report.times,
                })
    part_b = len(hits) == 0

    return {
        "ell": float(ell),
        "k_radius": float(k_radius),
        "n_samples": int(n_samples),
        "seed": int(seed),
        "curvature": {
            "max_kappa": max_kappa,
            "bound": float(bound),
            "pass": part_a,
        },
        "segments": {
            "checked": checked,
            "discarded": discarded,
            "conjugate_hits": hits,
            "pass": part_b,
        },
        "rauch_consistent": bool((not part_a) or part_b),
        "pass": bool(part_a and part_b),
    }
