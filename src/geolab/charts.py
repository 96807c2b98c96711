"""Chart-based Riemannian metrics and the geodesic flow.

Every manifold in the zoo is a surface, presented in a single global
coordinate chart of dimension ``d`` = 2.  A chart knows its metric tensor
with analytic first and second metric derivatives, its Christoffel symbols
in closed form, an optional exhaustion coordinate ``r`` for non-compact
manifolds, and domain guards.  Each chart family writes its own
Christoffels: flat, conformal (from the gradient of the log conformal
factor), a profile surface (from the profile jet rho, rho', rho'') or the
paraboloid.  The generic Levi-Civita formula ``christoffels_of_metric`` is
their oracle, fed with the analytic metric derivative or with the
finite-difference ``Chart.metric_deriv``, itself the oracle of the analytic
derivatives.

Index conventions used throughout:

* ``metric(x)[..., i, j]``                = g_ij(x)
* ``metric_deriv(x)[..., k, i, j]``       = d_k g_ij(x)
* ``metric_second_deriv(x)[..., l, k, i, j]`` = d_l d_k g_ij(x)
* ``christoffels(...)[..., k, i, j]``     = Gamma^k_ij (symmetric in i, j)
* ``riemann(...)[..., l, k, i, j]``       = R^l_kij, i.e. the component of
  R(e_i, e_j) e_k along e_l.

All metric-level evaluations broadcast over leading batch axes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ChartDomainError, DegeneratePlaneError, DomainEscapeError

FD_STEP = 1e-5
_EYE2 = np.eye(2)


@dataclass
class TangentVector:
    """A chart point together with a velocity in chart components."""

    base: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        if self.base.shape != self.v.shape:
            raise ValueError("base point and velocity must have equal dimension")


class Chart:
    """Base class: domain guards, periodic wrapping and oracle derivatives.

    Subclasses provide ``metric``, ``metric_deriv``,
    ``metric_second_deriv`` and ``christoffels`` in closed form and set
    ``dim``.  The base ``metric_deriv`` (central differences of ``metric``)
    is the oracle that ``christoffels(..., finite_difference=True)`` reads;
    the exhaustion derivatives default to finite differences of
    ``exhaustion``.
    """

    name = "abstract"
    dim = 2
    #: per-coordinate period, np.nan for non-periodic coordinates
    periods: np.ndarray | None = None
    #: chart-distance cap for one loop segment (convexity proxy)
    segment_cap = 0.5
    compact = False
    #: chart radius beyond which evaluation is refused
    guard_radius = np.inf
    #: point-wise recentering isometry available (sphere)
    has_recentering = False
    recenter_trigger = np.inf

    # -- metric level -----------------------------------------------------

    def metric(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def metric_deriv(self, x: np.ndarray) -> np.ndarray:
        """Central finite differences of ``metric``, step 1e-5."""
        x = np.asarray(x, dtype=float)
        d = self.dim
        out = np.empty(x.shape[:-1] + (d, d, d))
        for k in range(d):
            e = np.zeros(d)
            e[k] = FD_STEP
            out[..., k, :, :] = (self.metric(x + e) - self.metric(x - e)) / (2 * FD_STEP)
        return out

    def christoffels(self, x: np.ndarray) -> np.ndarray:
        """Gamma^k_ij in closed form at points the domain guard admits."""
        raise NotImplementedError

    def metric_checked(self, x: np.ndarray) -> np.ndarray:
        """Metric with domain guard and positive-definiteness assertion."""
        x = np.asarray(x, dtype=float)
        inside = self.contains(x)
        if not np.all(inside):
            bad = np.asarray(x)[~np.asarray(inside)] if x.ndim > 1 else x
            raise ChartDomainError(f"{self.name}: point outside chart domain: {bad}")
        g = self.metric(x)
        try:
            np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise ChartDomainError(f"{self.name}: metric not positive definite at queried point")
        return g

    # -- domain -----------------------------------------------------------

    def contains(self, x: np.ndarray) -> np.ndarray | bool:
        x = np.asarray(x, dtype=float)
        if np.isinf(self.guard_radius):
            return np.ones(x.shape[:-1], dtype=bool) if x.ndim > 1 else True
        return np.sqrt((x * x).sum(-1)) < self.guard_radius

    def reduce_point(self, x: np.ndarray) -> np.ndarray:
        """Wrap periodic coordinates into [0, period)."""
        x = np.asarray(x, dtype=float)
        if self.periods is None:
            return x
        out = x.copy()
        for k in np.flatnonzero(np.isfinite(self.periods)):
            out[..., k] = np.mod(x[..., k], self.periods[k])
        return out

    def wrap_difference(self, delta: np.ndarray) -> np.ndarray:
        """Minimal lift of a coordinate difference (periodic coords to (-P/2, P/2])."""
        delta = np.asarray(delta, dtype=float)
        if self.periods is None:
            return delta
        out = delta.copy()
        for k in np.flatnonzero(np.isfinite(self.periods)):
            p = self.periods[k]
            out[..., k] = delta[..., k] - p * np.rint(delta[..., k] / p)
        return out

    # -- exhaustion (non-compact charts only) ------------------------------

    def exhaustion(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{self.name}: no exhaustion coordinate")

    def exhaustion_grad(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        d = self.dim
        out = np.empty(x.shape[:-1] + (d,)) if x.ndim > 1 else np.empty(d)
        for k in range(d):
            e = np.zeros(d)
            e[k] = FD_STEP
            out[..., k] = (self.exhaustion(x + e) - self.exhaustion(x - e)) / (2 * FD_STEP)
        return out

    def exhaustion_hess(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        d = self.dim
        out = np.empty(x.shape[:-1] + (d, d)) if x.ndim > 1 else np.empty((d, d))
        for k in range(d):
            e = np.zeros(d)
            e[k] = FD_STEP
            out[..., k, :] = (
                self.exhaustion_grad(x + e) - self.exhaustion_grad(x - e)
            ) / (2 * FD_STEP)
        return 0.5 * (out + np.swapaxes(out, -1, -2))

    # -- misc ---------------------------------------------------------------

    def gauss_curvature(self, x: np.ndarray) -> np.ndarray:
        """Analytic Gauss curvature (2D charts); raises if unavailable."""
        raise NotImplementedError(f"{self.name}: no analytic curvature")

    def sample_point(self, rng: np.random.Generator, r_min: float = 0.0,
                     r_max: float = 3.0) -> np.ndarray:
        """Draw a point, uniformly in the exhaustion band [r_min, r_max]."""
        raise NotImplementedError

    def recenter_map(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{self.name}: no recentering isometry")

    def __repr__(self):
        return f"<chart {self.name} d={self.dim}>"


# ---------------------------------------------------------------------------
# derived geometric quantities (chart-generic)
# ---------------------------------------------------------------------------


def christoffels_of_metric(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Generic Gamma^k_ij = 1/2 g^{km} (d_i g_jm + d_j g_im - d_m g_ij).

    The oracle of the charts' closed forms: ``g`` is the metric (..., d, d)
    and ``dg`` its first derivative (..., d, d, d), analytic or finite
    differences.
    """
    ginv = np.linalg.inv(g)
    # s[..., m, i, j] = d_i g_jm + d_j g_im - d_m g_ij
    dj_gim = dg.swapaxes(-1, -3)
    di_gjm = dj_gim.swapaxes(-1, -2)
    s = di_gjm + dj_gim - dg
    return 0.5 * np.einsum("...km,...mij->...kij", ginv, s)


def christoffels(chart: Chart, x: np.ndarray, finite_difference: bool = False) -> np.ndarray:
    """Christoffel symbols Gamma^k_ij of the chart's Levi-Civita connection.

    Returns the chart family's closed form.  ``finite_difference=True``
    instead applies the generic formula ``christoffels_of_metric`` to the
    finite-difference metric derivative (the oracle path).  Every RK4 stage
    of the geodesic and Jacobi flows makes exactly one call, so its call
    count is the stage count.  Raises ChartDomainError outside the domain.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(chart.contains(x)):
        raise ChartDomainError(f"{chart.name}: Christoffel evaluation outside domain")
    if finite_difference:
        return christoffels_of_metric(chart.metric(x), Chart.metric_deriv(chart, x))
    return chart.christoffels(x)


def christoffel_deriv(chart: Chart, x: np.ndarray, finite_difference: bool = False) -> np.ndarray:
    """d_l Gamma^k_ij by central differences of ``christoffels``.

    ``finite_difference=True`` differences the oracle Christoffels (from
    finite differences of g) with the wider outer step 10 * FD_STEP.
    """
    x = np.asarray(x, dtype=float)
    d = chart.dim
    step = 10 * FD_STEP if finite_difference else FD_STEP
    out = np.empty(x.shape[:-1] + (d, d, d, d))
    for l in range(d):
        e = np.zeros(d)
        e[l] = step
        out[..., l, :, :, :] = (
            christoffels(chart, x + e, finite_difference)
            - christoffels(chart, x - e, finite_difference)
        ) / (2 * step)
    return out


def riemann(chart: Chart, x: np.ndarray, finite_difference: bool = False) -> np.ndarray:
    """Riemann tensor R^l_kij = d_i G^l_jk - d_j G^l_ik + G^l_im G^m_jk - G^l_jm G^m_ik.

    ``finite_difference=True`` builds it from finite differences of g only
    (the oracle of the analytic curvature).
    """
    gam = christoffels(chart, x, finite_difference)
    dgam = christoffel_deriv(chart, x, finite_difference)
    term1 = np.einsum("...iljk->...lkij", dgam)
    term2 = np.einsum("...jlik->...lkij", dgam)
    term3 = np.einsum("...lim,...mjk->...lkij", gam, gam)
    term4 = np.einsum("...ljm,...mik->...lkij", gam, gam)
    return term1 - term2 + term3 - term4


def sectional_curvature(chart: Chart, x: np.ndarray, v: np.ndarray, w: np.ndarray,
                        finite_difference: bool = False) -> float:
    """Sectional curvature g(R(v,w)w, v) / (g(v,v) g(w,w) - g(v,w)^2).

    Independent of the basis of span{v, w}; raises DegeneratePlaneError when
    the Gram determinant falls below 1e-12 times the norm scale.
    ``finite_difference=True`` reads the oracle Riemann tensor.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    g = chart.metric_checked(x)
    gvv = v @ g @ v
    gww = w @ g @ w
    gvw = v @ g @ w
    den = gvv * gww - gvw**2
    if den <= 1e-12 * max(gvv * gww, 1e-300):
        raise DegeneratePlaneError("v, w span a degenerate plane")
    rm = riemann(chart, x, finite_difference)
    rvw_w = np.einsum("lkij,k,i,j->l", rm, w, v, w)
    num = rvw_w @ g @ v
    return float(num / den)


def curvature_operator(chart: Chart, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix of w -> R(w, v)v in chart components (the Jacobi-equation operator).

    Closed-form 2D expression R(w,v)v = K (g(v,v) w - g(w,v) v) from the
    chart's analytic Gauss curvature.  ``x`` and ``v`` of shape (..., 2)
    give matrices of shape (..., 2, 2), one per leading index.  Charts
    without analytic curvature raise NotImplementedError; ``riemann`` is
    the finite-difference route to their curvature.
    """
    if chart.dim != 2:
        raise NotImplementedError(f"{chart.name}: closed-form curvature needs a surface")
    g = chart.metric(x)
    k = chart.gauss_curvature(x)
    col = np.asarray(v, dtype=float)[..., :, None]
    gv = g @ col
    return k[..., None, None] * ((col.swapaxes(-1, -2) @ gv) * _EYE2
                                 - col * gv.swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# geodesic flow
# ---------------------------------------------------------------------------


def _geodesic_rhs(chart: Chart, x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gam = christoffels(chart, x)
    acc = -np.einsum("...kij,...i,...j->...k", gam, v, v)
    return v, acc


def geodesic_flow(chart: Chart, start: TangentVector, t: float, steps: int) -> TangentVector:
    """Integrate the geodesic equation with fixed-step classical RK4.

    Returns the endpoint (position, velocity).  Chart-domain escape raises
    DomainEscapeError carrying the exit time.  Metric speed g(v, v) is
    conserved to relative 1e-6 per unit time at 256 steps/unit.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if steps < 16:
        raise ValueError("steps must be >= 16")
    x, v = flow_trajectory(chart, start, t, steps)
    return TangentVector(x[-1], v[-1])


def _rk4_batch(chart: Chart, rhs, state: tuple, t: float,
               steps: int) -> tuple[tuple, np.ndarray]:
    """Classical RK4 for y' = rhs(*y) over [0, t], one trajectory per batch member.

    ``state`` is a tuple of arrays with a leading member axis B whose first
    entry holds the chart positions; ``rhs`` raises ChartDomainError on
    points outside the chart (``christoffels`` guards every evaluation).
    Returns the trajectories, each array of shape (B, steps+1, ...), and
    the exit times (B,).  A member whose start or RK4 stage point leaves
    the chart exits at n h (n the step it was in), one whose new point
    leaves exits at (n+1) h; its rows from then on are NaN.  Members that
    stay inside have exit time inf.  A refused evaluation is repeated on
    the members still inside, so their values do not depend on the others.
    """
    b = len(state[0])
    h = t / steps
    half, sixth = 0.5 * h, h / 6
    traj = tuple(np.full((b, steps + 1) + np.shape(y)[1:], np.nan) for y in state)
    exit_time = np.full(b, np.inf)
    live = np.arange(b)

    def leave(keep: np.ndarray, when: float, arrays: list) -> list:
        nonlocal live
        exit_time[live[~keep]] = when
        live = live[keep]
        return [[a[keep] for a in y] for y in arrays]

    inside = np.asarray(chart.contains(state[0]))
    (y,) = leave(inside, 0.0, [state]) if not inside.all() else (state,)
    for out, a in zip(traj, y):
        out[live, 0] = a
    for n in range(steps):
        if not len(live):
            break
        ks: list = []
        stage = y
        for c in (half, half, h, None):
            while len(live):
                try:
                    ks.append(rhs(*stage))
                    break
                except ChartDomainError:
                    # drop the members whose stage point left the chart, or
                    # all of them when the chart refused a point its guard admits
                    inside = np.asarray(chart.contains(stage[0]))
                    keep = inside if not inside.all() else np.zeros_like(inside)
                    y, stage, *ks = leave(keep, n * h, [y, stage, *ks])
            if not len(live):
                break
            if c is not None:
                stage = [a + c * k for a, k in zip(y, ks[-1])]
        if not len(live):
            break
        k1, k2, k3, k4 = ks
        y = [a + sixth * (p + 2 * q + 2 * r + s) for a, p, q, r, s in zip(y, k1, k2, k3, k4)]
        inside = np.asarray(chart.contains(y[0]))
        if not inside.all():
            (y,) = leave(inside, (n + 1) * h, [y])
        everyone = len(live) == b
        for out, a in zip(traj, y):
            out[slice(None) if everyone else live, n + 1] = a
    return traj, exit_time


def _integrate(chart: Chart, rhs, state: tuple, t: float, steps: int, what: str):
    """``_rk4_batch`` with the exit times appended for a batched state
    (positions (B, d)); one start (positions (d,)) runs as a batch of one,
    returns its own trajectories and raises DomainEscapeError on an exit."""
    state = tuple(np.asarray(y, dtype=float) for y in state)
    if state[0].ndim > 1:
        traj, exit_time = _rk4_batch(chart, rhs, state, t, steps)
        return (*traj, exit_time)
    traj, exit_time = _rk4_batch(chart, rhs, tuple(y[None] for y in state), t, steps)
    if np.isfinite(exit_time[0]):
        raise DomainEscapeError(f"{chart.name}: geodesic left the chart domain{what}",
                                exit_time=float(exit_time[0]))
    return tuple(y[0] for y in traj)


def flow_trajectory(chart: Chart, start: TangentVector, t: float, steps: int) -> tuple:
    """Full RK4 trajectory of the geodesic flow from one start or a batch of starts.

    One start (base and velocity of shape (d,)) gives x and v of shape
    (steps+1, d); a start outside the chart raises ChartDomainError and a
    trajectory that leaves it raises DomainEscapeError with the exit time.
    A batch (base and velocity of shape (B, d)) is stepped as one state and
    never raises for an escape: it gives x and v of shape (B, steps+1, d)
    and the exit times (B,), inf for a member that stayed inside.  A member
    exits at n h when a stage point of step n (or its start, n = 0) is
    outside the chart and at (n+1) h when its new point is; its rows are
    NaN from then on.
    """
    if start.base.ndim == 1 and not np.all(chart.contains(start.base)):
        raise ChartDomainError(f"{chart.name}: flow start outside domain")
    rhs = functools.partial(_geodesic_rhs, chart)
    return _integrate(chart, rhs, (start.base, start.v), t, steps, "")


def metric_speed(chart: Chart, x: np.ndarray, v: np.ndarray) -> float:
    g = chart.metric(x)
    return float(np.sqrt(v @ g @ v))


def sample_unit_starts(chart: Chart, rng: np.random.Generator, count: int,
                       r_min: float, r_max: float) -> TangentVector:
    """A batch of ``count`` unit-speed starts: per start, a point from
    ``chart.sample_point(rng, r_min, r_max)``, then a standard normal
    velocity scaled to metric speed 1."""
    starts = []
    for _ in range(count):
        x = chart.sample_point(rng, r_min, r_max)
        v = rng.standard_normal(chart.dim)
        starts.append((x, v / max(metric_speed(chart, x, v), 1e-12)))
    return TangentVector(*(np.array(a) for a in zip(*starts)))


# ---------------------------------------------------------------------------
# the zoo
# ---------------------------------------------------------------------------


class FlatPlane(Chart):
    """Euclidean plane, identity metric; exhaustion r = |x|."""

    name = "plane"

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2)).copy()

    def metric_deriv(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (2, 2, 2))

    def metric_second_deriv(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (2, 2, 2, 2))

    def christoffels(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (2, 2, 2))

    def gauss_curvature(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    def exhaustion(self, x):
        return np.linalg.norm(np.asarray(x, dtype=float), axis=-1)

    def exhaustion_grad(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        return x / np.maximum(r, 1e-14)

    def exhaustion_hess(self, x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x, axis=-1)
        xhat = x / np.maximum(r[..., None], 1e-14)
        eye = np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2))
        proj = eye - xhat[..., :, None] * xhat[..., None, :]
        return proj / np.maximum(r[..., None, None], 1e-14)

    def sample_point(self, rng, r_min=0.0, r_max=3.0):
        r = rng.uniform(r_min, r_max)
        phi = rng.uniform(0, 2 * np.pi)
        return np.array([r * np.cos(phi), r * np.sin(phi)])


class _ProfileChart(Chart):
    """Surface-of-revolution-type metric diag(1, rho(z)^2) in (z, theta).

    Subclasses supply ``profile_jet``, the profile rho with its first two
    derivatives.  The only nonzero Christoffels are Gamma^z_thth = -rho rho'
    and Gamma^th_zth = Gamma^th_thz = rho'/rho.  Gauss curvature is
    -rho''/rho; circles z = const with rho'(z) = 0 are closed geodesics of
    length 2 pi rho(z).
    """

    z_bound = 300.0  # cosh-type profiles overflow float64 past ~700

    def __init__(self):
        self.periods = np.array([np.nan, 2 * np.pi])

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return np.abs(x[..., 0]) < self.z_bound

    def profile_jet(self, z):
        """(rho, rho', rho'') at z, each of the shape of z."""
        raise NotImplementedError

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        rho = self.profile_jet(x[..., 0])[0]
        g = np.zeros(x.shape[:-1] + (2, 2))
        g[..., 0, 0] = 1.0
        g[..., 1, 1] = rho**2
        return g

    def metric_deriv(self, x):
        x = np.asarray(x, dtype=float)
        rho, d1, _ = self.profile_jet(x[..., 0])
        dg = np.zeros(x.shape[:-1] + (2, 2, 2))
        dg[..., 0, 1, 1] = 2 * rho * d1
        return dg

    def metric_second_deriv(self, x):
        x = np.asarray(x, dtype=float)
        rho, d1, d2 = self.profile_jet(x[..., 0])
        d2g = np.zeros(x.shape[:-1] + (2, 2, 2, 2))
        d2g[..., 0, 0, 1, 1] = 2 * (d1**2 + rho * d2)
        return d2g

    def christoffels(self, x):
        x = np.asarray(x, dtype=float)
        rho, d1, _ = self.profile_jet(x[..., 0])
        gam = np.zeros(x.shape[:-1] + (2, 2, 2))
        gam[..., 0, 1, 1] = -rho * d1
        gam[..., 1, 0, 1] = gam[..., 1, 1, 0] = d1 / rho
        return gam

    def gauss_curvature(self, x):
        x = np.asarray(x, dtype=float)
        rho, _, d2 = self.profile_jet(x[..., 0])
        return -d2 / rho

    def exhaustion(self, x):
        return np.abs(np.asarray(x, dtype=float)[..., 0])

    def exhaustion_grad(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        out[..., 0] = np.sign(x[..., 0])
        return out

    def exhaustion_hess(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (2, 2))

    def sample_point(self, rng, r_min=0.0, r_max=3.0):
        z = rng.uniform(r_min, r_max) * rng.choice([-1.0, 1.0])
        theta = rng.uniform(0, 2 * np.pi)
        return np.array([z, theta])


class FlatCylinder(_ProfileChart):
    """Flat cylinder R x S^1 of radius ``radius``; exhaustion r = |z|."""

    name = "cylinder"

    def __init__(self, radius: float = 1.0):
        super().__init__()
        self.radius = float(radius)
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"cylinder radius must be finite and > 0 (got {radius!r})")

    def profile_jet(self, z):
        zero = np.zeros(np.shape(z))
        return np.full(np.shape(z), self.radius), zero, zero


class Funnel(_ProfileChart):
    """Hyperbolic funnel: profile radius cosh(z), constant curvature -1.

    The waist circle z = 0 is the unique closed geodesic; its length is
    2 pi cosh(0) = 2 pi.
    """

    name = "funnel"

    def profile_jet(self, z):
        rho = np.cosh(z)
        return rho, np.sinh(z), rho


class BumpedCylinder(_ProfileChart):
    """Flat cylinder with a compactly supported curvature bump in |z| < 1.

    Profile 1 + A (1 - z^2)^4 inside the bump, 1 outside (C^3 junction, so
    the curvature -rho''/rho is C^1).  The bump carries positive curvature
    near z = 0 and negative lobes near |z| = 1; everything at |z| >= 1 is
    exactly flat.
    """

    name = "bumped_cylinder"

    def __init__(self, amplitude: float = 0.3):
        super().__init__()
        self.amplitude = float(amplitude)
        # the profile 1 + A (1 - z^2)^4 reaches 0 at some |z| < 1 when A <= -1
        if not (np.isfinite(self.amplitude) and self.amplitude > -1):
            raise ValueError(f"bump amplitude must be finite and > -1 (got {amplitude!r})")

    def profile_jet(self, z):
        z = np.asarray(z, dtype=float)
        z2 = z * z
        # u vanishes off the bump, and with it every bump term; products,
        # not powers, so a point's jet does not depend on its batch
        u = np.maximum(1.0 - z2, 0.0)
        u2 = u * u
        u3 = u2 * u
        a = self.amplitude
        return (1.0 + a * (u2 * u2), a * (-8 * z * u3),
                a * (-8 * u3 + 48 * z2 * u2))


class _ConformalChart(Chart):
    """Conformal metric lambda(|u|^2) * I on a planar domain.

    With phi = 1/2 log lambda, Gamma^k_ij = delta_kj d_i phi + delta_ki d_j phi
    - delta_ij d_k phi; subclasses give grad phi through ``_grad_phi``.
    """

    #: Gamma^k_ij, flattened over (k, i, j), as entries of (grad phi, -grad phi)
    _GAMMA_FROM_GRAD = np.array([0, 1, 1, 2, 3, 0, 0, 1])

    def _grad_phi(self, x):
        raise NotImplementedError

    def _lam(self, s):
        raise NotImplementedError

    def _dlam(self, s):
        """d lambda / d s with s = |u|^2."""
        raise NotImplementedError

    def _d2lam(self, s):
        raise NotImplementedError

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        s = (x * x).sum(-1)
        lam = self._lam(s)
        return lam[..., None, None] * _EYE2

    def metric_deriv(self, x):
        x = np.asarray(x, dtype=float)
        s = (x * x).sum(-1)
        dlam_dx = 2 * self._dlam(s)[..., None] * x          # [..., k]
        return dlam_dx[..., :, None, None] * _EYE2

    def metric_second_deriv(self, x):
        x = np.asarray(x, dtype=float)
        s = np.sum(x**2, axis=-1)
        dl, d2l = self._dlam(s), self._d2lam(s)
        eye = np.eye(2)
        # d_l d_k lambda = 2 dl delta_lk + 4 d2l u_l u_k
        hess = 2 * dl[..., None, None] * eye + 4 * d2l[..., None, None] * (
            x[..., :, None] * x[..., None, :]
        )
        return hess[..., :, :, None, None] * eye

    def christoffels(self, x):
        x = np.asarray(x, dtype=float)
        p = self._grad_phi(x)
        gam = np.concatenate((p, -p), axis=-1)[..., self._GAMMA_FROM_GRAD]
        return gam.reshape(x.shape[:-1] + (2, 2, 2))


class SphereStereographic(_ConformalChart):
    """Round unit 2-sphere in a stereographic chart, g = 4/(1+|u|^2)^2 I.

    The projection pole sits at chart infinity; evaluation is guarded at
    chart radius 10 and loops drifting outward are recentered by the
    isometric involution u -> (u1, -u2)/|u|^2 (a half-turn of the sphere),
    which leaves the metric expression invariant.
    """

    name = "sphere"
    compact = True
    guard_radius = 10.0
    has_recentering = True
    recenter_trigger = 3.0
    segment_cap = 0.75

    def _lam(self, s):
        return 4.0 / (1.0 + s) ** 2

    def _dlam(self, s):
        return -8.0 / (1.0 + s) ** 3

    def _d2lam(self, s):
        return 24.0 / (1.0 + s) ** 4

    def _grad_phi(self, x):
        return -2.0 * x / (1.0 + (x * x).sum(-1))[..., None]

    def gauss_curvature(self, x):
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1])

    def recenter_map(self, x):
        x = np.asarray(x, dtype=float)
        s = np.sum(x**2, axis=-1, keepdims=True)
        # the origin's image is chart infinity, a point no chart holds
        out = np.where(s > 0, x / np.maximum(s, 1e-300), np.inf)
        out[..., 1] *= -1
        return out

    def sample_point(self, rng, r_min=0.0, r_max=2.0):
        r = rng.uniform(r_min, min(r_max, self.recenter_trigger))
        phi = rng.uniform(0, 2 * np.pi)
        return np.array([r * np.cos(phi), r * np.sin(phi)])


class PoincareDisk(_ConformalChart):
    """Hyperbolic plane as the unit disk, g = 4/(1-|u|^2)^2 I, curvature -1.

    Exhaustion is the true hyperbolic distance to the origin,
    r(u) = 2 artanh(|u|).
    """

    name = "hyperbolic"
    guard_radius = 1.0 - 1e-12
    segment_cap = 0.15

    def _lam(self, s):
        return 4.0 / (1.0 - s) ** 2

    def _dlam(self, s):
        return 8.0 / (1.0 - s) ** 3

    def _d2lam(self, s):
        return 24.0 / (1.0 - s) ** 4

    def _grad_phi(self, x):
        return 2.0 * x / (1.0 - (x * x).sum(-1))[..., None]

    def gauss_curvature(self, x):
        x = np.asarray(x, dtype=float)
        return -np.ones(x.shape[:-1])

    def exhaustion(self, x):
        rho = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
        return 2.0 * np.arctanh(np.clip(rho, 0, 1 - 1e-15))

    def exhaustion_grad(self, x):
        x = np.asarray(x, dtype=float)
        rho = np.linalg.norm(x, axis=-1, keepdims=True)
        fac = 2.0 / (1.0 - np.clip(rho, 0, 1 - 1e-15) ** 2)
        return fac * x / np.maximum(rho, 1e-14)

    def exhaustion_hess(self, x):
        x = np.asarray(x, dtype=float)
        rho = np.linalg.norm(x, axis=-1)
        rho = np.clip(rho, 1e-14, 1 - 1e-15)
        uhat = x / rho[..., None]
        rp = 2.0 / (1.0 - rho**2)                       # dr/drho
        rpp = 4.0 * rho / (1.0 - rho**2) ** 2           # d2r/drho2
        eye = np.broadcast_to(np.eye(2), x.shape[:-1] + (2, 2))
        uu = uhat[..., :, None] * uhat[..., None, :]
        return rpp[..., None, None] * uu + (rp / rho)[..., None, None] * (eye - uu)

    def sample_point(self, rng, r_min=0.0, r_max=3.0):
        r = rng.uniform(r_min, r_max)
        rho = np.tanh(r / 2.0)
        phi = rng.uniform(0, 2 * np.pi)
        return np.array([rho * np.cos(phi), rho * np.sin(phi)])


class Paraboloid(Chart):
    """Paraboloid of revolution z = rho^2 in polar chart (rho, theta).

    Induced metric diag(1 + 4 rho^2, rho^2); Gauss curvature
    4/(1 + 4 rho^2)^2.  The polar chart degenerates at the apex, so the
    domain excludes a tiny disk around rho = 0.
    """

    name = "paraboloid"
    apex_guard = 1e-8

    def __init__(self):
        self.periods = np.array([np.nan, 2 * np.pi])

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        rho = x[..., 0]
        g = np.zeros(x.shape[:-1] + (2, 2))
        g[..., 0, 0] = 1.0 + 4.0 * rho**2
        g[..., 1, 1] = rho**2
        return g

    def metric_deriv(self, x):
        x = np.asarray(x, dtype=float)
        rho = x[..., 0]
        dg = np.zeros(x.shape[:-1] + (2, 2, 2))
        dg[..., 0, 0, 0] = 8.0 * rho
        dg[..., 0, 1, 1] = 2.0 * rho
        return dg

    def metric_second_deriv(self, x):
        x = np.asarray(x, dtype=float)
        d2g = np.zeros(x.shape[:-1] + (2, 2, 2, 2))
        d2g[..., 0, 0, 0, 0] = 8.0
        d2g[..., 0, 0, 1, 1] = 2.0
        return d2g

    def christoffels(self, x):
        x = np.asarray(x, dtype=float)
        rho = x[..., 0]
        e = 1.0 + 4.0 * rho * rho        # g_rho_rho
        gam = np.zeros(x.shape[:-1] + (2, 2, 2))
        gam[..., 0, 0, 0] = 4.0 * rho / e
        gam[..., 0, 1, 1] = -rho / e
        gam[..., 1, 0, 1] = gam[..., 1, 1, 0] = 1.0 / rho
        return gam

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] > self.apex_guard

    def gauss_curvature(self, x):
        x = np.asarray(x, dtype=float)
        rho = x[..., 0]
        return 4.0 / (1.0 + 4.0 * rho**2) ** 2

    def exhaustion(self, x):
        return np.asarray(x, dtype=float)[..., 0]

    def exhaustion_grad(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        out[..., 0] = 1.0
        return out

    def exhaustion_hess(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1] + (2, 2))

    def sample_point(self, rng, r_min=0.0, r_max=3.0):
        rho = rng.uniform(max(r_min, 0.05), r_max)
        theta = rng.uniform(0, 2 * np.pi)
        return np.array([rho, theta])


CHART_BUILDERS = {
    "plane": FlatPlane,
    "cylinder": FlatCylinder,
    "sphere": SphereStereographic,
    "hyperbolic": PoincareDisk,
    "paraboloid": Paraboloid,
    "funnel": Funnel,
    "bumped_cylinder": BumpedCylinder,
}


def make_chart(name: str, **params) -> Chart:
    """Instantiate a zoo chart by name with keyword parameters."""
    try:
        builder = CHART_BUILDERS[name]
    except KeyError:
        raise ChartDomainError(
            f"unknown chart {name!r}; available: {sorted(CHART_BUILDERS)}"
        )
    return builder(**params)
