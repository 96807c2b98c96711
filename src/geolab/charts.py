"""Chart-based Riemannian metrics and their spray.

Every manifold in the zoo is a surface, presented in a single global
orthogonal chart of dimension ``d`` = 2 (a chart with g_01 != 0 is out of
scope): g is lambda I on the conformal charts, diag(1, rho^2) on the
profile charts and diag(1 + 4 rho^2, rho^2) on the paraboloid.  A chart
family writes its metric jet once, as diagonals, and its Gauss curvature
and spray in closed form; the base ``Chart`` adds domain guards and embeds
the jet into the dense matrices its consumers read.  A non-compact chart
has an exhaustion coordinate ``r`` in one of two forms: r = |x_0| on the
surfaces of revolution (``_RevolutionChart``), r = f(|u|) on the conformal
discs (``_ConformalChart``).  ``periods`` is set exactly on the charts with
a periodic angle, the surfaces of revolution.  The Christoffels are written
once, for every chart: the generic Levi-Civita formula
``christoffels_of_metric`` on the chart's analytic metric derivative.  Each
closed form has an oracle built from the one below it: ``central_difference``
of ``metric`` and of ``metric_deriv`` for the metric derivatives, and
Brioschi's formula on the analytic jet, ``sectional_curvature``, for K.

The flow reads a chart through its spray alone: ``Chart.spray(x, v)``
returns the geodesic acceleration -Gamma(v, v) and the Jacobi coefficient
K g(v, v) from one evaluation of the family's jet, and the guarded
``spray`` is the one chart call an integrator stage makes.  This module
integrates nothing: the one integrator is ``flow.dopri_batch``, reached
through ``jacobi.jacobi_propagate``, whose (x, v) rows are the geodesic
flow; ``geodesic_flow`` reads its endpoint.

Index conventions used throughout:

* ``metric(x)[..., i, j]``                = g_ij(x)
* ``metric_deriv(x)[..., k, i, j]``       = d_k g_ij(x)
* ``metric_second_deriv(x)[..., l, k, i, j]`` = d_l d_k g_ij(x)
* ``metric_diag(x)[..., i]``, ``metric_diag_deriv(x)[..., k, i]`` and
  ``metric_diag_second_deriv(x)[..., l, k, i]``: the same at j = i
* ``christoffels(...)[..., k, i, j]``     = Gamma^k_ij (symmetric in i, j)

All metric-level evaluations broadcast over leading batch axes, and a
point's value never depends on its batch.  Sums over the length-d
coordinate axis in the kernels a descent step runs are written term by
term (``_squared_norm``): on a surface, numpy's per-call cost of a
reduction over two entries dwarfs its two products, and the explicit sum
gives numpy's reduction bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ChartDomainError

FD_STEP = 1e-5
_EYE2 = np.eye(2)


def _squared_norm(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """|x|^2 over the last axis, the squares summed term by term from k = 0:
    for d = 2 bit for bit ``(x * x).sum(-1)``.  ``keepdims`` keeps a length-1
    last axis, so that one point still runs numpy's array loops."""
    sq = x * x
    out = sq[..., 0]
    for k in range(1, sq.shape[-1]):
        out = out + sq[..., k]
    return out[..., None] if keepdims else out


def _diag_matrix(diag: np.ndarray) -> np.ndarray:
    """The (..., d, d) matrices with diagonals ``diag`` (..., d), zero off the diagonal."""
    out = np.zeros(diag.shape + diag.shape[-1:])
    np.einsum("...ii->...i", out)[...] = diag         # a writeable view of the diagonals
    return out


def central_difference(f, x: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """d_k f(x) as (f(x + step e_k) - f(x - step e_k)) / (2 step), on an axis k
    after the batch axes of ``x`` and before the axes of f's values."""
    x = np.asarray(x, dtype=float)
    return np.stack([(f(x + e) - f(x - e)) / (2 * step) for e in step * np.eye(x.shape[-1])],
                    axis=x.ndim - 1)


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
    """Base class: the dense metric jet, domain guards and periodic wrapping.

    Subclasses provide the diagonal jet ``metric_diag``, ``metric_diag_deriv``
    and ``metric_diag_second_deriv`` (which ``metric``, ``metric_deriv`` and
    ``metric_second_deriv`` embed), ``gauss_curvature`` and ``spray``
    (-Gamma(v, v), K g(v, v)) in closed form over leading batch axes, and
    ``sample_point(rng, r_min, r_max)``, uniform in the exhaustion band.  A
    non-compact chart also has ``exhaustion`` with its gradient
    ``exhaustion_grad`` and Hessian ``exhaustion_hess``, once per form:
    r = |x_0| in ``_RevolutionChart``, r = f(|u|) in ``_ConformalChart``
    from a chart's 1-D jet (f, f', f'').  Each closed form's oracle is
    ``central_difference`` of the one below."""

    name = "abstract"
    dim = 2
    #: per-coordinate period, np.nan for non-periodic coordinates; set
    #: exactly on the charts with a periodic angle (``_RevolutionChart``)
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
        return _diag_matrix(self.metric_diag(x))

    def metric_deriv(self, x: np.ndarray) -> np.ndarray:
        return _diag_matrix(self.metric_diag_deriv(x))

    def metric_second_deriv(self, x: np.ndarray) -> np.ndarray:
        return _diag_matrix(self.metric_diag_second_deriv(x))

    def metric_checked(self, x: np.ndarray) -> np.ndarray:
        """Metric with domain guard and positive-definiteness check (each g_ii > 0; NaN fails)."""
        x = np.asarray(x, dtype=float)
        inside = self.contains(x)
        if not np.all(inside):
            bad = np.asarray(x)[~np.asarray(inside)] if x.ndim > 1 else x
            raise ChartDomainError(f"{self.name}: point outside chart domain: {bad}")
        g = self.metric_diag(x)
        if not np.all(g > 0):
            raise ChartDomainError(f"{self.name}: metric not positive definite at queried point")
        return _diag_matrix(g)

    # -- domain -----------------------------------------------------------

    def contains(self, x: np.ndarray) -> np.ndarray | bool:
        x = np.asarray(x, dtype=float)
        if np.isinf(self.guard_radius):
            return np.ones(x.shape[:-1], dtype=bool) if x.ndim > 1 else True
        return np.sqrt(_squared_norm(x)) < self.guard_radius

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

    # -- misc ---------------------------------------------------------------

    def recenter_map(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError(f"{self.name}: no recentering isometry")

    def __repr__(self):
        return f"<chart {self.name} d={self.dim}>"


# ---------------------------------------------------------------------------
# derived geometric quantities (chart-generic)
# ---------------------------------------------------------------------------


def christoffels_of_metric(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Generic Gamma^k_ij = 1/2 g^{km} (d_i g_jm + d_j g_im - d_m g_ij).

    ``g`` is the metric (..., d, d) and ``dg`` its first derivative
    (..., d, d, d), analytic or finite differences.
    """
    ginv = np.linalg.inv(g)
    # s[..., m, i, j] = d_i g_jm + d_j g_im - d_m g_ij
    dj_gim = dg.swapaxes(-1, -3)
    di_gjm = dj_gim.swapaxes(-1, -2)
    s = di_gjm + dj_gim - dg
    return 0.5 * np.einsum("...km,...mij->...kij", ginv, s)


def christoffels(chart: Chart, x: np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma^k_ij of the chart's Levi-Civita connection.

    The generic formula ``christoffels_of_metric`` on the chart's analytic
    metric derivative.  The flows do not call it: an integrator stage reads
    the chart through ``spray``.  Raises ChartDomainError outside the domain.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(chart.contains(x)):
        raise ChartDomainError(f"{chart.name}: Christoffel evaluation outside domain")
    return christoffels_of_metric(chart.metric(x), chart.metric_deriv(x))


def spray(chart: Chart, x: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The geodesic acceleration -Gamma(v, v) (..., d) and the Jacobi
    coefficient K g(v, v) (...) of a surface chart, from the chart family's
    closed form.  The one chart call of an integrator stage, so its call
    count is the stage count.  Raises ChartDomainError outside the domain.
    """
    if not np.asarray(chart.contains(x)).all():
        raise ChartDomainError(f"{chart.name}: spray evaluation outside domain")
    return chart.spray(x, v)


#: units of eps in ``sectional_curvature``'s rounding bound, a few per product and sum
BRIOSCHI_ROUNDING = 32.0


def sectional_curvature(chart: Chart, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss curvature by Brioschi's formula on the analytic jet, over leading
    batch axes, and a bound on its rounding: the oracle of the closed-form
    ``gauss_curvature`` (on a surface every plane has curvature K).

    With g = [[E, F], [F, G]] in coordinates (u, v) = (x0, x1),
    K = (det A - det B) / (EG - F^2)^2 (do Carmo, *Differential Geometry of
    Curves and Surfaces*, 4-3); A and B border g with a first row p and
    column q, so each is A_00 det g - p adj(g) q.  The bound is
    ``BRIOSCHI_ROUNDING`` eps times the terms' absolute sum over (EG - F^2)^2,
    times (EG + F^2) / (EG - F^2).  Raises ChartDomainError outside the domain.
    """
    x = np.asarray(x, dtype=float)
    g, dg, d2g = chart.metric_checked(x), chart.metric_deriv(x), chart.metric_second_deriv(x)
    E, F, G = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
    (Eu, Fu, Gu), (Ev, Fv, Gv) = ((dg[..., k, 0, 0], dg[..., k, 0, 1], dg[..., k, 1, 1])
                                  for k in (0, 1))
    gram = E * G - F * F

    def bordered(p, q):             # p adj(g) q with adj(g) = [[G, -F], [-F, E]]
        return p[0] * q[0] * G - (p[0] * q[1] + p[1] * q[0]) * F + p[1] * q[1] * E

    terms = ((d2g[..., 0, 1, 0, 1] - d2g[..., 1, 1, 0, 0] / 2 - d2g[..., 0, 0, 1, 1] / 2) * gram,
             -bordered((Eu / 2, Fu - Ev / 2), (Fv - Gu / 2, Gv / 2)),
             bordered((Ev / 2, Gu / 2), (Ev / 2, Gu / 2)))
    size = sum(np.abs(t) for t in terms) * (E * G + F * F) / gram
    return (sum(terms) / (gram * gram),
            BRIOSCHI_ROUNDING * np.finfo(float).eps * size / (gram * gram))


def curvature_operator(chart: Chart, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrix of w -> R(w, v)v in chart components (the Jacobi-equation operator).

    Closed-form 2D expression R(w,v)v = K (g(v,v) w - g(w,v) v) from the
    chart's analytic Gauss curvature.  ``x`` and ``v`` of shape (..., 2)
    give matrices of shape (..., 2, 2), one per leading index.
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


def geodesic_flow(chart: Chart, start: TangentVector, t: float) -> TangentVector:
    """Endpoint (position, velocity) of the geodesic from one start after
    time t: the last (x, v) row of ``jacobi.jacobi_propagate``, whose steps
    hold each one's error estimate within ``jacobi.FLOW_TOL``.  Metric
    speed g(v, v) is conserved to 1e-10 per unit time on the zoo's charts.

    A geodesic that leaves the chart raises DomainEscapeError carrying the
    exit time; a start outside the chart exits at time 0.  t <= 0 or a
    start with zero metric speed raise ValueError.  Nothing in the package
    calls it; the benchmark's tracer probes this name.
    """
    from .jacobi import jacobi_propagate   # jacobi imports this module

    orbit = jacobi_propagate(chart, start, t)
    return TangentVector(orbit.x[-1], orbit.v[-1])


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


class _RevolutionChart(Chart):
    """A surface of revolution in a chart (z, theta) with a periodic angle
    theta; exhaustion r = |z|, with grad r = sign(z) e_z and Hess r = 0."""

    periods = np.array([np.nan, 2 * np.pi])

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


class _ProfileChart(_RevolutionChart):
    """Surface-of-revolution-type metric diag(1, rho(z)^2) in (z, theta).

    Subclasses supply ``profile_jet(z)``, the profile rho with its first two
    derivatives, each of the shape of z.  The only nonzero Christoffels are
    Gamma^z_thth = -rho rho' and Gamma^th_zth = Gamma^th_thz = rho'/rho, so
    the spray is -Gamma(v, v) = (rho rho' v_th^2, -2 (rho'/rho) v_z v_th).
    Gauss curvature is -rho''/rho; circles z = const with rho'(z) = 0 are
    closed geodesics of length 2 pi rho(z).
    """

    z_bound = 300.0  # cosh-type profiles overflow float64 past ~700

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return np.abs(x[..., 0]) < self.z_bound

    def metric_diag(self, x):
        rho = self.profile_jet(np.asarray(x, dtype=float)[..., 0])[0]
        g = np.ones(np.shape(rho) + (2,))
        g[..., 1] = rho * rho
        return g

    def metric_diag_deriv(self, x):
        rho, d1, _ = self.profile_jet(np.asarray(x, dtype=float)[..., 0])
        dg = np.zeros(np.shape(x) + (2,))
        dg[..., 0, 1] = 2 * rho * d1
        return dg

    def metric_diag_second_deriv(self, x):
        rho, d1, d2 = self.profile_jet(np.asarray(x, dtype=float)[..., 0])
        d2g = np.zeros(np.shape(x) + (2, 2))
        d2g[..., 0, 0, 1] = 2 * (d1 * d1 + rho * d2)
        return d2g

    def spray(self, x, v):
        x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
        rho, d1, d2 = self.profile_jet(x[..., 0])
        vz, vth = v[..., 0], v[..., 1]
        vth2 = vth * vth
        acc = np.empty(v.shape)
        acc[..., 0] = rho * d1 * vth2
        acc[..., 1] = -2 * (d1 / rho) * vz * vth
        return acc, -d2 / rho * (vz * vz + rho * rho * vth2)

    def gauss_curvature(self, x):
        x = np.asarray(x, dtype=float)
        rho, _, d2 = self.profile_jet(x[..., 0])
        return -d2 / rho + 0.0      # + 0.0: flat ground reads 0.0, not -0.0

    def sample_point(self, rng, r_min=0.0, r_max=3.0):
        z = rng.uniform(r_min, r_max) * rng.choice([-1.0, 1.0])
        theta = rng.uniform(0, 2 * np.pi)
        return np.array([z, theta])


class FlatCylinder(_ProfileChart):
    """Flat cylinder R x S^1 of radius ``radius``; exhaustion r = |z|."""

    name = "cylinder"

    def __init__(self, radius: float = 1.0):
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

    Subclasses give lambda and its first two derivatives in s = |u|^2
    (``_lam``, ``_dlam``, ``_d2lam``); the metric jet and the spray follow.
    The diagonal jets repeat lambda's jet over i; s keeps its last axis, as a
    0-d s would run the powers in ``_dlam`` as C pow (off in the last bit).
    With phi = 1/2 log lambda, grad phi = (lambda'/lambda) u and
    Gamma^k_ij = delta_kj d_i phi + delta_ki d_j phi - delta_ij d_k phi, so
    the spray is -Gamma(v, v) = |v|^2 grad phi - 2 (grad phi . v) v.

    A non-compact subclass gives its radial exhaustion r = f(rho), rho = |u|,
    as the 1-D jet (f, f', f'') (``_radial_jet``); with u_hat = u / rho,
    grad r = f' u_hat and Hess r = f'' u_hat u_hat^T + (f'/rho)(I - u_hat u_hat^T).
    """

    def metric_diag(self, x):
        lam = self._lam(_squared_norm(np.asarray(x, dtype=float), keepdims=True))
        return np.repeat(lam, self.dim, axis=-1)

    def metric_diag_deriv(self, x):
        x = np.asarray(x, dtype=float)
        dlam_dx = 2 * self._dlam(_squared_norm(x, keepdims=True)) * x     # [..., k]
        return np.repeat(dlam_dx[..., None], self.dim, axis=-1)

    def metric_diag_second_deriv(self, x):
        x = np.asarray(x, dtype=float)
        s = _squared_norm(x, keepdims=True)
        dl, d2l = self._dlam(s), self._d2lam(s)
        # d_l d_k lambda = 2 dl delta_lk + 4 d2l u_l u_k
        hess = 2 * dl[..., None] * _EYE2 + 4 * d2l[..., None] * (x[..., :, None] * x[..., None, :])
        return np.repeat(hess[..., None], self.dim, axis=-1)

    def spray(self, x, v):
        x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
        s = _squared_norm(x, keepdims=True)     # keeps its last axis, as in the metric jet
        lam = self._lam(s)
        p = self._dlam(s) / lam * x             # grad phi
        vv = _squared_norm(v, keepdims=True)
        acc = vv * p - 2 * (p * v).sum(-1, keepdims=True) * v
        return acc, self.gauss_curvature(x) * lam[..., 0] * vv[..., 0]

    def _radial_jet(self, rho):
        """(f, f', f'') at rho of the exhaustion r = f(rho)."""
        raise NotImplementedError(f"{self.name}: no exhaustion coordinate")

    def exhaustion(self, x):
        return self._radial_jet(np.sqrt(_squared_norm(np.asarray(x, dtype=float))))[0]

    def exhaustion_grad(self, x):
        x = np.asarray(x, dtype=float)
        rho = np.sqrt(_squared_norm(x, keepdims=True))
        return self._radial_jet(rho)[1] * x / np.maximum(rho, 1e-14)

    def exhaustion_hess(self, x):
        x = np.asarray(x, dtype=float)
        rho = np.maximum(np.sqrt(_squared_norm(x)), 1e-14)
        _, d1, d2 = self._radial_jet(rho)
        uhat = x / rho[..., None]
        uu = uhat[..., :, None] * uhat[..., None, :]
        return d2[..., None, None] * uu + (d1 / rho)[..., None, None] * (_EYE2 - uu)


class FlatPlane(_ConformalChart):
    """Euclidean plane, the conformal chart with lambda = 1; exhaustion r = |x|."""

    name = "plane"

    def _lam(self, s):
        return np.ones(np.shape(s))

    def _dlam(self, s):
        return np.zeros(np.shape(s))

    def _d2lam(self, s):
        return np.zeros(np.shape(s))

    def gauss_curvature(self, x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])

    def _radial_jet(self, rho):
        return rho, np.ones(np.shape(rho)), np.zeros(np.shape(rho))

    def sample_point(self, rng, r_min=0.0, r_max=3.0):
        r = rng.uniform(r_min, r_max)
        phi = rng.uniform(0, 2 * np.pi)
        return np.array([r * np.cos(phi), r * np.sin(phi)])


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
        return 4.0 / ((1.0 + s) * (1.0 + s))

    def _dlam(self, s):
        return -8.0 / (1.0 + s) ** 3

    def _d2lam(self, s):
        return 24.0 / (1.0 + s) ** 4

    def gauss_curvature(self, x):
        x = np.asarray(x, dtype=float)
        return np.ones(x.shape[:-1])

    def recenter_map(self, x):
        x = np.asarray(x, dtype=float)
        s = _squared_norm(x, keepdims=True)
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
        return 4.0 / ((1.0 - s) * (1.0 - s))

    def _dlam(self, s):
        return 8.0 / (1.0 - s) ** 3

    def _d2lam(self, s):
        return 24.0 / (1.0 - s) ** 4

    def gauss_curvature(self, x):
        x = np.asarray(x, dtype=float)
        return -np.ones(x.shape[:-1])

    def _radial_jet(self, rho):
        rho = np.clip(rho, 0, 1 - 1e-15)
        q = 1.0 - rho * rho
        return 2.0 * np.arctanh(rho), 2.0 / q, 4.0 * rho / (q * q)

    def sample_point(self, rng, r_min=0.0, r_max=3.0):
        r = rng.uniform(r_min, r_max)
        rho = np.tanh(r / 2.0)
        phi = rng.uniform(0, 2 * np.pi)
        return np.array([rho * np.cos(phi), rho * np.sin(phi)])


class Paraboloid(_RevolutionChart):
    """Paraboloid of revolution z = rho^2 in polar chart (rho, theta).

    Induced metric diag(1 + 4 rho^2, rho^2); Gauss curvature
    4/(1 + 4 rho^2)^2.  With e = 1 + 4 rho^2 the spray is -Gamma(v, v) =
    (rho (v_th^2 - 4 v_rho^2) / e, -2 v_rho v_th / rho).  The polar chart
    degenerates at the apex, so the domain excludes a tiny disk around
    rho = 0, where the exhaustion |rho| is rho.
    """

    name = "paraboloid"
    apex_guard = 1e-8

    def metric_diag(self, x):
        rho = np.asarray(x, dtype=float)[..., 0]
        g = np.empty(rho.shape + (2,))
        g[..., 1] = rho * rho
        g[..., 0] = 1.0 + 4.0 * g[..., 1]
        return g

    def metric_diag_deriv(self, x):
        x = np.asarray(x, dtype=float)
        dg = np.zeros(x.shape + (2,))
        dg[..., 0, 0] = 8.0 * x[..., 0]
        dg[..., 0, 1] = 2.0 * x[..., 0]
        return dg

    def metric_diag_second_deriv(self, x):
        d2g = np.zeros(np.shape(x) + (2, 2))
        d2g[..., 0, 0, :] = [8.0, 2.0]
        return d2g

    def spray(self, x, v):
        x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
        rho, vr, vth = x[..., 0], v[..., 0], v[..., 1]
        rho2, vr2, vth2 = rho * rho, vr * vr, vth * vth
        e = 1.0 + 4.0 * rho2
        acc = np.empty(v.shape)
        acc[..., 0] = rho * (vth2 - 4.0 * vr2) / e
        acc[..., 1] = -2.0 * vr * vth / rho
        return acc, 4.0 * (e * vr2 + rho2 * vth2) / (e * e)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] > self.apex_guard

    def gauss_curvature(self, x):
        x = np.asarray(x, dtype=float)
        rho = x[..., 0]
        e = 1.0 + 4.0 * (rho * rho)
        return 4.0 / (e * e)

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
