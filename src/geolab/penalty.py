"""Basepoint penalty: the family of radial ramps restoring compactness.

On a non-compact chart with exhaustion r, stage alpha of the schedule adds

    f_alpha(x) = c * max(0, r(x) - R_alpha)^3,      R_alpha = R_0 + alpha * dR,

to the energy, evaluated at the loop basepoint only.  The cubic ramp is the
minimum-regularity C^2 choice that still has a Hessian; it is nonnegative,
proper on its support, vanishes on {r <= R_alpha}, and its support escapes
every compact set as alpha grows.  Compact charts get the zero penalty and
the machinery degenerates to a classical closed-geodesic search.

A critical point of the penalized energy is a geodesic away from its
basepoint, with velocity jump v(0-) - v(0+) equal to the metric gradient
of f_alpha there (the corner condition).  ``classify_critical_point``
splits critical points into genuine closed geodesics (basepoint off the
support) and such corner points, at the gradient level at which the solver
accepted the loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .charts import Chart, christoffels
from .loops import (
    DiscreteLoop,
    energy,
    energy_gradient,
    one_sided_velocities,
    preconditioned_norm,
    validate_loop,
)

RAMP_EXPONENT = 3  # fixed: C^2 is the minimum regularity for a Hessian


@dataclass(frozen=True)
class PenaltySchedule:
    """Strictly increasing support radii R_alpha = r0 + alpha * dr, stiffness c."""

    r0: float = 2.0
    dr: float = 1.0
    stiffness: float = 1.0

    def __post_init__(self):
        if self.r0 <= 0 or self.dr <= 0 or self.stiffness <= 0:
            raise ValueError("penalty schedule needs r0, dr, stiffness > 0")

    def radius(self, alpha: int) -> float:
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        return self.r0 + alpha * self.dr


def penalty_value(chart: Chart, schedule: PenaltySchedule, alpha: int,
                  x: np.ndarray) -> float | np.ndarray:
    """f_alpha(x); a stack of points (..., d) gives one value per point."""
    x = np.asarray(x, dtype=float)
    if chart.compact:
        return 0.0 if x.ndim == 1 else np.zeros(x.shape[:-1])
    # float_power is the scalar pow on every element, so a stack of points
    # gets bit for bit the values of the points taken one at a time
    excess = np.maximum(chart.exhaustion(x) - schedule.radius(alpha), 0.0)
    value = schedule.stiffness * np.float_power(excess, RAMP_EXPONENT)
    return float(value) if x.ndim == 1 else value


def penalty_coordinate_grad(chart: Chart, schedule: PenaltySchedule, alpha: int,
                            x: np.ndarray) -> np.ndarray:
    """Plain coordinate partials d_k f_alpha (what the discrete descent needs)."""
    x = np.asarray(x, dtype=float)
    if chart.compact:
        return np.zeros(x.shape)
    excess = np.maximum(chart.exhaustion(x) - schedule.radius(alpha), 0.0)
    scale = 3.0 * schedule.stiffness * np.float_power(excess, 2)
    return np.where((excess > 0.0)[..., None], scale[..., None] * chart.exhaustion_grad(x), 0.0)


def penalty_coordinate_hess(chart: Chart, schedule: PenaltySchedule, alpha: int,
                            x: np.ndarray) -> np.ndarray:
    """Coordinate second derivatives d_i d_j f_alpha."""
    x = np.asarray(x, dtype=float)
    d = chart.dim
    if chart.compact:
        return np.zeros((d, d))
    excess = float(chart.exhaustion(x)) - schedule.radius(alpha)
    if excess <= 0.0:
        return np.zeros((d, d))
    c = schedule.stiffness
    dr = chart.exhaustion_grad(x)
    return 6.0 * c * excess * np.outer(dr, dr) + 3.0 * c * excess**2 * chart.exhaustion_hess(x)


def penalty_gradient_and_hessian(chart: Chart, schedule: PenaltySchedule, alpha: int,
                                 x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Metric gradient and covariant Hessian of the ramp at x.

    grad f = g^{-1} df;   (Hess f)_ij = d_i d_j f - Gamma^k_ij d_k f.
    Both vanish identically on {r <= R_alpha}.
    """
    x = np.asarray(x, dtype=float)
    df = penalty_coordinate_grad(chart, schedule, alpha, x)
    if not np.any(df):
        d = chart.dim
        return np.zeros(d), np.zeros((d, d))
    g = chart.metric_checked(x)
    grad = np.linalg.solve(g, df)
    d2f = penalty_coordinate_hess(chart, schedule, alpha, x)
    gam = christoffels(chart, x)
    hess = d2f - np.einsum("kij,k->ij", gam, df)
    return grad, 0.5 * (hess + hess.T)


def penalized_energy(chart: Chart, schedule: PenaltySchedule, alpha: int,
                     loop: DiscreteLoop) -> float | np.ndarray:
    """Energy plus the ramp at the basepoint (per member of a stack)."""
    return energy(chart, loop) + penalty_value(chart, schedule, alpha, loop.basepoint)


def penalized_gradient(chart: Chart, schedule: PenaltySchedule, alpha: int,
                       loop: DiscreteLoop) -> np.ndarray:
    """Energy gradient plus the ramp's df at node 0 (per member of a stack)."""
    grad = energy_gradient(chart, loop)
    grad[..., 0, :] += penalty_coordinate_grad(chart, schedule, alpha, loop.basepoint)
    return grad


def corner_residual(chart: Chart, schedule: PenaltySchedule, alpha: int,
                    loop: DiscreteLoop, grad_tol: float = 1e-3) -> np.ndarray:
    """Velocity-jump defect at the basepoint: v(0-) - v(0+) + 1/2 grad f_alpha.

    The first variation of E + f(gamma(0)) with E = integral g(gd, gd) dt
    gives the boundary term 2 g(v(0-) - v(0+), .) + df(.), so a critical
    point has velocity jump -1/2 grad f (antiparallel to the penalty
    gradient; a jump equal to +grad f is stationary for no normalization
    of E).  One-sided velocities come from the adjacent chords with their
    second-order covariant correction (the chord approximates the velocity
    at the segment midpoint, not at the node).  The residual tends to zero
    under node refinement exactly at critical points, and identically for
    smooth closed geodesics off the penalty support.
    """
    validate_loop(chart, loop)
    n = loop.n_nodes
    gnorm = float(np.linalg.norm(penalized_gradient(chart, schedule, alpha, loop))) / n
    if gnorm > grad_tol:
        warnings.warn(
            f"corner residual of a non-critical loop (scaled gradient {gnorm:.2e}); "
            "the value is computed but not meaningful",
            stacklevel=2,
        )
    v_minus, v_plus = one_sided_velocities(chart, loop)
    grad_f, _ = penalty_gradient_and_hessian(chart, schedule, alpha, loop.basepoint)
    return (v_minus - v_plus) + 0.5 * grad_f


@dataclass(frozen=True)
class Classification:
    """Outcome of the genuine-vs-penalized dichotomy for one critical point.

    ``case`` is "genuine" when the ramp gradient at the basepoint is
    unresolved at the acceptance level: its share of the preconditioned
    gradient norm, ``ramp_gradient_norm``, is at most ``acceptance_level``
    (see ``classify_critical_point``).  Otherwise it is
    "penalty_supported".  ``basepoint_excess`` is r - R_alpha at the
    basepoint (None on compact charts); with the level and the ramp share
    it lets every verdict be audited.
    """

    case: str                      # "genuine" | "penalty_supported"
    penalty_at_basepoint: float
    separation_checked: bool
    containment_ok: bool | None    # None when the separation condition was not checkable
    basepoint_excess: float | None
    acceptance_level: float
    ramp_gradient_norm: float


def classify_critical_point(chart: Chart, schedule: PenaltySchedule, alpha: int,
                            loop: DiscreteLoop, ell: float,
                            k_radius: float | None = None,
                            acceptance_level: float = 0.0) -> Classification:
    """Genuine closed geodesic vs penalty-supported corner point.

    ``acceptance_level`` is the preconditioned gradient level tau at which
    the caller accepted the loop as critical: |g|_M <= tau for the
    penalized gradient g = g_E + g_f (energy part plus the ramp's df at
    node 0).  The default 0 is for a loop known to be exactly critical.
    The basepoint counts as off the penalty support when the ramp gradient
    is unresolved at that level,

        |g_f|_M = |df| * sqrt((M^-1)_00) <= tau,

    measured in the norm ``descend`` thresholds.  M is circulant, so
    (M^-1)_00 = (1/N) sum_k 1/lambda_k for every node; it tends to the
    H^1 Green's function of the unit circle at 0, coth(1/2)/2 = 1.082
    (1.0816 already at N = 16).  Then |g_E|_M <= |g|_M + |g_f|_M <= 2 tau:
    the loop is critical for the unpenalized energy at the descent's own
    resolution, so it is a genuine closed geodesic or constant loop.  With
    |df| = 3 c eps^2 |dr| on the cubic ramp, the excess eps = r - R_alpha
    read as off the support is

        eps <= sqrt(tau / (3 c |dr| sqrt((M^-1)_00))),

    (|dr| = 1 for the radial exhaustion of the plane).  A true corner point
    balances an O(1) ramp gradient against the velocity jump and lies far
    outside this band.

    The margin for a constant loop that creeps down the ramp is thin by
    construction: once its shape settles, the energy gradient cancels all
    but the mean mode of g_f, whose M-norm is |df| (the k = 0 term of the
    sum above; exactly so where the energy is translation invariant and its
    gradient has zero mean, as on the plane).  Its total gradient is then |df| while the ramp share is
    sqrt((M^-1)_00) |df| = 1.04 |df|, so the loop reads "genuine" only if
    the descent stopped below tau / 1.04; the reported excess, level and
    ramp share show how close each call was.

    On the support, when the schedule separates it from the ball
    {r <= k_radius} by more than ell (each exhaustion in the zoo is
    1-Lipschitz, so radius difference bounds distance from below), the
    whole loop must stay outside that ball; that containment is asserted
    node by node.  Without a k_radius the classification is returned with
    the containment unchecked.
    """
    if acceptance_level < 0:
        raise ValueError("acceptance_level must be >= 0")
    excess = (None if chart.compact
              else float(chart.exhaustion(loop.basepoint)) - schedule.radius(alpha))
    g_f = np.zeros_like(loop.nodes, dtype=float)
    g_f[0] = penalty_coordinate_grad(chart, schedule, alpha, loop.basepoint)
    ramp = preconditioned_norm(g_f)
    audit = {
        "penalty_at_basepoint": penalty_value(chart, schedule, alpha, loop.basepoint),
        "basepoint_excess": excess,
        "acceptance_level": float(acceptance_level),
        "ramp_gradient_norm": ramp,
    }
    if ramp <= acceptance_level:
        return Classification("genuine", separation_checked=False, containment_ok=None, **audit)
    if k_radius is None or schedule.radius(alpha) - k_radius <= ell:
        return Classification("penalty_supported", separation_checked=False,
                              containment_ok=None, **audit)
    r_nodes = chart.exhaustion(loop.nodes)
    return Classification("penalty_supported", separation_checked=True,
                          containment_ok=bool(np.all(r_nodes > k_radius)), **audit)
