"""Linearized geodesic flow: Jacobi fields, monodromy, conjugate points.

Along a geodesic we carry a g-orthonormal frame by parallel transport; in
that frame the Jacobi equation becomes the linear system

    xi'' + Rt(s) xi = 0,     Rt_ab(s) = g( R(e_b, v) v, e_a ),

with Rt symmetric.  The fundamental solution Phi(s) of the first-order form
is symplectic; its upper-right d x d block B(s) propagates purely vertical
initial conditions (xi(0) = 0), so conjugate points are the zeros of
det B(s), with multiplicity dim ker B(s).

For a closed geodesic, expressing the time-1 fundamental matrix in a single
basis (undoing the holonomy of the frame) produces the linearized return
map P; the nullity of the m-fold iterate is the kernel dimension of
P^m - Id, the sum of dim ker(P - omega Id) over omega^m = 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .charts import (
    Chart,
    TangentVector,
    _integrate,
    christoffels,
    curvature_operator,
    metric_speed,
    sectional_curvature,
)
from .errors import (
    DegenerateIntervalError,
    GeolabError,
    NotAGeodesicError,
    SamplingStarvationError,
)
from .loops import DiscreteLoop, one_sided_velocities

DET_ENDPOINT_REL = 1e-7     # |det B(t)| below this (relative) counts the endpoint
DET_TANGENT_REL = 1e-8      # local minima of |det B| hunted below this (relative)
TIME_TOL = 1e-6
UNIT_TOL = 1e-4             # an eigenvalue this close to a unit root omega counts as omega


def symplectic_defect(m: np.ndarray) -> float:
    """max |M^T J M - J| of a 2d x 2d matrix: zero for a symplectic M."""
    d = len(m) // 2
    j = np.block([[np.zeros((d, d)), np.eye(d)], [-np.eye(d), np.zeros((d, d))]])
    return float(np.max(np.abs(m.T @ j @ m - j)))


@dataclass
class MonodromyMatrix:
    """Fundamental Jacobi solution over [0, t] in a parallel orthonormal frame.

    ``matrix`` maps (xi(0), D xi(0)) frame components to (xi(t), D xi(t))
    frame components; ``frame0``/``frame1`` hold the frame vectors (columns,
    chart components) at the two ends.
    """

    matrix: np.ndarray
    frame0: np.ndarray
    frame1: np.ndarray
    start: TangentVector
    end: TangentVector
    t: float

    @property
    def dim(self) -> int:
        return self.frame0.shape[0]

    @property
    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        d = self.dim
        m = self.matrix
        return m[:d, :d], m[:d, d:], m[d:, :d], m[d:, d:]

    def symplectic_defect(self) -> float:
        return symplectic_defect(self.matrix)

    def return_map(self) -> np.ndarray:
        """Time-t differential in the fixed frame at the start point.

        Only meaningful when the orbit closes up; the frame holonomy
        T = frame0^{-1} frame1 is undone blockwise.
        """
        t = np.linalg.solve(self.frame0, self.frame1)
        d = self.dim
        conj = np.zeros((2 * d, 2 * d))
        conj[:d, :d] = t
        conj[d:, d:] = t
        return conj @ self.matrix


@dataclass
class ConjugateReport:
    """Conjugate times in (0, t] with multiplicities; count is the total."""

    times: list = field(default_factory=list)   # list of (s, multiplicity)
    t: float = 0.0

    def __post_init__(self):
        ss = [s for s, _ in self.times]
        if any(b <= a for a, b in zip(ss, ss[1:])):
            raise ValueError("conjugate times must be strictly increasing")

    @property
    def count(self) -> int:
        return sum(m for _, m in self.times)

    def count_open(self, t_end: float | None = None, tol: float = 1e-3) -> int:
        """Total multiplicity on the open interval (0, t_end).

        The exclusion margin matches the time resolution of a shot
        geodesic extracted from a discrete loop (O(1/N^2) wander of a
        conjugate time sitting exactly at the endpoint).
        """
        t_end = self.t if t_end is None else t_end
        return sum(m for s, m in self.times if s < t_end - tol)


def orthonormal_frame(chart: Chart, x: np.ndarray, v: np.ndarray | None = None) -> np.ndarray:
    """g-orthonormal frame at x (columns); first vector along v when given."""
    d = chart.dim
    g = chart.metric(x)
    candidates = []
    if v is not None and np.linalg.norm(v) > 0:
        candidates.append(np.asarray(v, dtype=float))
    candidates.extend(np.eye(d))
    cols = []
    for c in candidates:
        w = c.copy()
        for e in cols:
            w = w - (e @ g @ w) * e
        nrm2 = w @ g @ w
        if nrm2 > 1e-20:
            cols.append(w / np.sqrt(nrm2))
        if len(cols) == d:
            break
    return np.stack(cols, axis=1)


def _jacobi_rhs(chart: Chart, x, v, e, phi):
    d = chart.dim
    gam = christoffels(chart, x)
    gam_v = -np.einsum("...kij,...i->...kj", gam, v)      # -Gamma(v, .)
    acc = (gam_v @ v[..., None])[..., 0]
    de = gam_v @ e
    g = chart.metric(x)
    rop = curvature_operator(chart, x, v)
    rt = e.swapaxes(-1, -2) @ g @ rop @ e
    rt = 0.5 * (rt + rt.swapaxes(-1, -2))
    dphi = np.empty_like(phi)
    dphi[..., :d, :] = phi[..., d:, :]
    dphi[..., d:, :] = -rt @ phi[..., :d, :]
    return v, acc, de, dphi


def _integrate_jacobi(chart: Chart, start: TangentVector, t: float, steps: int,
                      initial_frame: np.ndarray | None = None):
    """Grid integration of (x, v, frame, Phi) from one start or a batch of starts.

    One start (base and velocity of shape (d,)) returns the per-step
    arrays x, v, e, Phi, each with leading axis steps+1, and raises
    DomainEscapeError with the exit time when the geodesic leaves the chart.
    A batch (shape (B, d); ``initial_frame`` (B, d, d) if given) is stepped
    as one state and returns the four arrays with leading axes (B, steps+1)
    plus the exit times (B,): inf for a member that stayed inside, n h when
    a stage point of step n left the chart and (n+1) h when its new point
    did.  A member's rows are NaN from its exit on.
    """
    d = chart.dim
    x = np.asarray(start.base, dtype=float)
    v = np.asarray(start.v, dtype=float)
    if initial_frame is not None:
        e = np.array(initial_frame, dtype=float)
    elif x.ndim > 1:
        e = np.array([orthonormal_frame(chart, xb, vb) for xb, vb in zip(x, v)])
    else:
        e = orthonormal_frame(chart, x, v)
    phi = np.broadcast_to(np.eye(2 * d), x.shape[:-1] + (2 * d, 2 * d))
    rhs = functools.partial(_jacobi_rhs, chart)
    return _integrate(chart, rhs, (x, v, e, phi), t, steps,
                      " during Jacobi propagation")


def jacobi_propagate(chart: Chart, start: TangentVector, t: float, steps: int = 512,
                     initial_frame: np.ndarray | None = None) -> MonodromyMatrix:
    """Fundamental Jacobi solution over [0, t] (columns = propagated basis ICs)."""
    if t <= 0:
        raise ValueError("t must be positive")
    xs, vs, es, phis = _integrate_jacobi(chart, start, t, steps, initial_frame)
    return MonodromyMatrix(
        matrix=phis[-1], frame0=es[0], frame1=es[-1],
        start=start, end=TangentVector(xs[-1], vs[-1]), t=t,
    )


def _refine_root(chart, grid_t, grid_state, k, steps_per_span=8):
    """Bisect a sign change of det B inside (grid_t[k], grid_t[k+1])."""
    d = chart.dim
    rhs = functools.partial(_jacobi_rhs, chart)
    state_k = tuple(a[k] for a in grid_state)

    def det_at(s):
        # bisection only probes s > grid_t[k]
        phi = _integrate(chart, rhs, state_k, s - grid_t[k], steps_per_span,
                         " during root refinement")[3][-1]
        b = phi[:d, d:]
        return np.linalg.det(b), b

    lo, hi = grid_t[k], grid_t[k + 1]
    flo = np.linalg.det(state_k[3][:d, d:])
    while hi - lo > TIME_TOL:
        mid = 0.5 * (lo + hi)
        fmid, _ = det_at(mid)
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    s_star = 0.5 * (lo + hi)
    _, b = det_at(s_star)
    return s_star, b


def _kernel_dim(b: np.ndarray, rank_threshold: float) -> int:
    sv = np.linalg.svd(b, compute_uv=False)
    scale = max(float(sv[0]), 1e-300)
    return int(np.sum(sv < rank_threshold * scale))


def conjugate_points(chart: Chart, start: TangentVector, t: float, steps: int = 512,
                     rank_threshold: float = 1e-4) -> ConjugateReport:
    """Locate conjugate times in (0, t] by zeros of det B(s).

    Sign changes are refined by bisection to time tolerance 1e-6;
    multiplicity is the numerical kernel dimension of B at the refined
    root.  Tangential zeros (no sign change) are hunted through local
    minima of |det B| below 1e-8 relative, and a root at the right endpoint
    is detected by |det B(t)| alone.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    d = chart.dim
    grid = _integrate_jacobi(chart, start, t, steps)
    return _scan_conjugate_points(chart, t, grid, np.linalg.det(grid[3][:, :d, d:]),
                                  rank_threshold)


def _scan_conjugate_points(chart: Chart, t: float, grid, dets: np.ndarray,
                           rank_threshold: float) -> ConjugateReport:
    """The scan of ``conjugate_points`` over an integrated grid and its det B(s)."""
    d = chart.dim
    phis = grid[3]
    steps = len(phis) - 1
    grid_t = np.linspace(0.0, t, steps + 1)
    scale = float(np.max(np.abs(dets)))
    if scale <= 0 or np.all(np.abs(dets[steps // 8:]) < 1e-12 * max(scale, 1e-300)):
        raise DegenerateIntervalError("det B(s) vanishes identically on the grid")
    found: list[tuple[float, int]] = []

    # guard against the trivial root at s = 0 (B(s) ~ s I near the start)
    s_min = max(2 * t / steps, 1e-9)

    for k in range(steps):
        if grid_t[k + 1] <= s_min:
            continue
        if dets[k] * dets[k + 1] < 0 and abs(dets[k + 1]) > DET_ENDPOINT_REL * scale * 1e-2:
            s_star, b = _refine_root(chart, grid_t, grid, k)
            mult = _kernel_dim(b, rank_threshold)
            if mult > 0:
                found.append((s_star, mult))
        elif (
            0 < k < steps
            and abs(dets[k]) < DET_TANGENT_REL * scale
            and abs(dets[k]) <= abs(dets[k - 1])
            and abs(dets[k]) <= abs(dets[k + 1])
            and dets[k - 1] * dets[k + 1] > 0
        ):
            b = phis[k][:d, d:]
            mult = _kernel_dim(b, rank_threshold)
            if mult > 0:
                found.append((grid_t[k], mult))

    # endpoint: a conjugate point exactly at s = t has no sign change to see
    if abs(dets[-1]) < DET_ENDPOINT_REL * scale:
        mult = _kernel_dim(phis[-1][:d, d:], rank_threshold)
        if mult > 0 and (not found or t - found[-1][0] > 10 * TIME_TOL):
            found.append((t, mult))

    # merge refined roots that collapsed to the same time
    merged: list[tuple[float, int]] = []
    for s, m in sorted(found):
        if merged and s - merged[-1][0] <= 10 * TIME_TOL:
            merged[-1] = (merged[-1][0], max(merged[-1][1], m))
        else:
            merged.append((s, m))
    return ConjugateReport(times=merged, t=t)


# ---------------------------------------------------------------------------
# closed-orbit machinery
# ---------------------------------------------------------------------------


def _chart_to_covariant(chart: Chart, x, v, e):
    """Block map taking chart-coordinate (dx, dv) to frame (xi, D xi)."""
    d = chart.dim
    einv = np.linalg.inv(e)
    gam = christoffels(chart, x)
    gv = np.einsum("kij,i->kj", gam, v)   # dv_cov = dv + Gamma(v, dx)
    out = np.zeros((2 * d, 2 * d))
    out[:d, :d] = einv
    out[d:, :d] = einv @ gv
    out[d:, d:] = einv
    return out


def refine_closed_orbit(chart: Chart, x0: np.ndarray, v0: np.ndarray, steps: int = 512,
                        max_iter: int = 8, tol: float = 1e-9) -> tuple[MonodromyMatrix, float]:
    """Gauss-Newton shooting that closes up an approximately periodic geodesic.

    Takes at most ``max_iter`` Gauss-Newton steps.  Returns the fundamental
    solution of the last shooting, whose ``start`` is the corrected initial
    condition, and the closure residual of that same shooting.  The
    linearization of the return map has the orbit's symmetry directions in
    its kernel, so the step uses a least-squares pseudo-inverse.
    """
    x0 = np.asarray(x0, dtype=float).copy()
    v0 = np.asarray(v0, dtype=float).copy()
    speed = max(metric_speed(chart, x0, v0), 1e-12)
    for it in range(max_iter + 1):
        mono = jacobi_propagate(chart, TangentVector(x0, v0), 1.0, steps)
        fx = chart.wrap_difference(mono.end.base - x0)
        fv = mono.end.v - v0
        f = np.concatenate([fx, fv])
        residual = float(np.linalg.norm(f))
        if residual < tol * speed or it == max_iter:
            return mono, residual
        a0 = _chart_to_covariant(chart, x0, v0, mono.frame0)
        a1 = _chart_to_covariant(chart, mono.end.base, mono.end.v, mono.frame1)
        dphi_chart = np.linalg.solve(a1, mono.matrix @ a0)
        jac = dphi_chart - np.eye(2 * chart.dim)
        step, *_ = np.linalg.lstsq(jac, -f, rcond=1e-8)
        x0 = x0 + step[: chart.dim]
        v0 = v0 + step[chart.dim:]


def eigenspace_dimension(p: np.ndarray, omega: complex, rank_threshold: float = 1e-4) -> int:
    """dim_C ker(p - omega Id), the geometric multiplicity of omega as an
    eigenvalue of p (0 when no eigenvalue lies within ``UNIT_TOL`` of it)."""
    if not np.any(np.abs(np.linalg.eigvals(p) - omega) < UNIT_TOL):
        return 0
    return _kernel_dim(p - np.real_if_close(omega) * np.eye(len(p)), rank_threshold)


def fixed_space_dimension(p: np.ndarray, m: int = 1, rank_threshold: float = 1e-4) -> int:
    """dim ker(p^m - Id): the sum of ``eigenspace_dimension`` over omega^m = 1.

    Working with p itself instead of its explicit m-th power keeps the
    count stable when p has strongly hyperbolic blocks, whose entries would
    otherwise swamp the singular-value scale of p^m - Id.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return sum(eigenspace_dimension(p, np.exp(2j * np.pi * k / m), rank_threshold)
               for k in range(m))


def shoot_closed_orbit(chart: Chart, loop: DiscreteLoop, steps: int = 512,
                       closure_tol: float = 1e-2) -> MonodromyMatrix:
    """The closed geodesic a genuine critical loop discretizes, shot once.

    Returns the last Gauss-Newton shooting (``return_map()`` is the orbit's
    linearized return map).  Raises NotAGeodesicError when the orbit refuses
    to close to ``closure_tol`` (relative to the speed) or wanders off.
    """
    v_minus, v_plus = one_sided_velocities(chart, loop)
    start = TangentVector(loop.basepoint, 0.5 * (v_minus + v_plus))
    mono, residual = refine_closed_orbit(chart, start.base, start.v, steps)
    x0, v0 = mono.start.base, mono.start.v
    speed = max(metric_speed(chart, x0, v0), 1e-12)
    speed0 = max(metric_speed(chart, start.base, start.v), 1e-12)
    moved = float(np.linalg.norm(chart.wrap_difference(x0 - start.base)))
    # the shooting must tighten the loop's own orbit, not wander off to a
    # different (e.g. constant) one
    if (residual > closure_tol * speed
            or moved > chart.segment_cap
            or abs(speed - speed0) > 0.2 * speed0):
        raise NotAGeodesicError(
            f"orbit refinement failed (residual {residual:.2e}, basepoint moved "
            f"{moved:.2e}, speed {speed0:.3g} -> {speed:.3g}); "
            "the loop is not a closed geodesic"
        )
    return mono


def nullity_via_monodromy(chart: Chart, loop: DiscreteLoop, m: int = 1,
                          rank_threshold: float = 1e-4, steps: int = 512,
                          closure_tol: float = 1e-2) -> int:
    """Kernel dimension of (return map)^m - Id for a genuine closed geodesic,
    read off the return map of one ``shoot_closed_orbit`` shooting."""
    mono = shoot_closed_orbit(chart, loop, steps, closure_tol)
    return fixed_space_dimension(mono.return_map(), m, rank_threshold)


# ---------------------------------------------------------------------------
# conjugate points at infinity
# ---------------------------------------------------------------------------


def close_conjugate_points_check(chart: Chart, ell: float, k_radius: float,
                                 n_samples: int = 100, seed: int = 0,
                                 sample_band: float | None = None,
                                 steps_per_unit: int = 32) -> dict:
    """Two-part probe of the region {r > k_radius} for a length budget ell.

    Part (a): sample sectional curvature (random points in the band plus
    deterministic points hugging the inner boundary) against the Rauch
    bound (pi/ell)^2.  Part (b): sample unit-speed geodesic segments of
    length ell whose trace stays in the region (leaving segments are
    discarded and resampled) and require empty conjugate reports.  The
    Rauch comparison direction says (a) passing forces (b) to pass; the
    report records both verdicts and their consistency.
    """
    if ell <= 0:
        raise ValueError("ell must be positive")
    if chart.compact:
        raise ValueError("the check needs a non-compact chart with an exhaustion")
    rng = np.random.default_rng(seed)
    band = sample_band if sample_band is not None else max(ell, 5.0)
    bound = (np.pi / ell) ** 2

    # part (a): curvature sampling
    kappas = []
    edge_offsets = np.linspace(1e-4, band, 9)[:5]
    points = []
    for off in edge_offsets:
        for _ in range(2):
            points.append(chart.sample_point(rng, k_radius + off * 0.999, k_radius + off))
    while len(points) < n_samples:
        points.append(chart.sample_point(rng, k_radius, k_radius + band))
    for x in points[:n_samples]:
        v = rng.standard_normal(chart.dim)
        w = rng.standard_normal(chart.dim)
        try:
            kappas.append(sectional_curvature(chart, x, v, w))
        except GeolabError:
            continue
    if not kappas:
        raise SamplingStarvationError(
            f"no curvature sample of {n_samples} in r > {k_radius} was admissible")
    max_kappa = float(np.max(kappas))
    part_a = bool(max_kappa < bound)

    # part (b): geodesic segment sampling, integrated in blocks of exactly
    # the segments still needed, so every integrated segment is counted
    hits = []
    checked = 0
    discarded = 0
    attempts = 0
    steps = max(64, int(np.ceil(steps_per_unit * ell)))
    d = chart.dim
    while checked < n_samples:
        block = min(n_samples - checked, 100 * n_samples - attempts)
        if block == 0:
            raise SamplingStarvationError(
                f"could not find {n_samples} segments staying in r > {k_radius} "
                f"after {attempts + 1} attempts"
            )
        attempts += block
        starts = []
        for _ in range(block):
            x = chart.sample_point(rng, k_radius, k_radius + band)
            v = rng.standard_normal(d)
            starts.append((x, v / max(metric_speed(chart, x, v), 1e-12)))
        xs, vs = (np.array(a) for a in zip(*starts))
        *grid, exit_time = _integrate_jacobi(chart, TangentVector(xs, vs), ell, steps)
        # escaped members hold NaN rows, which fail the comparison
        kept = np.isinf(exit_time) & np.all(chart.exhaustion(grid[0]) > k_radius, axis=1)
        discarded += block - int(np.count_nonzero(kept))
        checked += int(np.count_nonzero(kept))
        dets = np.linalg.det(grid[3][kept][..., :d, d:])
        s_min_idx = 2
        crossing = np.any(dets[:, s_min_idx:-1] * dets[:, s_min_idx + 1:] < 0, axis=1)
        endpoint = np.abs(dets[:, -1]) < DET_ENDPOINT_REL * np.max(np.abs(dets), axis=1)
        for i, j in enumerate(np.flatnonzero(kept)):
            if not (crossing[i] or endpoint[i]):
                continue
            # scan the grid just integrated: the same report conjugate_points
            # gives for this segment, without integrating it again
            member = tuple(a[j] for a in grid)
            report = _scan_conjugate_points(chart, ell, member, dets[i], 1e-4)
            if report.count > 0:
                hits.append({
                    "start": xs[j].tolist(),
                    "velocity": vs[j].tolist(),
                    "times": [[float(s), int(mu)] for s, mu in report.times],
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
