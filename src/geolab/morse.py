"""Second variation of the (penalized) energy: index, nullity, iteration checks.

Two independent assemblies of the dN x dN Hessian over nodal vector fields
are kept permanently as mutual oracles:

* ``exact_discrete`` - the analytic second derivative of the discrete
  energy (the default; matches finite differences of the gradient);
* ``continuum_quadrature`` - midpoint quadrature of the covariant
  second-variation form  integral[ g(Dxi, Deta) - g(R(xi, w)w, eta) ] dt
  plus the covariant penalty Hessian at the basepoint.

Eigenvalues are reported in continuum normalization (matrix eigenvalue
times the node count), which makes them mesh-independent approximations of
the second-variation spectrum; the default zero band is 1e-6 times the
reported spectral radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .charts import Chart, TangentVector, christoffels, curvature_operator
from .errors import CrossCheckError
from .jacobi import (
    ConjugateReport,
    conjugate_points,
    fixed_space_dimension,
    shoot_closed_orbit,
)
from .loops import (
    DiscreteLoop,
    iterate,
    one_sided_velocities,
    segment_deltas,
    validate_loop,
)
from .penalty import (
    PenaltySchedule,
    penalty_coordinate_hess,
    penalty_gradient_and_hessian,
    penalized_gradient,
)

ZERO_BAND_SCALE = 1e-6


@dataclass
class SecondVariation:
    """Symmetric dN x dN Hessian over nodal fields, with assembly metadata."""

    matrix: np.ndarray
    method: str                    # "exact_discrete" | "continuum_quadrature"
    n_nodes: int
    dim: int
    alpha: int | None = None
    gradient_norm: float = 0.0
    critical: bool = True          # False: spectrum computed, indices not trustworthy

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


@dataclass
class SpectralReport:
    """Index/nullity bookkeeping for one critical point."""

    index: int
    nullity: int
    zero_band: float
    eigenvalues: np.ndarray        # sorted, continuum normalization
    ambiguous: bool
    nearest_to_band: list = field(default_factory=list)

    @property
    def positive_count(self) -> int:
        return self.eigenvalues.size - self.index - self.nullity


def _second_deriv_blocks(chart: Chart, loop: DiscreteLoop):
    """Per-segment Hessian blocks of Q_i = Delta^T g(m_i) Delta.

    Returns (H_aa, H_ab, H_bb) with shapes (N, d, d); indices k, l are the
    derivative slots on the segment's tail node a = x_i and head node
    b = x_{i+1}.
    """
    deltas = segment_deltas(chart, loop)
    mids = loop.nodes + 0.5 * deltas
    g = chart.metric(mids)
    dg = chart.metric_deriv(mids)
    d2g = chart.metric_second_deriv(mids)
    # (d_l g D)_k and the quadratic-in-D second-derivative contraction
    dgd = np.einsum("nlkj,nj->nlk", dg, deltas)          # [n, l, k]
    quad = 0.25 * np.einsum("nklij,ni,nj->nkl", d2g, deltas, deltas)
    sym = np.swapaxes(dgd, -1, -2) + dgd                 # (d_l g D)_k + (d_k g D)_l
    h_aa = 2.0 * g - sym + quad
    h_bb = 2.0 * g + sym + quad
    h_ab = -2.0 * g - np.swapaxes(dgd, -1, -2) + dgd + quad
    return h_aa, h_ab, h_bb


def _quadrature_blocks(chart: Chart, loop: DiscreteLoop):
    """Per-segment blocks of the covariant quadrature form (scaled by 1/N)."""
    n = loop.n_nodes
    deltas = segment_deltas(chart, loop)
    mids = loop.nodes + 0.5 * deltas
    w = n * deltas
    g = chart.metric(mids)
    gam = christoffels(chart, mids)
    gw = np.einsum("nkij,ni->nkj", gam, w)               # Gamma(w, .)
    eye = np.eye(loop.dim)
    a = -n * eye + 0.5 * gw
    b = n * eye + 0.5 * gw
    m_r = g @ curvature_operator(chart, mids, w)
    rsym = 0.5 * (m_r + np.swapaxes(m_r, -1, -2))
    h_aa = (np.einsum("nki,nkl,nlj->nij", a, g, a) - 0.25 * rsym) / n
    h_ab = (np.einsum("nki,nkl,nlj->nij", a, g, b) - 0.25 * rsym) / n
    h_bb = (np.einsum("nki,nkl,nlj->nij", b, g, b) - 0.25 * rsym) / n
    return h_aa, h_ab, h_bb


def assemble_second_variation(chart: Chart, loop: DiscreteLoop,
                              schedule: PenaltySchedule | None = None,
                              alpha: int | None = None,
                              method: str = "exact_discrete") -> SecondVariation:
    """Assemble the Hessian of the (penalized) discrete energy at a loop.

    The loop should be a converged critical point; otherwise the spectrum
    is still assembled but flagged non-critical.
    """
    validate_loop(chart, loop)
    n, d = loop.n_nodes, loop.dim
    if method == "exact_discrete":
        h_aa, h_ab, h_bb = _second_deriv_blocks(chart, loop)
        scale = float(n)
    elif method == "continuum_quadrature":
        h_aa, h_ab, h_bb = _quadrature_blocks(chart, loop)
        scale = 1.0
    else:
        raise ValueError(f"unknown assembly method {method!r}")

    h = np.zeros((n, d, n, d))
    idx = np.arange(n)
    nxt = (idx + 1) % n
    for i in range(n):
        j = nxt[i]
        h[i, :, i, :] += h_aa[i]
        h[j, :, j, :] += h_bb[i]
        h[i, :, j, :] += h_ab[i]
        h[j, :, i, :] += h_ab[i].T
    h = scale * h.reshape(n * d, n * d)

    if schedule is not None and alpha is not None:
        if method == "exact_discrete":
            h[:d, :d] += penalty_coordinate_hess(chart, schedule, alpha, loop.basepoint)
        else:
            _, hess_cov = penalty_gradient_and_hessian(chart, schedule, alpha, loop.basepoint)
            h[:d, :d] += hess_cov

    h = 0.5 * (h + h.T)

    if schedule is not None and alpha is not None:
        gnorm = float(np.linalg.norm(penalized_gradient(chart, schedule, alpha, loop)))
    else:
        from .loops import energy_gradient
        gnorm = float(np.linalg.norm(energy_gradient(chart, loop)))
    return SecondVariation(
        matrix=h, method=method, n_nodes=n, dim=d, alpha=alpha,
        gradient_norm=gnorm, critical=bool(gnorm < 1e-3 * n),
    )


def index_and_nullity(sv: SecondVariation, zero_band: float | None = None) -> SpectralReport:
    """Inertia counts from a full symmetric eigensolve.

    Eigenvalues are reported as N times the matrix eigenvalues (continuum
    normalization); the default band is 1e-6 times the reported spectral
    radius.  Eigenvalues within a factor 10 of the band edge raise the
    ambiguity flag - the caller should refine N, not trust the counts.
    """
    eigs = np.linalg.eigvalsh(sv.matrix) * sv.n_nodes
    radius = float(np.max(np.abs(eigs))) if eigs.size else 0.0
    band = zero_band if zero_band is not None else ZERO_BAND_SCALE * radius
    if band <= 0:
        raise ValueError("zero band must be positive")
    index = int(np.sum(eigs < -band))
    nullity = int(np.sum(np.abs(eigs) <= band))
    mags = np.abs(eigs)
    ambiguous = bool(np.any((mags >= band / 10) & (mags <= band * 10)))
    nearest = eigs[np.argsort(np.abs(mags - band))[:3]]
    return SpectralReport(
        index=index, nullity=nullity, zero_band=band, eigenvalues=eigs,
        ambiguous=ambiguous, nearest_to_band=[float(x) for x in nearest],
    )


# ---------------------------------------------------------------------------
# cross-checks
# ---------------------------------------------------------------------------


def outgoing_conjugate_report(chart: Chart, loop: DiscreteLoop,
                              steps: int = 512) -> ConjugateReport:
    """Conjugate points on (0, 1] along the geodesic shot from the basepoint
    with the outgoing velocity v_+; empty for a stationary loop (trivial flow)."""
    _, v_plus = one_sided_velocities(chart, loop)
    if float(np.linalg.norm(v_plus)) < 1e-8:
        return ConjugateReport(t=1.0)
    return conjugate_points(chart, TangentVector(loop.basepoint, v_plus), 1.0, steps)


def pinned_index(sv: SecondVariation, zero_band: float | None = None) -> int:
    """Negative inertia of the basepoint-pinned block of an assembled Hessian;
    the penalty only enters the basepoint block, so this is the Dirichlet index."""
    pinned = replace(sv, matrix=sv.matrix[sv.dim:, sv.dim:])
    return index_and_nullity(pinned, zero_band).index


def dirichlet_index(chart: Chart, loop: DiscreteLoop, zero_band: float | None = None) -> int:
    """Negative inertia of the basepoint-pinned (Dirichlet) second variation."""
    return pinned_index(assemble_second_variation(chart, loop), zero_band)


def based_index_verdict(report: ConjugateReport, sv: SecondVariation) -> dict:
    """Dirichlet index of ``sv`` against the open-interval count of ``report``.

    The two numbers are computed by entirely independent routes (pinned
    eigensolve vs zeros of det B along the shot geodesic) and must agree;
    a mismatch is a hard failure of one of the two subsystems.
    """
    cp_open = report.count_open(1.0)
    idx = pinned_index(sv)
    if idx != cp_open:
        raise CrossCheckError(
            f"Dirichlet index {idx} != open-interval conjugate count {cp_open}"
        )
    return {"dirichlet_index": idx, "cp_open": cp_open,
            "conjugate_times": [[float(s), int(mu)] for s, mu in report.times]}


def based_index_cross_check(chart: Chart, loop: DiscreteLoop, steps: int = 512) -> dict:
    """Dirichlet index against the open-interval conjugate count along v_+."""
    return based_index_verdict(outgoing_conjugate_report(chart, loop, steps),
                               assemble_second_variation(chart, loop))


def lemma_verdict(report: ConjugateReport, spec: SpectralReport, dim: int) -> dict:
    """Check ind + nul <= dim of ``spec`` whenever the outgoing conjugate
    ``report`` has cp_1 = 0.  Verdicts: "pass", "fail", "not_applicable" (cp_1 > 0).
    """
    cp1 = report.count
    if cp1 == 0:
        verdict = "pass" if spec.index + spec.nullity <= dim else "fail"
    else:
        verdict = "not_applicable"
    return {
        "cp1": int(cp1),
        "index": spec.index,
        "nullity": spec.nullity,
        "dim": dim,
        "verdict": verdict,
    }


def lemma_index_bound_check(chart: Chart, loop: DiscreteLoop,
                            schedule: PenaltySchedule | None = None,
                            alpha: int | None = None, steps: int = 512,
                            zero_band: float | None = None) -> dict:
    """The index bound of ``lemma_verdict`` for a loop, assembled from scratch."""
    report = outgoing_conjugate_report(chart, loop, steps)
    spec = index_and_nullity(assemble_second_variation(chart, loop, schedule, alpha),
                             zero_band)
    return lemma_verdict(report, spec, chart.dim)


def bott_table(chart: Chart, loop: DiscreteLoop, m_max: int = 6,
               rank_threshold: float = 1e-4, steps: int = 512,
               slack: float = 0.05) -> dict:
    """``iteration_table`` of a closed geodesic, whose orbit is shot once:
    every iterate's return-map nullity is read off that one return map."""
    return_map = shoot_closed_orbit(chart, loop, steps).return_map()
    return iteration_table(chart, loop, return_map, m_max, rank_threshold, slack)


def iteration_table(chart: Chart, loop: DiscreteLoop, return_map: np.ndarray,
                    m_max: int = 6, rank_threshold: float = 1e-4,
                    slack: float = 0.05) -> dict:
    """Iteration table: spectral index/nullity of the m-fold iterates.

    For each m <= m_max the iterate's spectrum is assembled on its own
    mN-node discretization (no iteration-theory shortcut) and the spectral
    nullity must equal dim ker(P^m - Id) for the loop's linearized return
    map P; disagreement is a hard failure.  The average index is estimated
    two ways (least-squares slope through (m, ind) and the endpoint ratio)
    and the two-sided iteration bounds

        m ibar - dim <= ind_m <= m ibar + dim - nul_m

    are checked with the slope estimate and +-``slack`` slack on ibar.
    """
    rows = []
    for m in range(1, m_max + 1):
        it_loop = iterate(loop, m)
        sv = assemble_second_variation(chart, it_loop)
        spec = index_and_nullity(sv)
        nul_mono = fixed_space_dimension(return_map, m, rank_threshold)
        if spec.nullity != nul_mono:
            raise CrossCheckError(
                f"m={m}: spectral nullity {spec.nullity} != return-map nullity {nul_mono}"
            )
        rows.append({"m": m, "index": spec.index, "nullity": spec.nullity,
                     "nullity_monodromy": nul_mono, "ambiguous": spec.ambiguous})

    ms = np.array([r["m"] for r in rows], dtype=float)
    inds = np.array([r["index"] for r in rows], dtype=float)
    slope = float(np.polyfit(ms, inds, 1)[0]) if m_max > 1 else float(inds[0])
    ratio = float(inds[-1] / ms[-1])
    d = chart.dim
    ok = True
    for r in rows:
        m, ind, nul = r["m"], r["index"], r["nullity"]
        lower = m * (slope - slack) - d
        upper = m * (slope + slack) + d - nul
        r["lower"] = lower
        r["upper"] = upper
        r["bounds_ok"] = bool(lower <= ind <= upper)
        r["right_equality"] = bool(abs(ind - (m * slope + d - nul)) < slack * m + 1e-9)
        ok = ok and r["bounds_ok"]

    partition: dict[int, list[int]] = {}
    for r in rows:
        partition.setdefault(r["nullity"], []).append(r["m"])
    return {
        "rows": rows,
        "average_index_slope": slope,
        "average_index_ratio": ratio,
        "bounds_ok": ok,
        "nullity_partition": {str(k): v for k, v in sorted(partition.items())},
    }
