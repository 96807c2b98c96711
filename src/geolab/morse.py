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

Iterates are never assembled: by Bott's formula the inertia of the m-fold
iterate is the sum over omega^m = 1 of that of the N-node Hessian whose
wrap-around block is twisted by omega (see ``iteration_table``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .charts import Chart, christoffels, curvature_operator
from .errors import CrossCheckError
from .jacobi import (
    UNIT_TOL,
    ConjugateReport,
    eigenspace_dimension,
    is_moving,
    outgoing_orbit,
    shoot_closed_orbit,
)
from .loops import DiscreteLoop, energy_gradient, validate_loop
from .penalty import (
    PenaltySchedule,
    penalty_coordinate_hess,
    penalty_gradient_and_hessian,
    penalized_gradient,
)

ZERO_BAND_SCALE = 1e-6


@dataclass
class SecondVariation:
    """Symmetric dN x dN Hessian over nodal fields (Hermitian once twisted), with metadata."""

    matrix: np.ndarray
    method: str                    # "exact_discrete" | "continuum_quadrature"
    n_nodes: int
    dim: int
    alpha: int | None = None
    gradient_norm: float = 0.0
    critical: bool = True          # False: spectrum computed, indices not trustworthy


@dataclass
class SpectralReport:
    """Index/nullity bookkeeping for one critical point."""

    index: int
    nullity: int
    zero_band: float
    eigenvalues: np.ndarray        # sorted, continuum normalization
    ambiguous: bool

    @property
    def positive_count(self) -> int:
        return self.eigenvalues.size - self.index - self.nullity


def _second_deriv_blocks(chart: Chart, loop: DiscreteLoop, deltas: np.ndarray):
    """Per-segment Hessian blocks of Q_i = Delta^T g(m_i) Delta.

    Returns (H_aa, H_ab, H_bb) with shapes (N, d, d); indices k, l are the
    derivative slots on the segment's tail node a = x_i and head node
    b = x_{i+1}.
    """
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


def _quadrature_blocks(chart: Chart, loop: DiscreteLoop, deltas: np.ndarray):
    """Per-segment blocks of the covariant quadrature form (scaled by 1/N)."""
    n = loop.n_nodes
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
    deltas = validate_loop(chart, loop)
    n, d = loop.n_nodes, loop.dim
    if method == "exact_discrete":
        h_aa, h_ab, h_bb = _second_deriv_blocks(chart, loop, deltas)
        scale = float(n)
    elif method == "continuum_quadrature":
        h_aa, h_ab, h_bb = _quadrature_blocks(chart, loop, deltas)
        scale = 1.0
    else:
        raise ValueError(f"unknown assembly method {method!r}")

    idx, nxt = np.arange(n), np.roll(np.arange(n), -1)
    h = np.zeros((n, d, n, d))
    h[idx, :, idx, :] = h_aa + np.roll(h_bb, 1, axis=0)
    h[idx, :, nxt, :] = h_ab
    h[nxt, :, idx, :] = np.swapaxes(h_ab, -1, -2)
    h = scale * h.reshape(n * d, n * d)

    if schedule is not None and alpha is not None:
        gnorm = float(np.linalg.norm(penalized_gradient(chart, schedule, alpha, loop)))
        if method == "exact_discrete":
            h[:d, :d] += penalty_coordinate_hess(chart, schedule, alpha, loop.basepoint)
        else:
            _, hess_cov = penalty_gradient_and_hessian(chart, schedule, alpha, loop.basepoint)
            h[:d, :d] += hess_cov
    else:
        gnorm = float(np.linalg.norm(energy_gradient(chart, loop)))
    h = 0.5 * (h + h.T)
    return SecondVariation(
        matrix=h, method=method, n_nodes=n, dim=d, alpha=alpha,
        gradient_norm=gnorm, critical=bool(gnorm < 1e-3 * n),
    )


def twisted_hessian(sv: SecondVariation, omega: complex) -> SecondVariation:
    """Hermitian ``sv`` on fields with xi_{k+N} = omega xi_k, |omega| = 1: block
    (N-1, 0) times omega, block (0, N-1) times conj(omega); omega = 1 is ``sv``."""
    if omega == 1:
        return sv
    k, d = (sv.n_nodes - 1) * sv.dim, sv.dim
    h = sv.matrix.astype(complex)
    h[k:, :d] *= omega
    h[:d, k:] *= np.conj(omega)
    return replace(sv, matrix=h)


def index_and_nullity(sv: SecondVariation, zero_band: float | None = None) -> SpectralReport:
    """Inertia counts from a full Hermitian eigensolve.

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
    return SpectralReport(
        index=index, nullity=nullity, zero_band=band, eigenvalues=eigs, ambiguous=ambiguous,
    )


# ---------------------------------------------------------------------------
# cross-checks
# ---------------------------------------------------------------------------


def outgoing_conjugate_report(chart: Chart, loop: DiscreteLoop) -> tuple:
    """Conjugate points on (0, 1] along the loop's ``outgoing_orbit``, and that
    orbit.  A loop not ``is_moving`` gets an empty report and no orbit (None):
    its first conjugate time, at least pi / (|v| sqrt(K_max)), is beyond 1."""
    if not is_moving(chart, loop):
        return ConjugateReport(t=1.0), None
    orbit = outgoing_orbit(chart, loop)
    return orbit.conjugate_report(), orbit


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

    The two numbers come from independent routes (pinned eigensolve vs the
    Prufer-angle count along the shot closed orbit, ``report``) and must
    agree; a mismatch is a hard failure of one of the two subsystems.
    """
    cp_open = report.count_open()
    idx = pinned_index(sv)
    if idx != cp_open:
        raise CrossCheckError(
            f"Dirichlet index {idx} != open-interval conjugate count {cp_open}"
        )
    return {"dirichlet_index": idx, "cp_open": cp_open,
            "conjugate_times": report.times}


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


def bott_table(chart: Chart, loop: DiscreteLoop, m_max: int = 6) -> dict:
    """``iteration_table`` of a closed geodesic, shot once from its ``outgoing_orbit``."""
    return_map = shoot_closed_orbit(chart, loop, outgoing_orbit(chart, loop)).return_map()
    return iteration_table(chart, loop, return_map, m_max)


def iteration_table(chart: Chart, loop: DiscreteLoop, return_map: np.ndarray,
                    m_max: int = 6) -> dict:
    """Bott iteration table: index/nullity of the m-fold iterates, m <= m_max.

    The exact Hessian of the iterate is block-circulant, so (Bott's formula)
    ind_m and nul_m are the sums over omega^m = 1 of the inertia of the
    N-node Hessian twisted by omega (``twisted_hessian``), which is
    assembled once.  Each omega is solved once (omega and its conjugate
    share a solve), and its nullity must equal dim ker(P - omega Id) for the
    return map P.  The mean index ibar, the average of ind_omega over the
    circle, is exact from one solve per arc between the unit-circle
    eigenvalue angles of P (angles within ``UNIT_TOL`` of 0, pi or each
    other are one cut).  The iteration bounds are checked without slack:

        m ibar - dim <= ind_m <= m ibar + dim - nul_m
    """
    sv = assemble_second_variation(chart, loop)
    solved: dict[float, SpectralReport] = {}  # by turn t in [0, 1/2]: omega = e^{2 pi i t}

    def twisted(turn: float) -> SpectralReport:
        if turn not in solved:
            omega = np.exp(2j * np.pi * turn)
            spec = index_and_nullity(twisted_hessian(sv, omega))
            nul_mono = eigenspace_dimension(return_map, omega)
            if spec.nullity != nul_mono:
                raise CrossCheckError(f"omega = exp(2 pi i {turn}): spectral nullity "
                                      f"{spec.nullity} != return-map nullity {nul_mono}")
            solved[turn] = spec
        return solved[turn]

    eigs = np.linalg.eigvals(return_map)
    cuts = [0.0]
    for angle in np.sort(np.abs(np.angle(eigs[np.abs(np.abs(eigs) - 1) < UNIT_TOL]))):
        if angle - cuts[-1] > UNIT_TOL and np.pi - angle > UNIT_TOL:
            cuts.append(float(angle))
    cuts.append(np.pi)
    arc_index = [twisted((a + b) / (4 * np.pi)).index for a, b in zip(cuts, cuts[1:])]
    # ind_omega on the first arc plus each jump weighted by the share of the
    # half circle beyond it: exact when ind_omega is constant
    mean = arc_index[0] + sum((hi - lo) * (np.pi - c) / np.pi
                              for lo, hi, c in zip(arc_index, arc_index[1:], cuts[1:]))

    rows = []
    for m in range(1, m_max + 1):
        # division rounds correctly, so equal fractions give one key
        specs = [twisted(min(k, m - k) / m) for k in range(m)]
        ind = sum(s.index for s in specs)
        nul = sum(s.nullity for s in specs)
        lower, upper = m * mean - chart.dim, m * mean + chart.dim - nul
        rows.append({"m": m, "index": ind, "nullity": nul,
                     "ambiguous": any(s.ambiguous for s in specs),
                     "lower": float(lower), "upper": float(upper),
                     "bounds_ok": bool(lower <= ind <= upper)})
    nullities = sorted({r["nullity"] for r in rows})
    return {
        "rows": rows,
        "mean_index": float(mean),
        "bounds_ok": all(r["bounds_ok"] for r in rows),
        "nullity_partition": {str(n): [r["m"] for r in rows if r["nullity"] == n]
                              for n in nullities},
    }
