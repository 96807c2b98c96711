"""Second variation of the (penalized) energy: index, nullity, iteration checks.

Two independent assemblies of the Hessian over nodal vector fields, as its
d x d blocks (``SecondVariation``), are kept permanently as mutual oracles:

* ``exact_discrete`` - the analytic second derivative of the discrete
  energy (the default; matches finite differences of the gradient);
* ``continuum_quadrature`` - midpoint quadrature of the covariant
  second-variation form  integral[ g(Dxi, Deta) - g(R(xi, w)w, eta) ] dt
  plus the covariant penalty Hessian at the basepoint.

Eigenvalues are reported in continuum normalization (matrix eigenvalue
times the node count), which makes them mesh-independent approximations of
the second-variation spectrum; the zero band is 1e-6 times the reported
spectral radius.

Iterates are never assembled: by Bott's formula the inertia of the m-fold
iterate is the sum over omega^m = 1 of that of the N-node Hessian whose
wrap-around block is twisted by omega (see ``iteration_table``).
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .loops import DiscreteLoop, validate_loop
from .penalty import PenaltySchedule, penalty_coordinate_hess, penalty_gradient_and_hessian

ZERO_BAND_SCALE = 1e-6


@dataclass
class SecondVariation:
    """Cyclic block-tridiagonal Hessian over nodal fields as its blocks, with
    metadata: ``diag[k]`` = H[k, k], symmetric (the penalty is in block 0), and
    ``off[k]`` = A_k = H[k, k+1 mod N]; only ``dense`` knows the node-major layout."""

    diag: np.ndarray               # (N, d, d)
    off: np.ndarray                # (N, d, d)
    method: str                    # "exact_discrete" | "continuum_quadrature"
    alpha: int | None = None

    @property
    def n_nodes(self) -> int:
        return self.diag.shape[0]

    @property
    def dim(self) -> int:
        return self.diag.shape[-1]

    def dense(self, omega: complex = 1) -> np.ndarray:
        """Hermitian (Nd, Nd) matrix on node-major fields with xi_{k+N} = omega xi_k:
        block (N-1, 0) is omega A_{N-1}, block (0, N-1) its conjugate transpose."""
        n, d = self.n_nodes, self.dim
        idx, nxt = np.arange(n), np.roll(np.arange(n), -1)
        h = np.zeros((n, d, n, d), dtype=float if omega == 1 else complex)
        h[idx, :, idx, :] = self.diag
        h[idx, :, nxt, :] = self.off
        h[nxt, :, idx, :] = np.swapaxes(self.off, -1, -2)
        if omega != 1:
            h[-1, :, 0, :] *= omega
            h[0, :, -1, :] *= np.conj(omega)
        return h.reshape(n * d, n * d)


def positive_solve(sv: SecondVariation, rhs: np.ndarray) -> np.ndarray | None:
    """x (N, d) with ``sv.dense()`` x = ``rhs``, N >= 3, by odd-even reduction; None
    unless the matrix is positive definite above the elimination's rounding.

    Each level factors the odd nodes' pivot blocks (one batched Cholesky) and
    links the even nodes through them; an odd count keeps node n-1 linked to
    node 0 by its own block, and one node's matrix is D + A + A^T.  The matrix
    is positive definite exactly when every pivot block is (Haynsworth).  A
    scalar pivot is at least the smallest eigenvalue, so one within a Cholesky
    factorization's backward error n^2 eps max H_ii, n = Nd (Higham, Accuracy
    and Stability of Numerical Algorithms, Thm 10.3), is refused.
    """
    diag, off, r, levels = sv.diag, sv.off, rhs, []
    floor = rhs.size ** 2 * np.finfo(float).eps * np.diagonal(diag, 0, 1, 2).max()
    while True:
        n, m = len(diag), len(diag) // 2
        try:
            chol = np.linalg.cholesky(diag[1::2] if m else diag + off + np.swapaxes(off, 1, 2))
        except np.linalg.LinAlgError:
            return None
        if not np.diagonal(chol, 0, 1, 2).min() ** 2 > floor:
            return None
        inv = np.linalg.inv(chol)
        if not m:
            break
        # odd node 2i + 1 links even nodes i and right[i] of the next level
        right = np.arange(1, m + 1) % (n - m)
        u = inv @ np.swapaxes(off[:2 * m:2], 1, 2)           # L^-1 A_{2i}^T
        v = inv @ off[1::2]                                  # L^-1 A_{2i+1}
        w = inv @ r[1::2, :, None]
        levels.append((u, v, w, inv, right))
        diag, r = diag[::2].copy(), r[::2].copy()
        for k, z in ((slice(m), u), (right, v)):
            diag[k] -= np.swapaxes(z, 1, 2) @ z
            r[k] -= (np.swapaxes(z, 1, 2) @ w)[..., 0]
        off = np.concatenate([-np.swapaxes(u, 1, 2) @ v, off[n - n % 2:]])
    x = (np.swapaxes(inv, 1, 2) @ inv @ r[..., None])[..., 0]
    for u, v, w, inv, right in reversed(levels):
        y = np.swapaxes(inv, 1, 2) @ (w - u @ x[:len(u), :, None] - v @ x[right, :, None])
        x = np.insert(x, np.arange(1, len(u) + 1), y[..., 0], axis=0)
    return x


@dataclass
class SpectralReport:
    """Index/nullity bookkeeping for one critical point."""

    index: int
    nullity: int
    zero_band: float
    eigenvalues: np.ndarray        # sorted, continuum normalization
    ambiguous: bool


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

    The loop should be a converged critical point: the spectrum of any loop
    is assembled, but its index and nullity mean something only there.  The
    assembly evaluates no gradient; the caller reports how critical the loop is.
    """
    deltas = validate_loop(chart, loop)
    if method == "exact_discrete":
        h_aa, h_ab, h_bb = _second_deriv_blocks(chart, loop, deltas)
        scale = float(loop.n_nodes)
    elif method == "continuum_quadrature":
        h_aa, h_ab, h_bb = _quadrature_blocks(chart, loop, deltas)
        scale = 1.0
    else:
        raise ValueError(f"unknown assembly method {method!r}")

    diag = scale * (h_aa + np.roll(h_bb, 1, axis=0))
    if schedule is not None and alpha is not None:
        if method == "exact_discrete":
            diag[0] += penalty_coordinate_hess(chart, schedule, alpha, loop.basepoint)
        else:
            diag[0] += penalty_gradient_and_hessian(chart, schedule, alpha, loop.basepoint)[1]
    diag = 0.5 * (diag + np.swapaxes(diag, -1, -2))
    return SecondVariation(diag=diag, off=scale * h_ab, method=method, alpha=alpha)


def index_and_nullity(sv: SecondVariation, omega: complex = 1) -> SpectralReport:
    """Inertia counts of ``sv.dense(omega)`` from a full Hermitian eigensolve.

    Eigenvalues are reported as N times the matrix eigenvalues (continuum
    normalization); the band is ``ZERO_BAND_SCALE`` times the reported
    spectral radius (an all-zero spectrum has none: ValueError).
    Eigenvalues within a factor 10 of the band edge raise the ambiguity
    flag - the caller should refine N, not trust the counts.
    """
    return _spectral_report(sv.dense(omega), sv.n_nodes)


def _spectral_report(h: np.ndarray, n_nodes: int) -> SpectralReport:
    """``index_and_nullity`` of the Hermitian matrix ``h`` of an N-node Hessian."""
    eigs = np.linalg.eigvalsh(h) * n_nodes
    mags = np.abs(eigs)
    band = ZERO_BAND_SCALE * (float(np.max(mags)) if eigs.size else 0.0)
    if band <= 0:
        raise ValueError("zero band must be positive")
    ambiguous = bool(np.any((mags >= band / 10) & (mags <= band * 10)))
    return SpectralReport(index=int(np.sum(eigs < -band)), nullity=int(np.sum(mags <= band)),
                          zero_band=band, eigenvalues=eigs, ambiguous=ambiguous)


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


def pinned_index(sv: SecondVariation) -> int:
    """Negative inertia of the basepoint-pinned block of an assembled Hessian;
    the penalty only enters the basepoint block, so this is the Dirichlet index."""
    return _spectral_report(sv.dense()[sv.dim:, sv.dim:], sv.n_nodes).index


def dirichlet_index(chart: Chart, loop: DiscreteLoop) -> int:
    """Negative inertia of the basepoint-pinned (Dirichlet) second variation."""
    return pinned_index(assemble_second_variation(chart, loop))


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
    N-node Hessian twisted by omega (``SecondVariation.dense``), whose
    blocks are assembled once.  Each omega is solved once (omega and its conjugate
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
            solved[turn] = spec = index_and_nullity(sv, omega)
            nul_mono = eigenspace_dimension(return_map, omega)
            if spec.nullity != nul_mono:
                raise CrossCheckError(f"omega = exp(2 pi i {turn}): spectral nullity "
                                      f"{spec.nullity} != return-map nullity {nul_mono}")
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
