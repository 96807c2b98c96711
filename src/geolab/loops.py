"""Discrete free loops: periodic polygons, energy, exact gradient, iteration.

A loop is an ordered list of N chart points understood cyclically; node 0
is distinguished (it carries the basepoint penalty and the corner
condition).  Periodic coordinates are stored reduced to one fundamental
period; segment differences always use the minimal lift, and a loop may
not jump more than the chart segment cap between consecutive nodes (this
caps angular resolution and is enforced, not silently fixed).  A
``DiscreteLoop`` may also hold a stack of M loops with one N (nodes
(M, N, d), one gauge each); validation, energy, gradient, preconditioner
and recentering then act, and report, member by member, and a member's
value never depends on its batch.  The kernels a descent step runs sum
over the length-d coordinate axis term by term and transform along a
contiguous node axis: on a surface (d = 2) numpy's per-call cost of a
reduction or contraction over the coordinate axis outweighs its
arithmetic, and the explicit sums give numpy's values bit for bit.

The energy of a loop is the midpoint-rule discretization

    E = N * sum_i  g(m_i)(Delta_i, Delta_i),   Delta_i = x_{i+1} - x_i,

with m_i the segment midpoint.  It reproduces the continuum energy of a
smooth loop to O(1/N^2) and satisfies E(m-fold iterate) = m^2 E exactly.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .charts import Chart, _squared_norm, christoffels
from .errors import ChartDomainError, RefineNeededError


@dataclass
class DiscreteLoop:
    """Periodic polygon of N chart points; ``frame`` is the chart gauge.

    ``frame`` is only nontrivial on charts with a recentering isometry
    (the sphere): 0 is the reference gauge, 1 the recentered one.  A stack
    of M loops has nodes (M, N, d) and an integer array of M frames.
    """

    nodes: np.ndarray
    frame: int | np.ndarray = 0

    def __post_init__(self):
        self.nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        self.frame = int(self.frame) if np.ndim(self.frame) == 0 else np.asarray(self.frame)
        if self.nodes.shape[-2] < 8:
            raise ValueError("a loop needs at least 8 nodes")

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[-2]

    @property
    def dim(self) -> int:
        return self.nodes.shape[-1]

    @property
    def basepoint(self) -> np.ndarray:
        return self.nodes[..., 0, :]


def make_loop(chart: Chart, nodes: np.ndarray, frame: int = 0) -> DiscreteLoop:
    """Build a loop with periodic coordinates reduced to one period."""
    return DiscreteLoop(chart.reduce_point(np.asarray(nodes, dtype=float)), frame=frame)


def _shift_nodes(x: np.ndarray, k: int) -> np.ndarray:
    """Entry i holds x_{i+k} along the node axis -2 (np.roll by -k, without its overhead)."""
    return np.concatenate([x[..., k:, :], x[..., :k, :]], axis=-2)


def segment_deltas(chart: Chart, loop: DiscreteLoop) -> np.ndarray:
    """Minimal-lift differences x_{i+1} - x_i, shape (..., N, d)."""
    return chart.wrap_difference(_shift_nodes(loop.nodes, 1) - loop.nodes)


def segment_checks(chart: Chart, loop: DiscreteLoop) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment deltas and per-member flags (segment over the cap, node off the chart)."""
    deltas = segment_deltas(chart, loop)
    lengths = np.sqrt(_squared_norm(deltas))
    return (deltas, (lengths >= chart.segment_cap).any(axis=-1),
            ~chart.contains(loop.nodes).all(axis=-1))


def validate_loop(chart: Chart, loop: DiscreteLoop) -> np.ndarray:
    """Enforce the segment cap and the chart domain on every member; return the deltas."""
    deltas, over_cap, outside = segment_checks(chart, loop)
    if over_cap.any():
        lengths = np.sqrt(_squared_norm(deltas))
        worst = np.unravel_index(np.argmax(lengths), lengths.shape)
        raise RefineNeededError(
            f"{chart.name}: segment {worst[-1]} has chart length {lengths[worst]:.4g} "
            f">= cap {chart.segment_cap}; refine the loop"
        )
    if outside.any():
        raise ChartDomainError(f"{chart.name}: loop node outside chart domain")
    return deltas


def energy(chart: Chart, loop: DiscreteLoop) -> float | np.ndarray:
    """Discrete loop energy N * sum g(m_i)(Delta_i, Delta_i) (per member of a stack)."""
    deltas = validate_loop(chart, loop)
    g = chart.metric_diag(loop.nodes + 0.5 * deltas)
    e = loop.n_nodes * np.einsum("...ni,...ni,...ni->...", deltas, g, deltas)
    return float(e) if e.ndim == 0 else e


def energy_gradient(chart: Chart, loop: DiscreteLoop) -> np.ndarray:
    """Exact derivative of the discrete energy with respect to all nodes.

    Node j sees its two adjacent segments through the chord terms and the
    diagonal metric at their midpoints: segment i has gd_i = (g_kk(m_i) D_ik)_k
    and qd_i = (sum_l (d_k g_ll)(m_i) D_il^2)_k, and

        dE/dx_j = N [ 2 gd_{j-1} - 2 gd_j + 1/2 qd_{j-1} + 1/2 qd_j ].
    """
    deltas = validate_loop(chart, loop)
    mids = loop.nodes + 0.5 * deltas
    # qd summed term by term from 0, each product left to right, one k at a
    # time over (..., N) slices: a length-d inner loop costs numpy more
    dg, cols = chart.metric_diag_deriv(mids), [deltas[..., i] for i in range(loop.dim)]
    qd = np.empty(deltas.shape)
    for k in range(loop.dim):
        qd[..., k] = sum(dg[..., k, i] * col * col for i, col in enumerate(cols))
    gd = chart.metric_diag(mids) * deltas
    return loop.n_nodes * (
        2.0 * _shift_nodes(gd, -1)
        - 2.0 * gd
        + 0.5 * _shift_nodes(qd, -1)
        + 0.5 * qd
    )


def precondition(grad: np.ndarray) -> np.ndarray:
    """Solve ((1/N) I + N L) p = grad per coordinate (FFT, exact circulant).

    The operator is the discrete H^1 inner product on nodal fields (L the
    second-difference circulant); nodes run along axis -2, so a stack of
    gradients (M, N, d) is solved member by member, each as if alone.  The
    transforms run on a contiguous copy with the nodes last, which is
    cheaper than striding along axis -2 and gives the same values bit for bit.
    """
    n = grad.shape[-2]
    lam = 1.0 / n + n * (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n))
    ghat = np.fft.rfft(np.ascontiguousarray(grad.swapaxes(-1, -2)))
    return np.fft.irfft(ghat / lam, n=n).swapaxes(-1, -2)


def preconditioned_norm(grad: np.ndarray) -> float | np.ndarray:
    """|g|_M = sqrt(g . M^{-1} g), the gradient norm every solver thresholds."""
    norm = np.sqrt(np.maximum(np.sum(grad * precondition(grad), axis=(-2, -1)), 0.0))
    return float(norm) if norm.ndim == 0 else norm


def iterate(loop: DiscreteLoop, m: int) -> DiscreteLoop:
    """The m-fold iterate: the mN-node loop tracing the input m times."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return DiscreteLoop(np.tile(loop.nodes, (m, 1)), frame=loop.frame)


def circle_shift(loop: DiscreteLoop, k: int) -> DiscreteLoop:
    """Rotate the node indexing by k (the discrete circle action)."""
    if not 0 <= k < loop.n_nodes:
        raise ValueError("shift must satisfy 0 <= k < N")
    return DiscreteLoop(np.roll(loop.nodes, -k, axis=0), frame=loop.frame)


def winding_numbers(chart: Chart, loop: DiscreteLoop) -> dict[int, int]:
    """Integer winding number around each periodic coordinate."""
    if chart.periods is None:
        return {}
    deltas = segment_deltas(chart, loop)
    out = {}
    for k, p in enumerate(chart.periods):
        if np.isfinite(p):
            total = float(np.sum(deltas[:, k]))
            out[k] = int(np.round(total / p))
    return out


def _chord_at_node(gam: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Velocity at a node from the chord w = N Delta of an adjacent segment,
    which approximates the velocity at the segment midpoint: the quadratic
    Christoffel correction moves it half a step, to the segment's start for
    n = N and to its end for n = -N; over leading batch axes."""
    return w + np.einsum("...kij,...i,...j->...k", gam, w, w) / (2 * n)


def one_sided_velocities(chart: Chart, loop: DiscreteLoop,
                         idx: int | np.ndarray = 0) -> tuple[np.ndarray, np.ndarray]:
    """Discrete one-sided velocities (v(0-), v(0+)) of one loop at node
    ``idx`` (the basepoint by default), or at each node of an index array,
    from one Christoffel evaluation.

    The chord N * Delta approximates the velocity at the segment midpoint;
    the quadratic Christoffel correction transports it to the node, so both
    values are second-order accurate for a loop sampling a geodesic.
    """
    n = loop.n_nodes
    deltas = segment_deltas(chart, loop)
    gam = christoffels(chart, loop.nodes[idx])
    return (_chord_at_node(gam, n * deltas[idx - 1], -n),
            _chord_at_node(gam, n * deltas[idx], n))


def double_nodes(chart: Chart, loop: DiscreteLoop) -> DiscreteLoop:
    """Insert segment midpoints: N -> 2N nodes, same trace."""
    deltas = segment_deltas(chart, loop)
    mids = loop.nodes + 0.5 * deltas
    nodes = np.empty((2 * loop.n_nodes, loop.dim))
    nodes[0::2] = loop.nodes
    nodes[1::2] = mids
    return make_loop(chart, nodes, frame=loop.frame)


# ---------------------------------------------------------------------------
# chart-frame (recentering) helpers
# ---------------------------------------------------------------------------


def maybe_recenter(chart: Chart, loop: DiscreteLoop) -> DiscreteLoop:
    """Flip the gauge (of each member) when that moves the loop farther from the guard."""
    if not chart.has_recentering:
        return loop
    reach = np.sqrt(_squared_norm(loop.nodes)).max(axis=-1)
    far = reach > chart.recenter_trigger
    if not far.any():
        return loop
    flipped = chart.recenter_map(loop.nodes)
    flip = far & (np.sqrt(_squared_norm(flipped)).max(axis=-1) < reach)
    if not flip.any():
        return loop
    return DiscreteLoop(np.where(flip[..., None, None], flipped, loop.nodes),
                        frame=loop.frame ^ flip)


def in_gauge(chart: Chart, loop: DiscreteLoop, gauge) -> DiscreteLoop:
    """The same loop stored in ``gauge`` (per member of a stack: one gauge each)."""
    move = np.not_equal(loop.frame, gauge)
    if not move.any():
        return loop
    nodes = np.where(np.expand_dims(move, (-2, -1)), chart.recenter_map(loop.nodes), loop.nodes)
    return DiscreteLoop(nodes, np.where(move, gauge, loop.frame))


def pair_distance(chart: Chart, a: DiscreteLoop, b: DiscreteLoop) -> tuple[np.ndarray, np.ndarray]:
    """Max node chart distance of each pair of two stacks, and the gauge it is read in.

    Each pair compares in a's gauge, or in b's where a's gauge does not
    hold both loops; the distance is inf where neither does.
    """
    dist = np.full(np.shape(a.nodes)[:-2], np.inf)
    gauge = np.broadcast_to(a.frame, dist.shape).copy()
    for g in (a.frame, b.frame):
        todo = np.isinf(dist)
        if not todo.any():
            break
        x, y = in_gauge(chart, a, g).nodes, in_gauge(chart, b, g).nodes
        hold = todo & (chart.contains(x) & chart.contains(y)).all(axis=-1)
        far = np.sqrt(_squared_norm(chart.wrap_difference(x - y))).max(axis=-1)
        dist, gauge = np.where(hold, far, dist), np.where(hold, g, gauge)
    return dist, gauge


def loop_distance(chart: Chart, a: DiscreteLoop, b: DiscreteLoop) -> float | np.ndarray:
    """Max node chart distance of two loops, or of each pair of two stacks (``pair_distance``)."""
    if a.n_nodes != b.n_nodes:
        return np.inf
    dist = pair_distance(chart, a, b)[0]
    return float(dist) if dist.ndim == 0 else dist


def midpoint_loop(chart: Chart, a: DiscreteLoop, b: DiscreteLoop, w=0.5) -> DiscreteLoop:
    """Nodewise point a + w (b - a) of two nearby loops, in a's gauge.

    On two stacks it acts pair by pair, and ``w`` may then hold one weight
    per pair; the default is the midpoint and ``w = 0`` returns a's nodes.
    """
    diff = chart.wrap_difference(in_gauge(chart, b, a.frame).nodes - a.nodes)
    step = np.expand_dims(w, (-2, -1)) * diff if np.ndim(w) else w * diff
    return maybe_recenter(chart, make_loop(chart, a.nodes + step, frame=a.frame))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def loop_to_csv(loop: DiscreteLoop) -> str:
    """CSV with header node_index,c0,...,c{d-1} (plotting format, gauge dropped)."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["node_index"] + [f"c{k}" for k in range(loop.dim)])
    for i, row in enumerate(loop.nodes):
        writer.writerow([i] + [repr(float(c)) for c in row])
    return buf.getvalue()


def loop_from_csv(text: str) -> DiscreteLoop:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if not header or header[0] != "node_index":
        raise ValueError("expected header starting with node_index")
    rows = sorted((int(r[0]), [float(c) for c in r[1:]]) for r in reader if r)
    return DiscreteLoop(np.array([r[1] for r in rows]))


def load_loop_json(path) -> DiscreteLoop:
    """A loop from a JSON object with ``nodes`` and an optional gauge ``frame``."""
    with open(path) as fh:
        data = json.load(fh)
    return DiscreteLoop(np.array(data["nodes"], dtype=float), frame=int(data.get("frame", 0)))
