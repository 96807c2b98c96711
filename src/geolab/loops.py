"""Discrete free loops: periodic polygons, energy, exact gradient, iteration.

A loop is an ordered list of N chart points understood cyclically; node 0
is distinguished (it carries the basepoint penalty and the corner
condition).  Periodic coordinates are stored reduced to one fundamental
period; segment differences always use the minimal lift, and a loop may
not jump more than the chart segment cap between consecutive nodes (this
caps angular resolution and is enforced, not silently fixed).  A
``DiscreteLoop`` may also hold a stack of M loops with one N (nodes
(M, N, d), one gauge each); validation, energy, gradient, preconditioner
and recentering then act, and report, member by member.

The energy of a loop is the midpoint-rule discretization

    E = N * sum_i  g(m_i)(Delta_i, Delta_i),   Delta_i = x_{i+1} - x_i,

with m_i the segment midpoint.  It reproduces the continuum energy of a
smooth loop to O(1/N^2) and satisfies E(m-fold iterate) = m^2 E exactly.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

from .charts import Chart
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


def sample_curve(chart: Chart, fn, n_nodes: int, frame: int = 0) -> DiscreteLoop:
    """Sample a smooth closed curve t -> fn(t), t in [0, 1), at n_nodes points."""
    ts = np.arange(n_nodes) / n_nodes
    return make_loop(chart, np.array([fn(t) for t in ts]), frame=frame)


def _shift_nodes(x: np.ndarray, k: int) -> np.ndarray:
    """Entry i holds x_{i+k} along the node axis -2 (np.roll by -k, without its overhead)."""
    return np.concatenate([x[..., k:, :], x[..., :k, :]], axis=-2)


def segment_deltas(chart: Chart, loop: DiscreteLoop) -> np.ndarray:
    """Minimal-lift differences x_{i+1} - x_i, shape (..., N, d)."""
    return chart.wrap_difference(_shift_nodes(loop.nodes, 1) - loop.nodes)


def segment_checks(chart: Chart, loop: DiscreteLoop) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment deltas and per-member flags (segment over the cap, node off the chart)."""
    deltas = segment_deltas(chart, loop)
    lengths = np.linalg.norm(deltas, axis=-1)
    return (deltas, (lengths >= chart.segment_cap).any(axis=-1),
            ~chart.contains(loop.nodes).all(axis=-1))


def validate_loop(chart: Chart, loop: DiscreteLoop) -> np.ndarray:
    """Enforce the segment cap and the chart domain on every member; return the deltas."""
    deltas, over_cap, outside = segment_checks(chart, loop)
    if over_cap.any():
        lengths = np.linalg.norm(deltas, axis=-1)
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
    g = chart.metric(loop.nodes + 0.5 * deltas)
    e = loop.n_nodes * np.einsum("...ni,...nij,...nj->...", deltas, g, deltas)
    return float(e) if e.ndim == 0 else e


def energy_gradient(chart: Chart, loop: DiscreteLoop) -> np.ndarray:
    """Exact derivative of the discrete energy with respect to all nodes.

    Node j sees its two adjacent segments through the chord terms and the
    metric evaluated at their midpoints:

        dE/dx_j = N [ 2 g(m_{j-1}) D_{j-1} - 2 g(m_j) D_j
                      + 1/2 D_{j-1}^T (dg)(m_{j-1}) D_{j-1}
                      + 1/2 D_j^T (dg)(m_j) D_j ].
    """
    n = loop.n_nodes
    deltas = validate_loop(chart, loop)
    mids = loop.nodes + 0.5 * deltas
    # one metric array at a time, largest first: on a stack they are the
    # largest temporaries
    qd = np.einsum("...nkij,...ni,...nj->...nk", chart.metric_deriv(mids), deltas, deltas)
    gd = np.einsum("...nij,...nj->...ni", chart.metric(mids), deltas)
    return n * (
        2.0 * _shift_nodes(gd, -1)
        - 2.0 * gd
        + 0.5 * _shift_nodes(qd, -1)
        + 0.5 * qd
    )


def precondition(grad: np.ndarray) -> np.ndarray:
    """Solve ((1/N) I + N L) p = grad per coordinate (FFT, exact circulant).

    The operator is the discrete H^1 inner product on nodal fields (L the
    second-difference circulant); nodes run along axis -2, so a stack of
    gradients (M, N, d) is solved member by member.
    """
    n = grad.shape[-2]
    lam = 1.0 / n + n * (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n // 2 + 1) / n))
    ghat = np.fft.rfft(grad, axis=-2)
    return np.fft.irfft(ghat / lam[:, None], n=n, axis=-2)


def preconditioned_norm(grad: np.ndarray) -> float | np.ndarray:
    """|g|_M = sqrt(g . M^{-1} g), the gradient norm every solver thresholds."""
    norm = np.sqrt(np.maximum(np.sum(grad * precondition(grad), axis=(-2, -1)), 0.0))
    return float(norm) if norm.ndim == 0 else norm


def loop_length(chart: Chart, loop: DiscreteLoop) -> float:
    """Polygonal metric length sum_i g(m_i)(Delta_i, Delta_i)^(1/2)."""
    deltas = validate_loop(chart, loop)
    g = chart.metric(loop.nodes + 0.5 * deltas)
    return float(np.sum(np.sqrt(np.einsum("ni,nij,nj->n", deltas, g, deltas))))


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


def one_sided_velocities(chart: Chart, loop: DiscreteLoop) -> tuple[np.ndarray, np.ndarray]:
    """Discrete one-sided velocities (v(0-), v(0+)) at the basepoint.

    The chord N * Delta approximates the velocity at the segment midpoint;
    the quadratic Christoffel correction transports it to the node, so both
    values are second-order accurate for a loop sampling a geodesic.
    """
    from .charts import christoffels

    n = loop.n_nodes
    deltas = segment_deltas(chart, loop)
    gam = christoffels(chart, loop.basepoint)
    w_minus = n * deltas[-1]
    w_plus = n * deltas[0]
    v_minus = w_minus - np.einsum("kij,i,j->k", gam, w_minus, w_minus) / (2 * n)
    v_plus = w_plus + np.einsum("kij,i,j->k", gam, w_plus, w_plus) / (2 * n)
    return v_minus, v_plus


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
    reach = np.linalg.norm(loop.nodes, axis=-1).max(axis=-1)
    far = reach > chart.recenter_trigger
    if not far.any():
        return loop
    flipped = chart.recenter_map(loop.nodes)
    flip = far & (np.linalg.norm(flipped, axis=-1).max(axis=-1) < reach)
    if not flip.any():
        return loop
    return DiscreteLoop(np.where(flip[..., None, None], flipped, loop.nodes),
                        frame=loop.frame ^ flip)


def loop_distance(chart: Chart, a: DiscreteLoop, b: DiscreteLoop) -> float | np.ndarray:
    """Max node chart distance, comparing in a common gauge (inf if none works).

    Stacks of loops are compared pair by pair: in a's gauge, then in b's
    gauge for the pairs whose gauges differ and do not both fit in a's.
    """
    if a.n_nodes != b.n_nodes:
        return np.inf
    an, bn = a.nodes.reshape(-1, a.n_nodes, a.dim), b.nodes.reshape(-1, a.n_nodes, a.dim)
    flip = np.atleast_1d(a.frame != b.frame)
    dist = np.full(len(flip), np.inf)
    todo = ~flip | chart.has_recentering
    for x, y in ((an, bn), (bn, an)):       # y moves into x's gauge where they differ
        if not todo.any():
            break
        move = flip & todo
        if move.any():
            y = y.copy()
            y[move] = chart.recenter_map(y[move])
        hold = todo & (chart.contains(x) & chart.contains(y)).all(axis=-1)
        far = np.linalg.norm(chart.wrap_difference(x - y), axis=-1).max(axis=-1)
        dist[hold] = far[hold]
        todo = move & ~hold
    return float(dist[0]) if a.nodes.ndim == 2 else dist


def midpoint_loop(chart: Chart, a: DiscreteLoop, b: DiscreteLoop) -> DiscreteLoop:
    """Nodewise midpoint of two nearby loops, or of each pair of two stacks (in a's gauge)."""
    flip = np.not_equal(a.frame, b.frame)
    bn = b.nodes
    if flip.any():
        bn = np.where(np.expand_dims(flip, (-2, -1)), chart.recenter_map(bn), bn)
    diff = chart.wrap_difference(bn - a.nodes)
    return maybe_recenter(chart, make_loop(chart, a.nodes + 0.5 * diff, frame=a.frame))


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


def loop_to_json_dict(chart: Chart, loop: DiscreteLoop) -> dict:
    return {
        "chart": chart.name,
        "frame": loop.frame,
        "winding": {str(k): w for k, w in winding_numbers(chart, loop).items()},
        "nodes": loop.nodes.tolist(),
    }


def loop_from_json_dict(data: dict) -> DiscreteLoop:
    return DiscreteLoop(np.array(data["nodes"], dtype=float), frame=int(data.get("frame", 0)))


def save_loop_json(chart: Chart, loop: DiscreteLoop, path) -> None:
    with open(path, "w") as fh:
        json.dump(loop_to_json_dict(chart, loop), fh, indent=1)


def load_loop_json(path) -> DiscreteLoop:
    with open(path) as fh:
        return loop_from_json_dict(json.load(fh))
