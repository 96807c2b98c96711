"""The lab's one integrator: embedded Dormand-Prince 5(4) steps of the
Jacobi flow.

``dopri_batch`` steps one packed row (x, v, Y) per start, Y the normal
fundamental matrix of ``jacobi``, and each stage reads the chart once,
through the guarded ``charts.spray``: its -Gamma(v, v) moves (x, v) and
its K g(v, v) moves Y.  The (x, v) rows are the geodesic flow; nothing else
integrates it.  A batch takes one common step, the largest whose error
estimate keeps its worst member within the caller's tolerance and whose
h w (w^2 the largest K g(v, v)) stays under ``_step_cap``; or it replays a
given grid of row times.  The pair is FSAL (first same as last): the slope
at a step's new point is the next step's first, so a step costs six
``spray`` calls and its error estimate none.  Every array operation acts
row by row, so a member's rows do not depend on the rest of its batch
once the row times are fixed.
"""

from __future__ import annotations

import numpy as np

from .charts import Chart, spray
from .errors import ChartDomainError, GeolabError

# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, Table
# II.5.2).  Row i of _DP_A weighs the slopes of stages 1..i+1 into the
# point of stage i+2; the last row is the fifth-order step, whose slope is
# the next step's first (FSAL).  _DP_E holds b5 - b4, the error weights.
_DP_A = np.array([
    [1 / 5, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


def _slopes(chart: Chart, y: np.ndarray) -> tuple:
    """d/ds of packed rows (x, v, Y), Y by rows: (v, -Gamma(v, v), Y[1],
    -K g(v, v) Y[0]), and K g(v, v), for the rows whose point the chart
    evaluates; and the mask of those rows, None for all of them.  A refused
    ``spray`` call is repeated on the points inside the chart, so their
    values do not depend on the others; a chart that refuses a point its
    guard admits loses all of them."""
    keep = None
    while True:
        rows = y if keep is None else y[keep]
        if not len(rows):
            return None, None, keep
        try:
            acc, k_vv = spray(chart, rows[:, :2], rows[:, 2:4])
        except ChartDomainError:
            inside = np.asarray(chart.contains(y[:, :2]))
            keep = inside if keep is None and not inside.all() else np.zeros(len(y), bool)
            continue
        return (np.concatenate((rows[:, 2:4], acc, rows[:, 6:], -k_vv[:, None] * rows[:, 4:6]),
                               axis=1), k_vv, keep)


def _step_cap(k_vv: np.ndarray, root_tol: float) -> float:
    """Largest step from a state whose members have K g(v, v) = ``k_vv``.

    With w^2 = max K g(v, v), a zero of y is bisected on the cubic Hermite
    interpolant of its step, whose error is at most h^4 w^3 / 384 where
    |y'| = 1; so h w <= (384 ``root_tol`` w)^(1/4) keeps each conjugate time
    within ``root_tol`` and the Prufer turn of a step (below pi when
    h w < pi) far under pi for any w of the zoo.  Without positive
    curvature there is no cap.
    """
    w3 = max(float(np.max(k_vv, initial=0.0)), 0.0) ** 1.5
    return (384 * root_tol / w3) ** 0.25 if w3 > 0 else np.inf


def dopri_batch(chart: Chart, y: np.ndarray, t: float, grid: np.ndarray | None, tol: float,
                root_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dormand-Prince 5(4) for y' = ``_slopes``(y) over [0, t], one start per
    row of the packed (B, 8) state y = (x, v, Y by rows).

    Each stage makes one guarded ``spray`` call.  Without a ``grid`` the
    batch takes one common step: the largest whose error estimate is within
    ``tol`` (relative to max(1, |state|)) for every member still inside,
    capped by ``_step_cap`` for conjugate times bisected to ``root_tol``;
    a rejected step is retried shorter, with the usual safety factor 0.9
    and step ratios in [0.2, 5].  With a ``grid`` (row times from 0 to t)
    it steps from row time to row time and estimates nothing.

    Returns the rows (B, n+1, 8), their times (n+1,) and the exit times
    (B,).  A member whose start leaves the chart exits at 0; one whose
    stage point of the step from s_n leaves it exits at s_n, and one whose
    new point does at s_{n+1}; its rows from then on are NaN.  Members that
    stay inside have exit time inf.  Each member's rows are those it has
    when integrated alone on the returned times, unless the chart refuses a
    point its guard admits (see ``_slopes``).  When every member has left,
    chosen steps stop at the step where the last did.
    """
    b = len(y)
    exit_time = np.full(b, np.inf)
    live = np.arange(b)
    rows, times = [], [0.0]

    def record(y: np.ndarray) -> None:
        if len(live) < b:
            y, full = np.full((b, y.shape[1]), np.nan), y
            y[live] = full
        rows.append(y)

    slope, k_vv, keep = _slopes(chart, y)
    if keep is not None:
        exit_time[~keep] = 0.0
        live, y = live[keep], y[keep]
    record(y)
    if len(live):
        k = np.empty((7,) + y.shape)
        k[0] = slope
        rate = float(np.max(np.abs(slope) / np.maximum(1.0, np.abs(y))))
        h = min(t, _step_cap(k_vv, root_tol), tol ** 0.2 / rate if rate > 0 else t)
    grow = 5.0
    while len(live) and times[-1] < t:
        s0 = times[-1]
        if grid is not None:
            s1 = grid[len(times)]
        else:
            s1 = t if s0 + 1.1 * h >= t else s0 + h
            if s1 - s0 <= 1e-12 * t:
                raise GeolabError(f"{chart.name}: the flow's step fell to {s1 - s0:.1e}")
        ha = (s1 - s0) * _DP_A
        pos, ys, ks, gone = np.arange(len(live)), y, k, []
        for i in range(6):
            point = ys + np.add.reduce(ha[i, :i + 1, None, None] * ks[:i + 1])
            slope, k_vv, keep = _slopes(chart, point)
            if keep is not None:
                gone.append((pos[~keep], s0 if i < 5 else s1))
                pos, ys, ks, point = pos[keep], ys[keep], ks[:, keep], point[keep]
                if not len(pos):
                    break
            ks[i + 1] = slope
        if grid is None and len(pos):
            ratio = (np.abs(np.add.reduce((s1 - s0) * _DP_E[:, None, None] * ks))
                     / np.maximum(1.0, np.maximum(np.abs(ys), np.abs(point))))
            err = float(np.max(ratio)) / tol if np.isfinite(ratio).all() else np.inf
            h = (s1 - s0) * min(grow, max(0.2, 0.9 * max(err, 1e-16) ** -0.2))
            if err > 1.0:
                grow = 1.0
                continue
            grow = 5.0
            h = min(h, _step_cap(k_vv, root_tol))
        for where, when in gone:
            exit_time[live[where]] = when
        live, y, k = live[pos], point, ks
        k[0] = k[6]
        record(y)
        times.append(s1)
    if grid is not None:
        rows += [np.full((b, y.shape[1]), np.nan)] * (len(grid) - len(rows))
        times = grid
    return np.stack(rows, axis=1), np.array(times), exit_time
