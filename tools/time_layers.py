"""In-process layer timings of the descent kernels, for one checkout.

    OPENBLAS_NUM_THREADS=1 python3 tools/time_layers.py [--src SRC] [--repeat R]

Prints one JSON object: the median wall time in microseconds of
``energy``, ``energy_gradient``, ``validate_loop``, ``precondition`` (of
the stack's gradient) and ``maybe_recenter`` on two stacks, and of one
relax round of the benchmark sweep (``_armijo_step`` of every member, then
``_resample``).

* ``sphere``: the family of ``birkhoff_latitudes(sphere, 9, 128)`` after
  the 50 relax rounds of the ``sweep-birkhoff`` workload, 44 members with
  one gauge each; the relax round timed is one more round on it;
* ``funnel``: four winding loops of 128 nodes with theta wrapped.

``--src`` is the ``src`` directory whose ``geolab`` is timed (default: this
checkout's), so that one script times two checkouts.
"""

from __future__ import annotations

import argparse
import copy
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROUNDS = 50


def median_us(f, repeat: int) -> float:
    f()                                     # warm-up
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        f()
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    parser.add_argument("--repeat", type=int, default=200)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from geolab.charts import make_chart
    from geolab.descent import (RESOLUTION_FACTOR, VALUE_FLOOR, _armijo_step, _LoopStack,
                                _resample)
    from geolab.families import birkhoff_latitudes
    from geolab.loops import (DiscreteLoop, energy, energy_gradient, make_loop, maybe_recenter,
                              precondition, validate_loop)

    sph, fun = make_chart("sphere"), make_chart("funnel")
    resolution = sph.segment_cap * RESOLUTION_FACTOR

    def relax_round(stack):
        _armijo_step(stack, np.arange(stack.size), 1e-8, max_move=0.5 * resolution)
        floor = max(VALUE_FLOOR, 1e-9 * float(np.max(np.abs(stack.energy))))
        _resample(stack, resolution, floor)

    stack = _LoopStack.of(sph, None, None, birkhoff_latitudes(sph, 9, 128).members)
    for _ in range(ROUNDS):
        relax_round(stack)
    ts = 2 * np.pi * np.arange(128) / 128
    funnel = [make_loop(fun, np.stack([z0 + 0.3 * np.sin(k * ts + ph), ts + ph], axis=1))
              for z0, k, ph in [(0.0, 1, 0.0), (-0.4, 2, 1.3), (0.7, 3, 5.9), (-1.2, 1, 3.1)]]
    stacks = {"sphere": (sph, stack.loop(slice(None))),
              "funnel": (fun, DiscreteLoop(np.stack([lp.nodes for lp in funnel]),
                                           np.zeros(len(funnel), dtype=int)))}

    out = {"repeat": args.repeat}
    for name, (chart, loop) in stacks.items():
        grad = energy_gradient(chart, loop)
        out[name] = {"shape": list(loop.nodes.shape), **{
            f.__name__: median_us(lambda f=f: f(chart, loop), args.repeat)
            for f in (energy, energy_gradient, validate_loop, maybe_recenter)},
            "precondition": median_us(lambda: precondition(grad), args.repeat)}

    copies = [copy.deepcopy(stack) for _ in range(args.repeat // 4 + 1)]
    out["relax_round"] = median_us(lambda: relax_round(copies.pop()), args.repeat // 4)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
