"""geolab: closed geodesics on complete surfaces by penalized-energy methods.

Chart-based metrics with their spray and curvature, discrete free loops
with exact energy gradients, a basepoint penalty restoring compactness on
non-compact charts, preconditioned descent and sweepout minimax, one
adaptive Dormand-Prince Jacobi flow whose (x, v) rows are the geodesic
flow / conjugate points / linearized return maps, and Morse index
machinery with built-in cross-checks between the spectral and symplectic
routes.
"""

__version__ = "0.1.0"

from .charts import Chart, TangentVector, make_chart
from .loops import DiscreteLoop, make_loop
from .penalty import PenaltySchedule
from .descent import DescentOptions, SweepOptions, SweepoutFamily

__all__ = [
    "Chart",
    "TangentVector",
    "make_chart",
    "DiscreteLoop",
    "make_loop",
    "PenaltySchedule",
    "DescentOptions",
    "SweepOptions",
    "SweepoutFamily",
    "__version__",
]
