"""geolab: closed geodesics on complete surfaces by penalized-energy methods.

Chart-based metrics with their spray and curvature, discrete free loops
with exact energy gradients, a basepoint penalty restoring compactness on
non-compact charts, preconditioned descent and sweepout minimax, one
adaptive Dormand-Prince Jacobi flow whose (x, v) rows are the geodesic
flow / conjugate points / linearized return maps, and Morse index
machinery with built-in cross-checks between the spectral and symplectic
routes.

The package root imports nothing, so importing a submodule loads only what
that submodule needs.  The API lives in the submodules: ``charts`` (the
chart zoo, ``make_chart``), ``loops`` (``make_loop``, the energy and its
gradient), ``penalty`` (``PenaltySchedule``), ``descent`` (descent and
sweepout minimax), ``families``, ``jacobi`` (the Jacobi flow, conjugate
points, closed-orbit shooting), ``morse`` (index and nullity), ``config``
and ``cli``.
"""

__version__ = "0.1.0"
