import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geolab.charts import make_chart
from geolab.errors import CrossCheckError
from geolab.jacobi import (
    eigenspace_dimension,
    outgoing_orbit,
    shoot_closed_orbit,
)
from geolab.loops import (
    DiscreteLoop,
    circle_shift,
    energy_gradient,
    in_gauge,
    iterate,
    make_loop,
)
from geolab.morse import (
    SecondVariation,
    assemble_second_variation,
    based_index_verdict,
    bott_table,
    dirichlet_index,
    index_and_nullity,
    iteration_table,
    lemma_verdict,
    outgoing_conjugate_report,
    twisted_hessian,
)
from geolab.penalty import PenaltySchedule

from conftest import circle_nodes, great_circle_loop, waist_loop


def hessian_matches_fd(chart, loop, schedule=None, alpha=None, n_dirs=3, seed=0):
    sv = assemble_second_variation(chart, loop, schedule, alpha)
    rng = np.random.default_rng(seed)
    h = 1e-6
    worst = 0.0
    for _ in range(n_dirs):
        u = rng.standard_normal(loop.nodes.shape)
        if schedule is None:
            gp = energy_gradient(chart, DiscreteLoop(loop.nodes + h * u, frame=loop.frame))
            gm = energy_gradient(chart, DiscreteLoop(loop.nodes - h * u, frame=loop.frame))
        else:
            from geolab.penalty import penalized_gradient
            gp = penalized_gradient(chart, schedule, alpha,
                                    DiscreteLoop(loop.nodes + h * u, frame=loop.frame))
            gm = penalized_gradient(chart, schedule, alpha,
                                    DiscreteLoop(loop.nodes - h * u, frame=loop.frame))
        fd = (gp - gm).ravel() / (2 * h)
        hv = sv.matrix @ u.ravel()
        worst = max(worst, np.max(np.abs(hv - fd)) / max(np.max(np.abs(fd)), 1e-12))
    return worst


def test_hessian_symmetric_and_matches_fd_control():
    # the flat polygon is not critical: pure assembly consistency check
    plane = make_chart("plane")
    loop = make_loop(plane, circle_nodes(1.0, 48))
    sv = assemble_second_variation(plane, loop)
    assert np.array_equal(sv.matrix, sv.matrix.T)
    assert not sv.critical
    assert hessian_matches_fd(plane, loop) < 1e-5


def test_hessian_matches_fd_curved_charts(rng):
    fun = make_chart("funnel")
    ts = 2 * np.pi * np.arange(40) / 40
    nodes = np.stack([0.3 * np.sin(2 * ts) + 0.2, ts], axis=1)
    loop = make_loop(fun, nodes)
    assert hessian_matches_fd(fun, loop) < 1e-5
    sched = PenaltySchedule(r0=0.1, dr=1.0, stiffness=2.0)
    assert hessian_matches_fd(fun, loop, sched, 0) < 1e-5


def test_constant_loop_spectrum():
    plane = make_chart("plane")
    loop = make_loop(plane, np.broadcast_to([0.4, -0.2], (32, 2)).copy())
    spec = index_and_nullity(assemble_second_variation(plane, loop))
    assert spec.index == 0
    assert spec.nullity == 2  # the two translation fields
    assert np.all(spec.eigenvalues >= -spec.zero_band)
    assert spec.index + spec.nullity + spec.positive_count == 64


def test_index_and_nullity_band_logic():
    n, d = 16, 2
    eigs = np.concatenate([[-40.0, -3.0], np.zeros(3), np.full(n * d - 5, 50.0)])
    sv = SecondVariation(matrix=np.diag(eigs / n), method="exact_discrete",
                         n_nodes=n, dim=d)
    spec = index_and_nullity(sv)
    assert (spec.index, spec.nullity) == (2, 3)
    assert not spec.ambiguous
    # an eigenvalue close to the band edge flips the ambiguity flag
    eigs[2] = spec.zero_band * 2.0
    sv2 = SecondVariation(matrix=np.diag(eigs / n), method="exact_discrete",
                          n_nodes=n, dim=d)
    assert index_and_nullity(sv2).ambiguous
    with pytest.raises(ValueError):
        index_and_nullity(sv, zero_band=0.0)


def test_sphere_great_circle_index_nullity():
    sph = make_chart("sphere")
    loop = great_circle_loop(sph, 256)
    spec = index_and_nullity(assemble_second_variation(sph, loop))
    assert (spec.index, spec.nullity) == (1, 3)
    spec_q = index_and_nullity(
        assemble_second_variation(sph, loop, method="continuum_quadrature"))
    assert (spec_q.index, spec_q.nullity) == (1, 3)


def test_sphere_second_iterate_index_nullity():
    sph = make_chart("sphere")
    loop = iterate(great_circle_loop(sph, 256), 2)
    spec = index_and_nullity(assemble_second_variation(sph, loop))
    assert (spec.index, spec.nullity) == (3, 3)


def test_cylinder_circle_index_nullity():
    cyl = make_chart("cylinder")
    spec = index_and_nullity(assemble_second_variation(cyl, waist_loop(cyl, 256)))
    assert (spec.index, spec.nullity) == (0, 2)


def test_funnel_waist_index_nullity():
    fun = make_chart("funnel")
    spec = index_and_nullity(assemble_second_variation(fun, waist_loop(fun, 256)))
    assert (spec.index, spec.nullity) == (0, 1)


def test_quadrature_assembly_agrees_on_zoo_geodesics():
    for name, loop_fn in [("cylinder", waist_loop), ("funnel", waist_loop)]:
        chart = make_chart(name)
        loop = loop_fn(chart, 256)
        s1 = index_and_nullity(assemble_second_variation(chart, loop))
        s2 = index_and_nullity(
            assemble_second_variation(chart, loop, method="continuum_quadrature"))
        assert (s1.index, s1.nullity) == (s2.index, s2.nullity)


def test_assembly_rejects_unknown_method():
    plane = make_chart("plane")
    loop = make_loop(plane, circle_nodes(0.5, 16))
    with pytest.raises(ValueError):
        assemble_second_variation(plane, loop, method="magic")


def based_index(chart, loop):
    """Dirichlet index against the open-interval conjugate count along the
    shot closed orbit, as ``analyze`` compares them."""
    closed = shoot_closed_orbit(chart, loop, outgoing_orbit(chart, loop))
    return based_index_verdict(closed.conjugate_report(), assemble_second_variation(chart, loop))


def lemma_bound(chart, loop, schedule=None, alpha=None):
    """The lemma's index bound for a loop, assembled from scratch."""
    spec = index_and_nullity(assemble_second_variation(chart, loop, schedule, alpha))
    return lemma_verdict(outgoing_conjugate_report(chart, loop)[0], spec, chart.dim)


def test_based_index_flat_zero():
    cyl = make_chart("cylinder")
    out = based_index(cyl, waist_loop(cyl, 256))
    assert out["dirichlet_index"] == 0 and out["cp_open"] == 0


def test_based_index_sphere_one_and_three():
    sph = make_chart("sphere")
    loop = great_circle_loop(sph, 256)
    out = based_index(sph, loop)
    assert out["dirichlet_index"] == 1 and out["cp_open"] == 1
    out2 = based_index(sph, iterate(loop, 2))
    assert out2["dirichlet_index"] == 3 and out2["cp_open"] == 3


def test_dirichlet_pinning_strictly_smaller_system():
    fun = make_chart("funnel")
    loop = waist_loop(fun, 64)
    assert dirichlet_index(fun, loop) == 0


def test_lemma_bound_cylinder_boundary_case():
    cyl = make_chart("cylinder")
    out = lemma_bound(cyl, waist_loop(cyl, 256))
    assert out == {"cp1": 0, "index": 0, "nullity": 2, "dim": 2, "verdict": "pass"}


def test_lemma_bound_sphere_hypothesis_fails():
    # cp_1 = 2 and ind + nul = 4 > 2: the hypothesis is sharp
    sph = make_chart("sphere")
    out = lemma_bound(sph, great_circle_loop(sph, 256))
    assert out["cp1"] == 2
    assert out["verdict"] == "not_applicable"
    assert out["index"] + out["nullity"] > out["dim"]


def test_lemma_bound_constant_loop():
    plane = make_chart("plane")
    loop = make_loop(plane, np.broadcast_to([0.1, 0.2], (32, 2)).copy())
    out = lemma_bound(plane, loop)
    assert out["cp1"] == 0 and out["verdict"] == "pass"


def test_stationary_loop_report_is_empty_without_integration(monkeypatch):
    # a plane circle of radius 1e-6: |v_+| ~ 6e-6 is not a moving loop, so
    # the report is empty and no orbit is integrated
    from geolab import jacobi
    calls = []
    monkeypatch.setattr(jacobi, "jacobi_propagate", lambda *args: calls.append(args))
    plane = make_chart("plane")
    report, orbit = outgoing_conjugate_report(plane, make_loop(plane, circle_nodes(1e-6, 32)))
    assert report.times == [] and report.t == 1.0
    assert orbit is None and calls == []


def test_lemma_bound_corner_point(corner_point):
    fc = corner_point
    out = lemma_bound(fc["chart"], fc["loop_at"](256), fc["schedule"], fc["alpha"])
    # the arc stays in moderate curvature; when its conjugate count
    # vanishes the bound must hold
    if out["cp1"] == 0:
        assert out["verdict"] == "pass"
    else:
        assert out["verdict"] == "not_applicable"


def test_bott_table_sphere():
    sph = make_chart("sphere")
    loop = great_circle_loop(sph, 128)
    table = bott_table(sph, loop, m_max=6)
    inds = [r["index"] for r in table["rows"]]
    nuls = [r["nullity"] for r in table["rows"]]
    assert inds == [2 * m - 1 for m in range(1, 7)]
    assert nuls == [3] * 6
    # the return map's eigenvalue 1 splits numerically into angles ~1e-7,
    # which must read as the single cut at 0: ibar = ind_omega = 2 exactly,
    # and every iterate sits on the upper bound
    assert table["mean_index"] == 2.0
    assert table["bounds_ok"]
    assert all(r["index"] == r["upper"] for r in table["rows"])
    assert table["nullity_partition"] == {"3": [1, 2, 3, 4, 5, 6]}


def test_bott_table_cylinder():
    cyl = make_chart("cylinder")
    table = bott_table(cyl, waist_loop(cyl, 128), m_max=6)
    assert [r["index"] for r in table["rows"]] == [0] * 6
    assert [r["nullity"] for r in table["rows"]] == [2] * 6
    assert table["mean_index"] == 0.0
    assert table["bounds_ok"]


def test_bott_table_funnel():
    fun = make_chart("funnel")
    table = bott_table(fun, waist_loop(fun, 128), m_max=4)
    assert [r["index"] for r in table["rows"]] == [0] * 4
    assert [r["nullity"] for r in table["rows"]] == [1] * 4
    assert table["mean_index"] == 0.0
    assert table["bounds_ok"]


@pytest.mark.parametrize("name", ["sphere", "cylinder", "funnel", "bumped_cylinder"])
def test_bott_rows_equal_direct_iterate_assembly(name):
    # the oracle: the m-fold iterate assembled on its own mN nodes
    chart = make_chart(name)
    loop = (great_circle_loop if name == "sphere" else waist_loop)(chart, 128)
    table = bott_table(chart, loop, m_max=3)
    for row in table["rows"]:
        spec = index_and_nullity(assemble_second_variation(chart, iterate(loop, row["m"])))
        assert (row["index"], row["nullity"]) == (spec.index, spec.nullity)


def test_bott_table_bumped_waist_elliptic_mean_index():
    # the bump's waist is elliptic: the return map rotates by theta, and
    # ind_omega is 3 on (0, theta) and 4 on (theta, pi)
    chart = make_chart("bumped_cylinder")
    loop = waist_loop(chart, 128)
    return_map = shoot_closed_orbit(chart, loop, outgoing_orbit(chart, loop)).return_map()
    eigs = np.linalg.eigvals(return_map)
    theta = float(np.max(np.abs(np.angle(eigs))))
    assert 0.1 < theta < np.pi - 0.1
    table = iteration_table(chart, loop, return_map, m_max=5)
    assert abs(table["mean_index"] - (3 * theta + 4 * (np.pi - theta)) / np.pi) < 1e-9
    assert [r["index"] for r in table["rows"]] == [3, 7, 11, 15, 17]
    assert [r["nullity"] for r in table["rows"]] == [1] * 5
    assert table["bounds_ok"]


def test_bott_table_rejects_a_return_map_with_the_wrong_kernel():
    # the identity claims a 4-dimensional fixed space; the waist's 1-Hessian
    # has nullity 1
    chart = make_chart("bumped_cylinder")
    with pytest.raises(CrossCheckError):
        iteration_table(chart, waist_loop(chart, 128), np.eye(4), m_max=1)


@pytest.fixture(scope="module")
def wavy_bumped_loop():
    # no symmetry of its own, so a circle shift really moves the twisted edge
    chart = make_chart("bumped_cylinder")
    ts = 2 * np.pi * np.arange(48) / 48
    nodes = np.stack([0.3 * np.sin(2 * ts) + 0.2 * np.cos(ts) + 0.1, ts], axis=1)
    return chart, make_loop(chart, nodes)


@settings(max_examples=15, deadline=None)
@given(turn=st.floats(0.0, 1.0), shift=st.integers(1, 47))
def test_twisted_inertia_invariant_under_circle_action_reversal_and_conjugation(
        wavy_bumped_loop, turn, shift):
    chart, loop = wavy_bumped_loop
    omega = np.exp(2j * np.pi * turn)

    def inertia(lp, w):
        spec = index_and_nullity(twisted_hessian(assemble_second_variation(chart, lp), w))
        return spec.index, spec.nullity

    base = inertia(loop, omega)
    assert inertia(circle_shift(loop, shift), omega) == base
    assert inertia(DiscreteLoop(loop.nodes[::-1]), omega) == base
    assert inertia(loop, np.conj(omega)) == base


#: turns k/m of the unit roots omega = exp(2 pi i k/m), m <= 3
UNIT_ROOT_TURNS = (0.0, 1 / 3, 1 / 2, 2 / 3)


def jacobi_invariants(chart, loop):
    """Open conjugate count of the outgoing orbit and the return map's
    eigenspace dimensions at every unit root of order at most 3."""
    report, orbit = outgoing_conjugate_report(chart, loop)
    p = shoot_closed_orbit(chart, loop, orbit).return_map()
    return report.count_open(), [eigenspace_dimension(p, np.exp(2j * np.pi * f))
                                 for f in UNIT_ROOT_TURNS]


@pytest.fixture(scope="module")
def rotation_orbits():
    # orbits of rotation isometries: every basepoint and either direction
    # sees the same conjugate times and a conjugate return map
    out = {}
    for name in ("sphere", "funnel", "bumped_cylinder"):
        chart = make_chart(name)
        loop = (great_circle_loop if name == "sphere" else waist_loop)(chart, 128)
        out[name] = chart, loop, jacobi_invariants(chart, loop)
    return out


@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(["sphere", "funnel", "bumped_cylinder"]),
       shift=st.integers(0, 127), reverse=st.booleans(), flip=st.booleans())
def test_jacobi_invariants_under_circle_action_reversal_and_gauge_flip(
        rotation_orbits, name, shift, reverse, flip):
    # count_open, not count: after the gauge flip the endpoint root can sit
    # just past t = 1
    chart, loop, base = rotation_orbits[name]
    moved = circle_shift(loop, shift)
    if reverse:          # the reversed loop keeps node 0 as its basepoint
        moved = DiscreteLoop(np.roll(moved.nodes[::-1], 1, axis=0), moved.frame)
    if flip and chart.has_recentering:
        moved = in_gauge(chart, moved, 1)
    assert jacobi_invariants(chart, moved) == base


@pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (4, 3)])
def test_twisted_hessian_is_the_iterate_hessian_on_omega_periodic_fields(
        wavy_bumped_loop, m, k):
    # eigvalsh reads one triangle only, so the inertia tests above cannot
    # see a wrong twist of the other wrap-around block; compare matrices:
    # on the fields (xi, omega xi, ..., omega^{m-1} xi) the m-fold iterate's
    # Hessian (node count scale mN) is m^2 times the omega-twisted one
    chart, loop = wavy_bumped_loop
    omega = np.exp(2j * np.pi * k / m)
    sv = assemble_second_variation(chart, loop)
    lift = np.concatenate([omega ** j * np.eye(sv.matrix.shape[0]) for j in range(m)])
    h_m = assemble_second_variation(chart, iterate(loop, m)).matrix
    restricted = lift.conj().T @ h_m @ lift / m ** 2
    assert np.allclose(twisted_hessian(sv, omega).matrix, restricted, rtol=0, atol=1e-11)


def test_index_nondecreasing_under_iteration():
    sph = make_chart("sphere")
    loop = great_circle_loop(sph, 128)
    inds = []
    for m in (1, 2, 3):
        spec = index_and_nullity(assemble_second_variation(sph, iterate(loop, m)))
        inds.append(spec.index)
    assert inds == sorted(inds)
