"""The constrained solve: projected CG against a bordered reference, screening, breakdown."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dropcap as dc
import dropcap.equilibrium
import dropcap.linalg
from dropcap.errors import NonConvergenceError
from dropcap.instability import _random_polygon, _regular_polygon
from dropcap.linalg import CG_SCREEN_RTOL, ScreenedOut, cg_solve, constrained_solve, symv
from oracles import full_kernel_matrix

ORIGIN = (0.0, 0.0, 0.0)
COULOMB = dc.KernelParams(3, 2.0)

# (shape for a radius R, role, alpha) of the generated 3d clouds
CLOUDS = {
    "boundary ball, alpha=2": (lambda R: dc.Ball(ORIGIN, R), "boundary", 2.0),
    "annulus": (lambda R: dc.Annulus(ORIGIN, R / 2.0, R), "boundary", 2.0),
    "volume ball, alpha=1.5": (lambda R: dc.Ball(ORIGIN, R), "volume", 1.5),
}
radii = st.floats(0.5, 2.0)
node_counts = st.integers(150, 500)
generated = settings(max_examples=6)


def _bordered(A, rhs=None, total=1.0):
    """x and lambda with A x = rhs + lambda 1, 1'x = total, from [A -1; 1' 0].

    An LU solve, then one step of iterative refinement.  At n in the
    thousands the plain LU is the less accurate side: on a random
    polygon at n = 3000 it is 2.9e-12 off CG's masses, with or without
    P, and refined 3e-13; through _bordered_equilibrium on the planar
    two-ball union it is 8.6e-12 and 2.3e-10 off at n = 600 and 2000,
    and refined 1.6e-13 and 1.0e-12.
    """
    from scipy.linalg import lu_factor, lu_solve

    n = len(A)
    B = np.zeros((n + 1, n + 1))
    B[:n, :n] = A
    B[:n, n] = -1.0
    B[n, :n] = 1.0
    b = np.zeros(n + 1)
    if rhs is not None:
        b[:n] = rhs
    b[n] = total
    lu = lu_factor(B)
    sol = lu_solve(lu, b)
    sol += lu_solve(lu, b - B @ sol)
    return sol[:n], float(sol[n])


def _bordered_solve_of(apply, rhs, total=1.0, screen=None, precondition=None):
    """constrained_solve's answer from _bordered, on the matrix apply forms."""
    A = np.column_stack([apply(e) for e in np.eye(len(rhs))])
    return _bordered(A, rhs, total)


def _bordered_equilibrium(op):
    """equilibrium_measure on op's unmirrored copy, every working set solved by _bordered.

    The copy's even block is the full K, so each working set is a system
    of its nodes, as in the unreduced program.
    """
    full = dc.assemble_operator(replace(op.cloud, mirror=None), op.params)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dropcap.equilibrium, "constrained_solve", _bordered_solve_of)
        return dc.equilibrium_measure(full)


def _max_rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _operator(name, R, M):
    shape, role, alpha = CLOUDS[name]
    cloud = dc.discretize(shape(R), M, role)
    return dc.assemble_operator(cloud, dc.KernelParams(3, alpha))


@pytest.mark.parametrize("name", sorted(CLOUDS))
@generated
@given(R=radii, M=node_counts)
def test_cg_agrees_with_bordered_solve(name, R, M):
    op = _operator(name, R, M)
    res, lu = dc.equilibrium_measure(op), _bordered_equilibrium(op)
    assert res.iterations == lu.iterations
    assert _max_rel(res.masses, lu.masses) <= 1e-12
    assert res.energy == pytest.approx(lu.energy, rel=1e-12)
    if name == "annulus":
        # the inner sphere drops out, so restricted sets were solved
        assert res.iterations > 1 and np.count_nonzero(res.masses) < len(res.masses)


@generated
@given(R=radii, M=node_counts, seed=st.integers(0, 2**32 - 1))
def test_restricted_unit_charge_solves_agree(R, M, seed):
    K = full_kernel_matrix(dc.discretize(dc.Ball(ORIGIN, R), M, "boundary"), COULOMB)
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(len(K), size=len(K) // 2, replace=False))
    K_act = K[np.ix_(idx, idx)]
    m, lam = constrained_solve(lambda v: symv(K_act, v), np.zeros(len(idx)), 1.0)
    m_lu, lam_lu = _bordered(K_act)
    assert _max_rel(m, m_lu) <= 1e-12
    assert lam == pytest.approx(lam_lu, rel=1e-12)
    assert m.sum() == pytest.approx(1.0, rel=1e-14)


@generated
@given(
    center=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
    R=radii,
    M=node_counts,
    E=st.tuples(*[st.floats(-2.0, 2.0)] * 3).filter(lambda e: max(map(abs, e)) > 0.1),
)
def test_field_solve_agrees_with_bordered_solve(center, R, M, E):
    cloud = dc.discretize(dc.Ball(center, R), M, "boundary")
    op = dc.assemble_operator(cloud, COULOMB)
    rhs = -0.5 * dc.LinearPotential(E).potential_values(cloud.points)
    w, lam = op.solve(rhs)
    w_lu, lam_lu = _bordered(full_kernel_matrix(op.cloud, op.params), rhs, 0.0)
    assert _max_rel(w, w_lu) <= 1e-12
    # lambda may sit near zero: compare it on the scale of rhs
    assert abs(lam - lam_lu) <= 1e-12 * float(np.abs(rhs).max())
    assert abs(w.sum()) <= 1e-12 * float(np.abs(w).sum())


def _old_entropic(cloud):
    """Masses and multiplier from the bordered system of 2G."""
    K = full_kernel_matrix(cloud, COULOMB)
    G = K / (4.0 * np.pi) + np.diag(1.0 / cloud.weights)
    return _bordered(2.0 * G)


@generated
@given(R=st.floats(0.6, 1.5), M=node_counts)
def test_entropic_matches_the_bordered_system(R, M):
    cloud = dc.discretize(dc.Ball(ORIGIN, R), M, "volume")
    res = dc.solve_entropic(cloud)
    m_old, lam_old = _old_entropic(cloud)
    assert _max_rel(res.masses, m_old) <= 1e-12
    assert res.multiplier == pytest.approx(lam_old, rel=1e-12)


def _vanishing_after(products):
    """Wrap a solve so that its operator turns to zero after some products."""

    def wrap(solve):
        def run(apply, *rest):
            done = 0

            def vanishing(v):
                nonlocal done
                done += 1
                return apply(v) if done <= products else 0.0 * v

            return solve(vanishing, *rest)

        return run

    return wrap


def test_a_cg_breakdown_raises_with_a_feasible_best_iterate(monkeypatch):
    cloud = dc.discretize(dc.Ball(ORIGIN, 1.0), 400, "boundary")
    volume = dc.discretize(dc.Ball(ORIGIN, 1.0), 400, "volume")

    def field(x):
        return x[:, 0] ** 2 - x[:, 1]  # an even and an odd part

    # p'Ap = 0 from the fifth product on: a breakdown
    wrap = _vanishing_after(4)
    for module, name in [
        (dropcap.equilibrium, "constrained_solve"),
        (dropcap.entropic, "constrained_solve"),
        (dropcap.operators, "constrained_solve"),
        (dropcap.operators, "cg_solve"),
    ]:
        monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    op = dc.assemble_operator(cloud, COULOMB)
    runs = {
        "equilibrium": (lambda: dc.equilibrium_measure(op), cloud, 1.0),
        "field": (lambda: dc.solve_external(op, field), cloud, 0.0),
        "entropic": (lambda: dc.solve_entropic(volume), volume, 1.0),
    }
    for label, (run, nodes, total) in runs.items():
        with pytest.raises(NonConvergenceError, match="broke down") as exc:
            run()
        x, lam = exc.value.result
        assert x.shape == (nodes.n_nodes,), label
        assert np.all(np.isfinite(x)) and np.isfinite(lam), label
        assert x.sum() == pytest.approx(total, abs=1e-12), label
        assert exc.value.residual > 0.0, label
    # the active-set loop had accepted no working set: uniform node masses
    with pytest.raises(NonConvergenceError) as exc:
        dc.equilibrium_measure(op)
    masses, lam = exc.value.result
    np.testing.assert_array_equal(masses, np.full(op.n_nodes, 1.0 / op.n_nodes))


def test_a_centred_field_does_no_even_solve(monkeypatch):
    # a linear field on a cloud mirrored through the origin is odd: the
    # even solve starts at its answer, zero, and takes no product
    products = {"even": 0, "odd": 0}

    def counting(part, solve):
        def run(apply, *rest):
            def counted(v):
                products[part] += 1
                return apply(v)

            return solve(counted, *rest)

        return run

    monkeypatch.setattr(
        dropcap.operators, "constrained_solve", counting("even", constrained_solve)
    )
    monkeypatch.setattr(dropcap.operators, "cg_solve", counting("odd", cg_solve))
    cloud = dc.discretize(dc.Ball(ORIGIN, 1.0), 500, "boundary")
    op = dc.assemble_operator(cloud, COULOMB)
    fr = dc.solve_external(op, dc.LinearPotential((1.0, 0.0, 0.0)))
    assert products["even"] == 0
    assert products["odd"] > 0
    assert fr.lam == 0.0
    assert fr.el_residual < 1e-10


def test_screen_sees_one_loose_iterate():
    K = full_kernel_matrix(dc.discretize(dc.Ball(ORIGIN, 1.0), 300, "boundary"), COULOMB)
    rhs = np.zeros(len(K))
    start = np.linalg.norm(K.mean(axis=1))  # the residual of x0 = 1/n

    def apply(v):
        return symv(K, v)

    def residual(x):
        r = K @ x
        return np.linalg.norm(r - r.mean()) / start

    seen = []
    x, lam = constrained_solve(apply, rhs, 1.0, lambda x: seen.append(residual(x)) or True)
    x_plain, lam_plain = constrained_solve(apply, rhs, 1.0)
    assert np.array_equal(x, x_plain) and lam == lam_plain  # a passed screen changes nothing
    assert len(seen) == 1
    assert 1e-12 < seen[0] <= 2.0 * CG_SCREEN_RTOL
    with pytest.raises(ScreenedOut) as stop:
        constrained_solve(apply, rhs, 1.0, lambda x: False)
    assert residual(stop.value.x) == pytest.approx(seen[0], rel=1e-6)


def _count_products(op):
    """equilibrium_measure(op) and the number of products with K or E it took."""
    products = 0

    def counted(A, x, lower=True):
        nonlocal products
        products += 1
        return symv(A, x, lower)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dropcap.operators, "symv", counted)
        result = dc.equilibrium_measure(op)
    return result, products


def _screened_and_unscreened(cloud, params):
    """(iterations, products) with the screen on, then off."""
    op = dc.assemble_operator(cloud, params)
    res, products = _count_products(op)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dropcap.linalg, "CG_SCREEN_RTOL", 0.0)
        op_full = dc.assemble_operator(cloud, params)
        res_full, full = _count_products(op_full)
    assert np.array_equal(res.masses, res_full.masses) and res.energy == res_full.energy
    return op, (res.iterations, products), (res_full.iterations, full)


def test_screen_cuts_the_products_of_collapsing_working_sets():
    # alpha = 2 on a volume ball: the interior drops out over several sets
    cloud = dc.discretize(dc.Ball(ORIGIN, 1.0), 700, "volume")
    op, (iters, products), (iters_full, full) = _screened_and_unscreened(cloud, COULOMB)
    assert 700 <= op.n_nodes <= 900
    assert iters == iters_full > 2
    assert products <= 0.6 * full


def test_screen_costs_nothing_when_every_node_stays():
    cloud = dc.discretize(dc.Ball(ORIGIN, 1.0), 600, "boundary")
    op, screened, unscreened = _screened_and_unscreened(cloud, COULOMB)
    assert screened == unscreened
    assert screened[0] == 1


def test_log_circle_is_solved_at_the_uniform_start():
    # equal arcs on a circle: the uniform start is the equilibrium measure,
    # so the solve takes the start's product and the KKT product only.  (At
    # radius 1 the multiplier -log(capacity) is near zero, and so is the
    # start residual the run stops relative to: it steps on round-off.)
    cloud = dc.discretize(dc.Ball((0.0, 0.0), 2.0), 300, "boundary")
    op = dc.assemble_operator(cloud, dc.KernelParams(2, 2.0))
    res, products = _count_products(op)
    assert products == 2 and res.iterations == 1
    assert np.array_equal(res.masses, np.full(op.n_nodes, 1.0 / op.n_nodes))
    assert res.kkt_residual < 1e-12
    assert res.capacity == pytest.approx(2.0, rel=0.02)


# planar shapes for the log kernel: kind, then a seed, polygon order or radius
LOG_SHAPES = st.one_of(
    st.tuples(st.just("random polygon"), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("regular polygon"), st.integers(3, 12)),
    st.tuples(st.just("disk"), st.sampled_from([1.0, 0.5, 3.0])),
)


def _log_shape(kind, value):
    if kind == "random polygon":
        return _random_polygon(np.random.default_rng(value))
    if kind == "regular polygon":
        return _regular_polygon(value)
    return dc.Ball((0.0, 0.0), value)


@settings(max_examples=20)
@given(shape=LOG_SHAPES, M=st.integers(150, 600))
@example(shape=("random polygon", 1), M=600)
def test_log_kernel_solves_agree_with_the_bordered_reference(shape, M):
    kind, value = shape
    cloud = dc.discretize(_log_shape(kind, value), M, "boundary")
    op = dc.assemble_operator(cloud, dc.KernelParams(2, 2.0))
    res = dc.equilibrium_measure(op)
    assert res.kkt_residual < 1e-12
    if kind == "disk" and value != 1.0:
        # the uniform start is exact here, and the LU is the less accurate side
        return
    lu = _bordered_equilibrium(op)
    assert res.iterations == lu.iterations
    assert _max_rel(res.masses, lu.masses) <= 1e-12
    # lambda = -log(capacity) sits near zero for these unit-area shapes
    assert abs(res.energy - lu.energy) <= 1e-12 * max(abs(lu.energy), 1.0)


def test_a_log_polygon_indefinite_on_zero_sum_vectors_solves_like_the_reference():
    # a thin random polygon (the third of convex_scan_2d's seed 644015297)
    # whose K at n = 600 has a negative eigenvalue on zero-sum vectors:
    # projected CG steps through the negative curvature and reaches the
    # stationary point of the bordered system, all of its masses positive
    rng = np.random.default_rng(644015297)
    shape = [_random_polygon(rng) for _ in range(3)][-1]
    op = dc.assemble_operator(dc.discretize(shape, 600, "boundary"), dc.KernelParams(2, 2.0))
    K = full_kernel_matrix(op.cloud, op.params)
    P = np.eye(len(K)) - 1.0 / len(K)
    assert np.linalg.eigvalsh(P @ K @ P)[0] < -0.1
    res, lu = dc.equilibrium_measure(op), _bordered_equilibrium(op)
    assert res.iterations == lu.iterations == 1
    assert res.masses.min() > 0.0
    assert res.kkt_residual < 1e-12
    # the negative direction costs a digit against the definite shapes
    assert _max_rel(res.masses, lu.masses) <= 1e-11
    assert abs(res.energy - lu.energy) <= 1e-12 * max(abs(lu.energy), 1.0)


def test_a_shift_by_c_11t_changes_only_the_multiplier(stand_in_operator):
    # K - c 11' with 1'(K - c 11')1 < 0 is indefinite; on zero-sum vectors
    # it is K, and its constrained solution keeps K's masses and shifts the
    # multiplier by -c
    K = full_kernel_matrix(dc.discretize(dc.Ball(ORIGIN, 1.0), 200, "boundary"), COULOMB)
    c = 2.0 * K.mean()
    A = K - c
    assert np.linalg.eigvalsh(A)[0] < 0.0
    res = dc.equilibrium_measure(stand_in_operator(A))
    m, lam = res.masses, res.energy
    m_lu, lam_lu = _bordered(A)
    on_K = dc.equilibrium_measure(stand_in_operator(K))
    assert res.iterations == 1
    assert _max_rel(m, m_lu) <= 1e-12
    assert lam == pytest.approx(lam_lu, rel=1e-12)
    assert _max_rel(m, on_K.masses) <= 1e-12
    assert lam == pytest.approx(on_K.energy - c, rel=1e-12)


def test_a_stalled_run_raises_after_as_many_products_as_unknowns(monkeypatch):
    # eigenvalues 1 ... 1e12: CG loses orthogonality and has not reached
    # 1e-15 after n products, so with the fixed floor out of the way the
    # run stops at n
    n = 40
    d = np.logspace(0.0, 12.0, n)
    calls = 0

    def apply(v):
        nonlocal calls
        calls += 1
        return d * v

    monkeypatch.setattr(dropcap.linalg, "CG_MAX_ITER", 0)
    with pytest.raises(NonConvergenceError, match="did not converge") as exc:
        cg_solve(apply, np.ones(n))
    assert calls == n
    assert exc.value.result.shape == (n,)
    assert exc.value.residual > dropcap.linalg.CG_RTOL


def test_symmetric_products_match_numpy(ball_op_2000, rng):
    x = rng.standard_normal(ball_op_2000.n_nodes)
    Kx = full_kernel_matrix(ball_op_2000.cloud, COULOMB) @ x
    assert _max_rel(ball_op_2000.apply(x), Kx) <= 1e-12
    assert ball_op_2000.energy(x) == pytest.approx(x @ Kx, rel=1e-12)


# closed planar curves whose clouds record cycles: kind, then a seed, an
# order, or a radius and a center
CURVES = st.one_of(
    st.tuples(st.just("random polygon"), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("regular polygon"), st.integers(3, 12)),
    st.tuples(
        st.just("disk"),
        st.tuples(st.floats(0.3, 3.0), st.tuples(*[st.floats(-3.0, 3.0)] * 2)),
    ),
)


def _curve(kind, value):
    if kind == "disk":
        radius, center = value
        return dc.Ball(center, radius)
    return _log_shape(kind, value)


def _definite_on_zero_sums(K):
    """Whether K is positive definite on 1^perp: P K P + 11'/n has a Cholesky factor."""
    PKP = K - K.mean(axis=0) - K.mean(axis=1)[:, None] + K.mean()
    try:
        np.linalg.cholesky(PKP + 1.0 / len(K))
    except np.linalg.LinAlgError:
        return False
    return True


@settings(max_examples=10)
@given(curve=CURVES, M=st.integers(100, 3000))
@example(curve=("random polygon", 644015297), M=3000)
def test_preconditioned_curve_solves_agree_with_the_bordered_reference(curve, M):
    cloud = dc.discretize(_curve(*curve), M, "boundary")
    assert cloud.cycles == (cloud.n_nodes,)
    op = dc.assemble_operator(cloud, dc.KernelParams(2, 2.0))
    res = dc.equilibrium_measure(op)
    # a convex curve keeps every node: one working set, the whole cycle,
    # so the reference is the bordered system of the full K
    assert res.iterations == 1 and res.masses.min() > 0.0
    K = full_kernel_matrix(cloud, op.params)
    m_lu, lam_lu = _bordered(K)
    assert abs(res.energy - lam_lu) <= 1e-12 * max(abs(lam_lu), 1.0)
    # a direction of negative curvature costs a digit, as above
    bound = 1e-12 if _definite_on_zero_sums(K) else 1e-11
    assert _max_rel(res.masses, m_lu) <= bound


def _recording_preconditioners(mp):
    """Record the cycles of each preconditioner equilibrium_measure builds."""
    built = []

    def recorded(cycles):
        built.append(cycles)
        return dropcap.linalg.curve_preconditioner(cycles)

    mp.setattr(dropcap.equilibrium, "curve_preconditioner", recorded)
    return built


def _preconditioned_products(shape, M):
    """Products with K of one log-kernel equilibrium solve, and its preconditioners' cycles."""
    op = dc.assemble_operator(dc.discretize(shape, M, "boundary"), dc.KernelParams(2, 2.0))
    with pytest.MonkeyPatch.context() as mp:
        built = _recording_preconditioners(mp)
        res, products = _count_products(op)
    return op, res, products, built


def _seeded_polygon(i):
    rng = np.random.default_rng(644015297)
    return [_random_polygon(rng) for _ in range(i + 1)][-1]


# the shapes of the count table, with n = 8000 on the slowest
@pytest.mark.parametrize(
    "name, shape, M",
    [
        ("unit disk", dc.Ball((0.0, 0.0), 1.0), 2000),
        ("square", _regular_polygon(4), 2000),
        ("triangle", _regular_polygon(3), 2000),
        ("random polygon 0", _seeded_polygon(0), 600),
        ("random polygon 0", _seeded_polygon(0), 2000),
        ("indefinite polygon 2", _seeded_polygon(2), 600),
        ("indefinite polygon 2", _seeded_polygon(2), 8000),
    ],
)
def test_a_preconditioned_log_solve_takes_at_most_40_products(name, shape, M):
    # unpreconditioned these take 48 to 453 products, growing with n
    op, res, products, built = _preconditioned_products(shape, M)
    assert built == [(op.n_nodes,)]
    assert res.iterations == 1
    assert products <= 40


def test_the_unit_circle_chases_round_off_for_a_few_products_only(monkeypatch):
    # lambda = -log(capacity) is near zero here, so the start residual the
    # run stops relative to is small, and CG steps on round-off: without P
    # for 72 products
    products = 0

    def counted(A, x, lower=True):
        nonlocal products
        products += 1
        return symv(A, x, lower)

    monkeypatch.setattr(dropcap.operators, "symv", counted)
    res = dc.solve_shape(dc.Ball((0.0, 0.0), 1.0), 2.0, n_nodes=4000)
    assert products <= 6
    assert _max_rel(res.masses, np.full(res.cloud.n_nodes, 1.0 / res.cloud.n_nodes)) <= 1e-12


def test_the_planar_annulus_preconditions_both_cycles_then_the_outer_one():
    op, res, _, built = _preconditioned_products(dc.Annulus((0.3, -0.2), 0.5, 1.0), 600)
    n_in, n_out = op.cloud.cycles
    assert built == [(n_in, n_out), (n_out,)]
    assert res.iterations == 2 and not res.masses[:n_in].any()
    lu = _bordered_equilibrium(op)
    assert res.iterations == lu.iterations
    assert _max_rel(res.masses, lu.masses) <= 1e-12
    assert abs(res.energy - lu.energy) <= 1e-12 * max(abs(lu.energy), 1.0)


@pytest.mark.parametrize("M", [600, 2000])
def test_a_planar_union_preconditions_one_cycle_per_ball(M):
    # unpreconditioned these take 29 products, and 39 at n = 8000
    shape = dc.UnionOfBalls((dc.Ball((0.0, 0.0), 1.0), dc.Ball((3.0, 0.0), 0.5)))
    op, res, products, built = _preconditioned_products(shape, M)
    assert op.cloud.cycles == (M // 2, M // 2)
    assert built == [op.cloud.cycles]
    assert res.iterations == 1 and products <= 20
    m_lu, lam_lu = _bordered(full_kernel_matrix(op.cloud, op.params))
    assert _max_rel(res.masses, m_lu) <= 1e-11
    assert abs(res.energy - lam_lu) <= 1e-11 * max(abs(lam_lu), 1.0)


def test_a_working_set_that_cuts_a_cycle_is_not_preconditioned():
    # a start with one node of the polygon inactive: that set has no
    # whole cycle, and the full set the sweep restores has one
    shape = _regular_polygon(5)
    op = dc.assemble_operator(dc.discretize(shape, 300, "boundary"), dc.KernelParams(2, 2.0))
    start = np.ones(op.n_nodes, dtype=bool)
    start[7] = False
    with pytest.MonkeyPatch.context() as mp:
        built = _recording_preconditioners(mp)
        res = dc.equilibrium_measure(op, start_active=start)
    assert res.iterations == 2 and built == [(op.n_nodes,)]
    assert _max_rel(res.masses, dc.equilibrium_measure(op).masses) <= 1e-12


@settings(max_examples=20)
@given(
    cycles=st.lists(st.integers(1, 400), min_size=1, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_curve_preconditioner_is_symmetric_and_positive(cycles, seed):
    P = dropcap.linalg.curve_preconditioner(cycles)
    n = sum(cycles)
    rng = np.random.default_rng(seed)
    y, z = rng.standard_normal((2, n))
    scale = max(cycles) * np.linalg.norm(y) * np.linalg.norm(z)
    assert abs(y @ P(z) - z @ P(y)) <= 1e-13 * scale
    z -= z.mean()
    assert z @ P(z) >= 0.9 * (z @ z)
    # on each cycle the circulant with symbol max(|k|, 1)
    start = 0
    for length in cycles:
        k = int(rng.integers(0, length // 2 + 1))
        mode = np.zeros(n)
        mode[start : start + length] = np.cos(2.0 * np.pi * k * np.arange(length) / length)
        np.testing.assert_allclose(P(mode), max(k, 1) * mode, atol=1e-12 * length)
        start += length
