"""Competitor families and stability scans."""

import numpy as np
import pytest

import dropcap as dc
from dropcap.errors import ValidationError

import oracles


# ---------------------------------------------------------------------------
# many balls


def test_many_balls_energies_decrease_toward_sphere_area():
    pts = dc.many_balls_family([4**k for k in range(1, 7)], beta=0.6, charge=1.0)
    energies = [p.analytic_energy for p in pts]
    assert all(a > b for a, b in zip(energies, energies[1:]))
    assert energies[-1] > 4.0 * np.pi


def test_many_balls_deficit_rate():
    ns = [4**k for k in range(4, 9)]
    pts = dc.many_balls_family(ns, beta=0.6, charge=1.0)
    deficit = np.array([p.analytic_energy for p in pts]) - 4.0 * np.pi
    slope = np.polyfit(np.log(ns), np.log(deficit), 1)[0]
    # beta = 0.6 makes the droplet perimeter decay at rate beta(N-1)-1
    assert slope == pytest.approx(-0.2, abs=0.02)


def test_many_balls_components_and_shape():
    p = dc.many_balls_family([4], beta=0.6, charge=2.0)[0]
    r = 4.0**-0.6
    R = (1.0 - 4.0 * r**3) ** (1.0 / 3.0)
    per = 4 * np.pi * (R**2 + 4 * r**2)
    inter = (4.0 / 4.0) * (1.0 / r)  # Q^2/n * I(B_1)/r
    assert p.components["perimeter"] == pytest.approx(per, rel=1e-12)
    assert p.components["interaction"] == pytest.approx(inter, rel=1e-12)
    assert p.analytic_energy == pytest.approx(per + inter, rel=1e-12)
    assert len(p.shape.balls) == 5
    assert dc.volume(p.shape) <= 4.0 * np.pi / 3.0 + 1e-12


def test_many_balls_off_coulomb_solves_the_ball_energy():
    # below alpha = 2 the unit ball's energy comes from a 1500-node volume
    # solve; the bound is the largest error of that path at alpha = 1.5
    # over n = 1189...6403 (ROADMAP item 4), 1.0e-2
    alpha, beta, charge = 1.5, 0.6, 2.0
    for p in dc.many_balls_family([4, 16], beta=beta, charge=charge, alpha=alpha):
        r = float(p.n) ** -beta
        exact = charge**2 / p.n * r ** (alpha - 3.0) * oracles.riesz_ball_energy_3d(alpha)
        assert p.components["interaction"] == pytest.approx(exact, rel=1.0e-2)


def test_many_balls_numeric_close_to_closed_form():
    p = dc.many_balls_family([8], beta=0.6, charge=1.0, numeric_nodes=500)[0]
    assert p.numeric_energy == pytest.approx(p.analytic_energy, rel=0.02)


def test_droplet_cross_terms_summed_per_distance_match_the_pairwise_sum():
    n, beta, charge, alpha, separation, nodes = 6, 0.6, 1.3, 1.5, 7.3, 150
    p = dc.many_balls_family(
        [n], beta=beta, charge=charge, alpha=alpha, separation=separation,
        numeric_nodes=nodes,
    )[0]
    params = dc.KernelParams(3, alpha)
    template = dc.discretize(dc.Ball((0.0, 0.0, 0.0), n**-beta), nodes, "volume")
    u = template.weights / template.weights.sum() * (charge / n)
    pairwise = n * dc.assemble_operator(template, params).energy(u)
    centers = separation * np.arange(1, n + 1)
    for i in range(n):
        for j in range(n):
            if i != j:
                shifted = template.points + [centers[i] - centers[j], 0.0, 0.0]
                pairwise += dc.potential_at(params, template, u, shifted) @ u
    total = p.numeric_energy - p.components["perimeter"]
    assert total == pytest.approx(pairwise, rel=1e-13)


def test_many_balls_rejects_bad_rates():
    with pytest.raises(ValidationError):
        dc.many_balls_family([4], beta=0.5, charge=1.0)
    with pytest.raises(ValidationError):
        dc.many_balls_family([4], beta=1.0, charge=1.0)
    with pytest.raises(ValidationError):  # droplets exhaust the volume
        dc.many_balls_family([1], beta=0.51, charge=1.0)
    with pytest.raises(ValidationError):
        dc.many_balls_family([4], beta=0.6, charge=1.0, separation=1.0)


@pytest.mark.parametrize("alpha", [1.0, 3.0, 0.5])
def test_many_balls_rejects_alpha_outside_one_to_dim(alpha):
    with pytest.raises(ValidationError, match="alpha"):
        dc.many_balls_family([4], beta=0.6, charge=1.0, alpha=alpha)


@pytest.mark.parametrize("n", [0, -4])
def test_many_balls_rejects_nonpositive_counts(n):
    with pytest.raises(ValidationError, match="positive"):
        dc.many_balls_family([4, n], beta=0.6, charge=1.0)


@pytest.mark.parametrize("charge", [np.nan, np.inf])
def test_many_balls_rejects_a_nonfinite_charge(charge):
    with pytest.raises(ValidationError, match="charge"):
        dc.many_balls_family([4], beta=0.6, charge=charge)


# ---------------------------------------------------------------------------
# two balls in a field


def test_two_balls_energy_diverges():
    pts = dc.two_balls_field_family([1, 2, 4, 8, 16, 32], field_strength=1.0, n_nodes=500)
    energies = [p.analytic_energy for p in pts]
    assert all(a > b for a, b in zip(energies[1:], energies[2:]))
    assert energies[-1] < -100.0
    numeric = [p.numeric_energy for p in pts]
    assert numeric[-1] < -100.0


def test_two_balls_numeric_tracks_closed_form():
    pts = dc.two_balls_field_family([4, 8], field_strength=1.0, n_nodes=700)
    for p in pts:
        assert p.numeric_energy == pytest.approx(p.analytic_energy, abs=0.03 * abs(p.analytic_energy) + 0.5)


def test_two_balls_without_field_stays_positive():
    pts = dc.two_balls_field_family([2, 4], field_strength=0.0, n_nodes=400)
    for p in pts:
        assert p.components["field"] == 0.0
        assert p.components["interaction"] > 0.0
        assert p.analytic_energy > 0.0
    # the negative cross term fades as the balls separate, so the
    # interaction climbs toward twice the single-ball self energy
    r = 0.5 ** (1.0 / 3.0)
    q = 4.0 * np.pi / 3.0 * r**3
    limit = 2.0 * q**2 * (6.0 / 5.0) / r
    inter = [p.components["interaction"] for p in pts]
    assert inter[0] < inter[1] < limit


def test_two_balls_components():
    E = 2.0
    p = dc.two_balls_field_family([3], field_strength=E, n_nodes=400)[0]
    r = 0.5 ** (1.0 / 3.0)
    q = 4.0 * np.pi / 3.0 * r**3
    per = 8.0 * np.pi * r**2
    self2 = 2.0 * q**2 * (6.0 / 5.0) / r
    cross = -2.0 * q**2 / 6.0
    assert p.components["perimeter"] == pytest.approx(per, rel=1e-12)
    assert p.components["interaction"] == pytest.approx(self2 + cross, rel=1e-12)
    assert p.components["field"] == pytest.approx(-2.0 * E * 3.0 * q, rel=1e-12)


def test_two_balls_overlap_rejected():
    with pytest.raises(ValidationError):
        dc.two_balls_field_family([0], field_strength=1.0, n_nodes=400)


def test_two_balls_is_posed_from_three_dimensions():
    with pytest.raises(dc.UnsupportedConfigurationError, match="dimension"):
        dc.two_balls_field_family([2], field_strength=1.0, n_nodes=400, dim=2)


def test_two_balls_numeric_field_term_is_the_closed_form():
    # the volume cloud of a ball centered at the origin has its x1 moment
    # at round-off, so the field term on the cloud is the closed form
    E, n, r = 1.7, 3, 0.5 ** (1.0 / 3.0)
    p = dc.two_balls_field_family([n], field_strength=E, n_nodes=400)[0]
    cloud = dc.discretize(dc.Ball((0.0, 0.0, 0.0), r), 400, "volume")
    w, x1 = cloud.weights, cloud.points[:, 0]
    on_cloud = -E * (float(w @ (x1 + n)) - float(w @ (x1 - n)))
    assert on_cloud == pytest.approx(p.components["field"], rel=1e-14)


# ---------------------------------------------------------------------------
# slab


def test_slab_exponents_and_crossover():
    out = dc.slab_family([16, 32, 64, 128, 256, 512], field_strength=1.0, n_nodes=600)
    fits = out["fitted_exponents"]
    assert fits["perimeter"] == pytest.approx(0.5, abs=0.05)
    assert fits["interaction"] == pytest.approx(0.5, abs=0.1)
    assert fits["field"] == pytest.approx(1.0, abs=0.02)
    assert out["crossover"] == pytest.approx(101.0, abs=5.0)
    energies = [p.analytic_energy for p in out["points"]]
    assert energies[-1] < -100.0
    for p in out["points"]:
        assert p.numeric_energy == pytest.approx(p.analytic_energy, abs=0.1)


def test_slab_field_term_is_exact():
    out = dc.slab_family([16], field_strength=3.0, n_nodes=600)
    p = out["points"][0]
    eps = (4.0 * np.pi / 3.0 / 16.0) ** 0.5
    assert p.components["field"] == pytest.approx(-3.0 * (16.0 - eps), rel=1e-12)
    assert p.components["perimeter"] == pytest.approx(2 * eps**2 + 4 * 16 * eps, rel=1e-12)


def test_slab_too_short_rejected():
    with pytest.raises(ValidationError):
        dc.slab_family([2], field_strength=1.0, n_nodes=600)
    with pytest.raises(ValidationError, match="cannot fit"):
        dc.slab_family([16, 0], field_strength=1.0, n_nodes=200)


SHORTEST_SLAB = (4.0 * 4.0 * np.pi / 3.0) ** (1.0 / 3.0)  # where 2 eps = n


@pytest.mark.parametrize("E", [14.0, 20.0, 50.0, 1000.0])
def test_slab_crossover_in_a_strong_field_is_the_shortest_slab(E):
    # the energy is already negative on the shortest slab whose caps fit,
    # so no shorter (overlapping) slab may be reported
    out = dc.slab_family([16], field_strength=E, n_nodes=200)
    assert out["crossover"] == pytest.approx(SHORTEST_SLAB, rel=1e-15)
    assert out["crossover"] == pytest.approx(2.558878, abs=1e-6)


@pytest.mark.parametrize("E, root", [(1.0, 101.05368677965224), (10.0, 3.0942882977638537)])
def test_slab_crossover_is_the_root_of_the_closed_form(E, root):
    # the roots found on the closed-form energy before the search moved to
    # admissible lengths only; 2e-12 is brentq's absolute tolerance
    out = dc.slab_family([16], field_strength=E, n_nodes=200)
    assert out["crossover"] == pytest.approx(root, abs=2e-12)
    assert out["crossover"] > SHORTEST_SLAB


def test_slab_without_field_fits_only_the_nonzero_components():
    out = dc.slab_family([16, 32, 64], field_strength=0.0, n_nodes=200)
    assert set(out["fitted_exponents"]) == {"perimeter", "interaction"}
    assert out["crossover"] is None
    assert all(p.components["field"] == 0.0 for p in out["points"])


def test_family_energy_is_the_component_sum():
    families = [
        dc.many_balls_family([4, 16], beta=0.6, charge=1.5),
        dc.two_balls_field_family([2, 5], field_strength=1.0, n_nodes=200),
        dc.slab_family([16, 32], field_strength=2.0, n_nodes=200)["points"],
    ]
    for points in families:
        for p in points:
            assert p.analytic_energy == sum(p.components.values())


# ---------------------------------------------------------------------------
# perimeter expansion


def test_fuglede_expansion_coefficients():
    p1, p2 = dc.perimeter_expansion_coefficients(((2, 0, 1.0),))
    assert p1 == 0.0
    assert p2 == pytest.approx(oracles.raw_perimeter_p2([(2, 0, 1.0)]), rel=1e-14)
    p1, p2 = dc.perimeter_expansion_coefficients(((0, 0, 0.5),))
    assert p1 == pytest.approx(oracles.raw_perimeter_p1(0.5), rel=1e-14)
    assert p2 == pytest.approx(0.25, rel=1e-14)


def test_fuglede_remainder_is_fourth_order():
    eps = [0.4 / 2**k for k in range(5)]
    rows = dc.fuglede_check(((2, 0, 1.0), (3, 1, 0.5)), eps)
    ratios = [abs(r["ratio_eps3"]) for r in rows]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))  # remainder = O(eps^4)
    assert max(ratios) < 1.0


def test_fuglede_zero_amplitude_row_is_exact():
    rows = dc.fuglede_check(((2, 0, 1.0),), [0.0])
    assert rows[0]["remainder"] == pytest.approx(0.0, abs=1e-12)
    assert rows[0]["perimeter"] == pytest.approx(4.0 * np.pi, rel=1e-13)


def test_fuglede_linear_term_detected():
    # with a c00 component the slope at eps = 0 must match P1
    modes = ((0, 0, 0.7), (2, 0, 0.5))
    p1, _ = dc.perimeter_expansion_coefficients(modes)
    h = 1e-4
    rows = dc.fuglede_check(modes, [h, -h])
    slope = (rows[0]["perimeter"] - rows[1]["perimeter"]) / (2 * h)
    assert slope == pytest.approx(p1, abs=1e-6)


def test_fuglede_rejects_degenerate_profile():
    with pytest.raises(ValidationError):
        dc.fuglede_check(((0, 0, 1.0),), [-4.0])


def test_translation_mode_is_second_order_neutral():
    # renormalized l = 1 graphs deviate from the ball only at fourth order
    for t in (0.1, 0.05):
        s = dc.renormalize_to_unit_volume(dc.NearlySpherical(modes=((1, 0, 1.0),), eps=t))
        deficit = dc.perimeter(s) - 4.0 * np.pi
        assert 0.0 <= deficit < 0.05 * t**4 + 1e-12


# ---------------------------------------------------------------------------
# rayleigh scan


def test_rayleigh_threshold_oracle_values():
    assert dc.rayleigh_threshold_mode(2) == pytest.approx(oracles.rayleigh_threshold(2), rel=1e-14)
    assert dc.rayleigh_threshold_mode(3) == pytest.approx(np.sqrt(10 * np.pi), rel=1e-14)
    with pytest.raises(ValidationError):
        dc.rayleigh_threshold_mode(1)


def test_rayleigh_scan_structure():
    scan = dc.rayleigh_scan(2, [-0.08, 0.0, 0.08], [0.0, 3.0, 6.0], n_nodes=700)
    i0 = scan.amplitudes.index(0.0)
    # zero amplitude reproduces the ball row for every charge
    assert scan.perimeters[i0] == pytest.approx(4.0 * np.pi, rel=1e-12)
    for qi, q in enumerate(scan.charges):
        expected = 4.0 * np.pi + q * q * scan.riesz_energies[i0]
        assert scan.energy_table[qi][i0] == pytest.approx(expected, rel=1e-12)
    # uncharged drops prefer the ball
    assert scan.energy_table[0][i0] == min(scan.energy_table[0])
    # strongly charged drops prefer the deformation
    assert scan.energy_table[-1][i0] == max(scan.energy_table[-1])
    assert all(scan.converged)


def test_rayleigh_threshold_matches_linear_stability():
    scan = dc.rayleigh_scan(2, [-0.08, 0.0, 0.08], [0.0, 5.0], n_nodes=1200)
    assert scan.threshold_estimate is not None
    assert scan.threshold_estimate == pytest.approx(oracles.rayleigh_threshold(2), rel=0.05)
    assert scan.d2_perimeter == pytest.approx(
        2.0 * oracles.perimeter_quadratic_form(2), rel=0.05
    )


def test_a_failed_rayleigh_solve_keeps_its_best_iterate(second_solve_fails):
    scan = dc.rayleigh_scan(2, [-0.08, 0.0, 0.08], [0.0, 3.0], n_nodes=300)
    (err,) = second_solve_fails
    lam = err.result[1]
    assert scan.converged == (True, False, True)
    assert scan.riesz_energies[1] == lam
    for qi, q in enumerate(scan.charges):
        assert scan.energy_table[qi][1] == scan.perimeters[1] + q * q * lam


def test_rayleigh_amplitude_preconditions():
    with pytest.raises(ValidationError):
        dc.rayleigh_scan(2, [0.05, 0.1], [1.0], n_nodes=200)
    with pytest.raises(ValidationError):
        dc.rayleigh_scan(2, [0.0, 0.1], [1.0], n_nodes=200)


# ---------------------------------------------------------------------------
# lemma ratio


def test_lemma_ratio_reproducible_and_bounded():
    a = dc.lemma_ratio_check(25, 0.1, n_nodes=400, seed=11)
    b = dc.lemma_ratio_check(25, 0.1, n_nodes=400, seed=11)
    assert a == b
    assert 0.0 < a["max_ratio"] < 3.0 * oracles.LEMMA_RATIO_SUP
    assert a["used"] + a["skipped_flat"] + a["skipped_nonpositive"] == 25
    assert np.isfinite(a["max_iso_ratio"])


def test_lemma_ratio_skips_flat_samples():
    with pytest.raises(ValidationError):
        # amplitudes this small leave no measurable perimeter deficit
        dc.lemma_ratio_check(5, 1e-6, n_nodes=400, seed=0)


# ---------------------------------------------------------------------------
# convex scan


def test_convex_scan_disk_wins_and_matches_perimeter_order():
    out = dc.convex_scan_2d([0.0, 0.5, 1.0], m_gons=(3, 4, 6), n_random=2, seed=5, n_nodes=400)
    by_label = {row["label"]: row for row in out["rows"]}
    perimeter_order = sorted(by_label, key=lambda k: by_label[k]["perimeter"])
    assert out["rankings"]["0.0"] == perimeter_order
    for q in ("0.0", "0.5", "1.0"):
        assert out["rankings"][q][0] == "disk"
    # every competitor was normalized to the disk's area
    for row in out["rows"]:
        assert by_label[row["label"]]["perimeter"] >= 2.0 * np.pi - 1e-9


def test_convex_scan_polygon_perimeters_match_closed_form():
    out = dc.convex_scan_2d([0.0], m_gons=(3, 4, 6, 12), n_random=0, seed=0, n_nodes=300)
    for row in out["rows"]:
        if row["label"].startswith("gon_"):
            m = int(row["label"].split("_")[1])
            assert row["perimeter"] == pytest.approx(
                oracles.regular_polygon_perimeter(m), rel=1e-12
            )


@pytest.mark.parametrize("m", [0, 1, 2, -3])
def test_convex_scan_rejects_polygons_with_fewer_than_three_sides(m):
    with pytest.raises(ValidationError, match="sides"):
        dc.convex_scan_2d([0.0], m_gons=(4, m), n_random=0, n_nodes=100)


def test_convex_scan_random_polygons_have_the_disk_area():
    from dropcap.instability import _random_polygon

    rng = np.random.default_rng(3)
    for _ in range(20):
        assert dc.volume(_random_polygon(rng)) == pytest.approx(np.pi, rel=1e-12)


def test_scans_reject_a_nonfinite_charge():
    with pytest.raises(ValidationError, match="charge"):
        dc.rayleigh_scan(2, [-0.1, 0.0, 0.1], [0.0, np.inf], n_nodes=100)
    with pytest.raises(ValidationError, match="charge"):
        dc.convex_scan_2d([np.nan], n_random=0, n_nodes=100)
