import math

import numpy as np
import pytest

from spectral_kit.gallery import (_mv_eval, build, egervary_block_residual,
                                  egervary_first_failure, egervary_imbed,
                                  halmos_dilation, jordan_block,
                                  mv_polynomial_matrix, names,
                                  property_suites, torus_sup, verify)
from spectral_kit.matrixcore import eval_rational, op_norm
from spectral_kit.numrange import numerical_radius

SQRT3 = math.sqrt(3.0)


def _row(report, quantity, relation=None):
    rows = [r for r in report.rows if r.quantity == quantity
            and (relation is None or r.relation == relation)]
    assert rows, f"no row named {quantity!r} in {report.name}"
    return rows[0]


# ---------------------------------------------------------------------------
# catalog plumbing

def test_catalog_names_all_build_and_verify():
    assert names() == ("hoelder1", "varopoulos", "crabb_davie", "parrott",
                       "annulus", "jordan_nilpotent", "bergman",
                       "crouzeix_2x2", "ellipse_2x2")
    for name in names():
        rep = verify(name)
        assert rep.passed, [r for r in rep.rows if not r.passed]
        assert all(r.tol >= 0 for r in rep.rows)


def test_build_parses_parameter_literals():
    assert build("annulus(3)").payload["big_r"] == 3.0
    assert build("bergman(6)").matrices[0].shape == (6, 6)
    assert build(" jordan_nilpotent( 7 ) ").payload["n"] == 7
    # keyword form must agree with the literal form
    a = build("annulus(1.5)").matrices[0]
    b = build("annulus", big_r=1.5).matrices[0]
    assert np.array_equal(a, b)


def test_build_rejects_bad_requests():
    with pytest.raises(ValueError):
        build("nonesuch")
    with pytest.raises(ValueError):
        build("hoelder1(3)")  # takes no parameter
    with pytest.raises(ValueError):
        build("parrott(1)")  # its pair (u, v) is keyword-only
    with pytest.raises(ValueError):
        build("annulus(0.5)")  # outer radius must exceed 1
    with pytest.raises(ValueError):
        build("ellipse_2x2(1.0)")  # rho must exceed 1
    with pytest.raises(ValueError):
        build("jordan_nilpotent(1)")


def test_recompute_answers_exactly_the_expected_rows():
    for name in names() + ("bergman(4)", "jordan_nilpotent(3)",
                           "annulus(3)", "ellipse_2x2(5)"):
        fx = build(name)
        assert set(fx.recompute(fx)) == {e.quantity for e in fx.expected}, name


def test_builds_are_bit_reproducible():
    for name in ("varopoulos", "crabb_davie", "annulus(2)", "bergman(4)"):
        first = build(name).matrices
        second = build(name).matrices
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


def test_expected_rows_carry_provenance():
    for name in names():
        for exp in build(name).expected:
            assert exp.origin
            assert exp.relation in ("=", "<=", ">=", "<", ">")


def test_verify_rejects_nonpositive_tol_scale():
    with pytest.raises(ValueError):
        verify("hoelder1", tol_scale=0.0)


def test_verify_reports_failure_when_tolerance_is_crushed():
    # numerical radius of the 12x12 nilpotent block is only known to ~1e-12,
    # so scaling its 1e-8 tolerance down to 1e-24 must flag the row
    rep = verify("jordan_nilpotent(12)", tol_scale=1e-16)
    assert not rep.passed
    bad = [r.quantity for r in rep.rows if not r.passed]
    assert "numerical radius" in bad


# ---------------------------------------------------------------------------
# fixed fixtures against hand-derived values

def test_hoelder1_image_is_exact():
    fx = build("hoelder1")
    a = fx.matrices[0]
    assert np.array_equal(a, np.array([[0.0, 1.0], [1.0, 0.0]]))
    img = eval_rational(fx.payload["function"], a)
    want = np.array([[0.8j, 0.6], [0.6, 0.8j]])
    assert np.max(np.abs(img - want)) <= 1e-15
    assert abs(op_norm(img, 1) - 1.4) <= 1e-12
    assert op_norm(a, 1) == 1.0


def test_varopoulos_triple_structure():
    fx = build("varopoulos")
    a1, a2, a3 = fx.matrices
    for i, a in enumerate((a1, a2, a3)):
        assert a.shape == (5, 5)
        assert a[i + 1, 0] == 1.0
        assert np.max(np.abs(np.abs(a[4, 1:4]) - 1.0 / SQRT3)) <= 1e-15
        assert abs(op_norm(a, 2) - 1.0) <= 1e-12
    # exact commutation: both orders hit the same signed 1/sqrt(3) entry
    for x, y in ((a1, a2), (a1, a3), (a2, a3)):
        assert np.array_equal(x @ y, y @ x)


def test_varopoulos_assembled_norm_beats_torus_sup():
    fx = build("varopoulos")
    pa = mv_polynomial_matrix(fx.payload["terms"], fx.matrices)
    # single nonzero column: p(A) = 3*sqrt(3) * e5 e1^T
    want = np.zeros((5, 5), dtype=complex)
    want[4, 0] = 3.0 * SQRT3
    assert np.max(np.abs(pa - want)) <= 1e-12
    nrm = op_norm(pa, 2)
    assert abs(nrm - 3.0 * SQRT3) <= 1e-12
    sup = torus_sup(fx.payload["terms"])
    assert 4.99 <= sup <= 5.0 + 1e-9
    assert nrm > sup


def test_crabb_davie_chain_image():
    fx = build("crabb_davie")
    a1, a2, a3 = fx.matrices
    for a in (a1, a2, a3):
        assert a.shape == (8, 8)
        assert abs(op_norm(a, 2) - 1.0) <= 1e-12
        # main chain has four links (e1 -> e_i -> +-e_j -> +-e8 -> 0)
        assert np.max(np.abs(np.linalg.matrix_power(a, 3))) == 1.0
        assert np.max(np.abs(np.linalg.matrix_power(a, 4))) == 0.0
    for x, y in ((a1, a2), (a1, a3), (a2, a3)):
        assert np.array_equal(x @ y, y @ x)
    pa = mv_polynomial_matrix(fx.payload["terms"], fx.matrices)
    img = pa[:, 0]
    want = np.zeros(8, dtype=complex)
    want[7] = 4.0
    # every contributing product is a signed permutation column: exact
    assert np.max(np.abs(img - want)) == 0.0
    sup = torus_sup(fx.payload["terms"])
    assert sup < 3.99
    assert np.linalg.norm(img) > sup


def test_parrott_products_vanish():
    fx = build("parrott")
    a1, a2, a3 = fx.matrices
    for x in (a1, a2, a3):
        assert op_norm(x, 2) <= 1.0 + 1e-12
        for y in (a1, a2, a3):
            assert np.max(np.abs(x @ y)) == 0.0
    u, v = fx.payload["u"], fx.payload["v"]
    assert np.max(np.abs(u @ v - v @ u)) > 0.5
    assert fx.notes  # the non-dilation claim lives in prose, not a check


@pytest.mark.parametrize("big_r", [1.5, 2.0, 3.0])
def test_annulus_closed_forms(big_r):
    rep = verify(f"annulus({big_r})")
    assert rep.passed
    misra = 2.0 * (big_r ** 2 - 1.0) / (big_r ** 2 + 1.0)
    assert abs(_row(rep, "misra ratio").recomputed - misra) <= 1e-6
    assert abs(_row(rep, "norm of the sharper extremal image").recomputed
               - 2.0) <= 1e-9
    sup = (1.0 + big_r ** 2 + 2.0 * big_r) / (1.0 + big_r ** 2 + big_r)
    got = _row(rep, "annulus sup of the sharper extremal").recomputed
    assert abs(got - sup) <= 1e-4
    assert 2.0 / got > 1.5
    # gamma = R - 1/R makes the singular values exactly R and 1/R
    a = build(f"annulus({big_r})").matrices[0]
    s = np.linalg.svd(a, compute_uv=False)
    assert abs(s[0] - big_r) <= 1e-12
    assert abs(s[1] - 1.0 / big_r) <= 1e-12


@pytest.mark.parametrize("n", range(2, 13))
def test_jordan_radius_formula(n):
    a = jordan_block(n)
    assert np.array_equal(a, np.eye(n, k=1))
    assert abs(numerical_radius(a) - math.cos(math.pi / (n + 1))) <= 1e-8


def test_bergman_weights_and_radius_bounds():
    fx = build("bergman(3)")
    a = fx.matrices[0]
    want = np.zeros((3, 3))
    want[0, 1] = math.sqrt(1.0 / 2.0)
    want[1, 2] = math.sqrt(2.0 / 3.0)
    assert np.array_equal(a, want)
    # tridiagonal with nonnegative entries: w(A) = lam_max((A+A^T)/2)
    assert numerical_radius(a) <= math.sqrt(7.0 / 24.0) + 1e-8
    assert numerical_radius(a @ a) <= math.sqrt(1.0 / 12.0) + 1e-8
    assert verify("bergman(5)").passed


def test_crouzeix_2x2_ratio_is_two():
    rep = verify("crouzeix_2x2")
    assert rep.passed
    got = _row(rep, "identity-map ratio over the numerical range").recomputed
    assert abs(got - 2.0) <= 1e-8


@pytest.mark.parametrize("rho", [1.2, 2.0, 5.0])
def test_ellipse_similarity_matches_growth(rho):
    rep = verify(f"ellipse_2x2({rho})")
    assert rep.passed
    assert abs(_row(rep, "operator norm").recomputed - rho) <= 1e-12
    kappa = _row(rep, "similarity condition number").recomputed
    assert abs(kappa - rho) <= 1e-10
    gamma = rho - 1.0 / rho
    assert abs(_row(rep, "numerical radius").recomputed
               - 0.5 * math.sqrt(gamma ** 2 + 4.0)) <= 1e-8


# ---------------------------------------------------------------------------
# torus sup routine

def test_torus_sup_closed_forms():
    assert abs(torus_sup({(1, 1, 1): 1.0}) - 1.0) <= 1e-10
    assert abs(torus_sup({(0, 0, 0): 2.0, (2, 0, 0): 1.0}) - 3.0) <= 1e-10
    assert abs(torus_sup({(1, 0, 0): 1.0, (0, 1, 0): 1.0}) - 2.0) <= 1e-10
    assert abs(torus_sup({(2, 1, 0): 1.0, (0, 0, 0): -4.0}) - 5.0) <= 1e-10


def test_torus_sup_dominates_brute_grid():
    rng = np.random.default_rng(11)
    th = 2.0 * np.pi * np.arange(60) / 60
    z = np.exp(1j * th)
    for _ in range(5):
        terms = {}
        for _ in range(4):
            exps = tuple(int(e) for e in rng.integers(0, 3, size=3))
            terms[exps] = terms.get(exps, 0.0) + float(rng.standard_normal())
        acc = np.zeros((60, 60, 60), dtype=complex)
        for (e1, e2, e3), c in terms.items():
            acc += c * (z ** e1)[:, None, None] \
                * (z ** e2)[None, :, None] * (z ** e3)[None, None, :]
        brute = float(np.max(np.abs(acc)))
        assert torus_sup(terms) >= brute - 1e-9


def test_torus_sup_between_grid_max_and_coefficient_sum():
    rng = np.random.default_rng(20)
    random_terms = {}
    for _ in range(5):
        exps = tuple(int(e) for e in rng.integers(0, 4, size=3))
        random_terms[exps] = complex(rng.standard_normal(),
                                     rng.standard_normal())
    th = 2.0 * np.pi * np.arange(48) / 48
    for terms in (build("varopoulos").payload["terms"],
                  build("crabb_davie").payload["terms"], random_terms):
        # broadcast evaluation against the per-point scalar evaluation; an
        # array and a scalar complex power may differ in the last bit, so
        # the tolerance is relative to the bound sum |coeff| on |p|
        mass = sum(abs(c) for c in terms.values())
        t = rng.uniform(0.0, 2.0 * np.pi, size=(3, 40))
        got = _mv_eval(terms, (t[0][:, None], t[1][None, :], t[2][0]))
        for i in range(40):
            for j in range(40):
                z = np.exp(1j * np.array([t[0, i], t[1, j], t[2, 0]]))
                val = 0.0 + 0.0j
                for (e1, e2, e3), c in terms.items():
                    val += c * z[0] ** e1 * z[1] ** e2 * z[2] ** e3
                assert abs(got[i, j] - abs(val)) <= 1e-15 * mass
        z = np.exp(1j * th)
        acc = np.zeros((48, 48, 48), dtype=complex)
        for (e1, e2, e3), c in terms.items():
            acc += c * (z ** e1)[:, None, None] \
                * (z ** e2)[None, :, None] * (z ** e3)[None, None, :]
        sup = torus_sup(terms)
        assert sup >= float(np.max(np.abs(acc))) - 1e-15 * mass
        assert sup <= mass


# ---------------------------------------------------------------------------
# unitary dilation

def test_halmos_zero_gives_exchange_unitary():
    b = halmos_dilation(np.zeros((2, 2)))
    want = np.block([[np.zeros((2, 2)), np.eye(2)],
                     [np.eye(2), np.zeros((2, 2))]])
    assert np.array_equal(b, want)


def test_halmos_nilpotent_half():
    a = np.array([[0.0, 0.5], [0.0, 0.0]])
    b = halmos_dilation(a)
    assert np.array_equal(b[:2, :2], a)
    assert np.array_equal(b[2:, 2:], -a.conj().T)
    defect = np.linalg.norm(b.conj().T @ b - np.eye(4), 2)
    assert defect <= 1e-12


def test_halmos_unitary_input_collapses_defect_blocks():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4))
                        + 1j * rng.standard_normal((4, 4)))
    b = halmos_dilation(q)
    assert np.array_equal(b[:4, :4], q)
    # defect roots vanish up to the sqrt's conditioning at sigma = 1
    assert np.max(np.abs(b[:4, 4:])) <= 1e-7
    assert np.max(np.abs(b[4:, :4])) <= 1e-7


def test_halmos_random_contractions_stay_unitary():
    rng = np.random.default_rng(14)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(1, 7))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a /= op_norm(a, 2)
        if trial % 2:
            a *= rng.uniform(0.2, 1.0)  # mix strict contractions in
        b = halmos_dilation(a)
        assert np.array_equal(b[:n, :n], a)
        worst = max(worst, float(np.linalg.norm(
            b.conj().T @ b - np.eye(2 * n), 2)))
    assert worst <= 1e-9


def test_halmos_rejects_expansions():
    with pytest.raises(ValueError):
        halmos_dilation(1.5 * np.eye(2))


# ---------------------------------------------------------------------------
# shift-in-circulant imbedding

def test_egervary_circulant_is_a_permutation():
    j, c = egervary_imbed(3, 2)
    assert np.array_equal(j, np.eye(3, k=-1))
    assert c.shape == (9, 9)
    assert np.array_equal(c.T @ c, np.eye(9))
    assert np.array_equal(np.linalg.matrix_power(c, 9), np.eye(9))


@pytest.mark.parametrize("n,k", [(1, 1), (1, 4), (2, 2), (3, 2), (4, 3),
                                 (5, 4), (6, 4)])
def test_egervary_first_failure_law(n, k):
    # the wrap diagonal of C^d reaches the leading block exactly at
    # d = m - n + 1 = k*n + 1
    assert egervary_first_failure(n, k) == k * n + 1


def test_egervary_block_identity_exact_in_regime():
    rng = np.random.default_rng(5)
    for n in range(1, 7):
        for k in range(1, 5):
            for _ in range(5):
                deg = int(rng.integers(0, k + 1))
                coeffs = rng.standard_normal(deg + 1) \
                    + 1j * rng.standard_normal(deg + 1)
                assert egervary_block_residual(n, k, coeffs) == 0.0
            # the identity actually survives past degree k, up to k*n
            top = np.zeros(k * n + 1)
            top[-1] = 1.0
            assert egervary_block_residual(n, k, top) == 0.0


def test_egervary_negative_control_fails():
    for n, k in ((1, 2), (2, 2), (3, 4)):
        bad = np.zeros(k * n + 2)
        bad[-1] = 1.0
        assert egervary_block_residual(n, k, bad) >= 1.0


# ---------------------------------------------------------------------------
# randomized suites

def test_property_suites_small_run_passes():
    rep = property_suites(seed=7, trials=30)
    assert rep.passed
    assert rep.seed == 7 and rep.trials == 30
    keys = [r.key for r in rep.results]
    assert keys == ["a", "b", "c", "d", "e", "f", "g", "h"]
    for res in rep.results[:-1]:
        assert res.violations == 0
        assert res.worst_excess <= res.tol
    drury = rep.results[-1]
    assert drury.passed  # informational: never gates
    assert set(drury.info) >= {"best_norm", "shift_norm", "ratio", "witness"}
    assert drury.info["shift_norm"] > 6.0


def test_property_suites_deterministic():
    a = property_suites(seed=3, trials=12)
    b = property_suites(seed=3, trials=12)
    assert [r.worst_excess for r in a.results] \
        == [r.worst_excess for r in b.results]
    assert a.results[-1].info == b.results[-1].info
    c = property_suites(seed=4, trials=12)
    assert [r.worst_excess for r in a.results] \
        != [r.worst_excess for r in c.results]


def test_drury_shift_reference_is_op_norm_bit_for_bit():
    # the reference climbs from the ones vector and the 32 seeded draws
    # only; op_norm's full start block, unit vectors included, gives the
    # same value to the last bit
    from spectral_kit import gallery
    from spectral_kit.matrixcore import eval_poly
    toeplitz = eval_poly(gallery._DRURY_COEFFS, np.eye(gallery._DRURY_SHIFT_DIM, k=-1))
    assert gallery._drury_shift_reference() == op_norm(toeplitz, 4)


def _drury_climb_reference(rng, trials):
    # suite (h) one step at a time, an op_norm call per candidate
    from spectral_kit import gallery
    from spectral_kit.matrixcore import eval_poly
    restarts = max(2, min(8, trials // 100))
    best_val, best_mat = -math.inf, None
    for _ in range(restarts):
        x = rng.standard_normal(4)
        cur = -math.inf
        scale = 0.5
        for _ in range(150):
            a = (x + scale * rng.standard_normal(4)).reshape(2, 2)
            a = a * ((1.0 - 1e-9) / op_norm(a, 4))
            val = op_norm(eval_poly(gallery._DRURY_COEFFS, a), 4)
            if val > cur:
                cur, x = val, a.reshape(4)
            scale *= 0.97
        if cur > best_val:
            best_val, best_mat = cur, x.reshape(2, 2)
    ref = gallery._drury_shift_reference()
    return {"best_norm": best_val, "shift_norm": ref, "ratio": best_val / ref,
            "witness": best_mat.tolist(), "exceeds_shift": bool(best_val > ref)}


@pytest.mark.parametrize("seed,trials", [(0, 3), (1, 12), (2, 250), (3, 1000)])
def test_drury_lockstep_climb_is_the_step_at_a_time_climb(seed, trials):
    # bit for bit, with 2 restarts (trials < 300) and 8 (trials 1000); the
    # suite's generator is the eighth spawned child, as in property_suites
    from spectral_kit.gallery import _suite_drury
    got = _suite_drury(np.random.default_rng(seed).spawn(8)[7], trials).info
    want = _drury_climb_reference(np.random.default_rng(seed).spawn(8)[7], trials)
    assert got == want


def test_property_suites_rejects_empty_run():
    with pytest.raises(ValueError):
        property_suites(seed=0, trials=0)
