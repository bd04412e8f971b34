import math
import warnings

import numpy as np
import pytest

from spectral_kit.matrixcore import (
    OracleUnavailableError,
    RationalFunction,
    as_matrix,
    eigenvalues,
    eval_poly,
    eval_rational,
    format_complex,
    matfun_reference,
    op_norm,
    parse_complex,
    parse_rational,
    read_matrix,
    read_vector,
    spectral_radius,
    write_matrix,
    write_vector,
)


def annulus_matrix(R):
    return np.array([[1.0, R - 1.0 / R], [0.0, 1.0]], dtype=complex)


def test_eigenvalues_diagonal():
    w = eigenvalues(np.diag([1.0, -3.0]))
    assert sorted(w.real) == pytest.approx([-3.0, 1.0], abs=1e-12)
    assert np.allclose(w.imag, 0.0, atol=1e-12)


def test_eigenvalues_nilpotent():
    w = eigenvalues([[0.0, 2.0], [0.0, 0.0]])
    assert np.allclose(w, 0.0, atol=1e-12)


def test_eigenvalues_annulus_matrix_unit():
    w = eigenvalues(annulus_matrix(2.0))
    assert np.allclose(sorted(w.real), [1.0, 1.0], atol=1e-12)


def test_eigenvalues_backward_stability():
    rng = np.random.default_rng(3)
    for n in (8, 32, 128):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w = eigenvalues(a)
        # eigenvalue sum/product identities as a cheap backward check
        assert np.sum(w) == pytest.approx(np.trace(a), abs=1e-10 * np.linalg.norm(a, 2) * n)


def test_op_norm_nilpotent():
    assert op_norm([[0.0, 2.0], [0.0, 0.0]], 2) == pytest.approx(2.0, abs=1e-14)


def test_op_norm_one_norm_printed_value():
    # f(A) for f = (z + i/2)/(1 - (i/2) z) at the real symmetric involution
    f = RationalFunction(num=(0.5j, 1.0), den=(1.0, -0.5j))
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    fa = eval_rational(f, a)
    expected = np.array([[0.8j, 0.6], [0.6, 0.8j]])
    assert np.allclose(fa, expected, atol=1e-12)
    assert op_norm(fa, 1) == pytest.approx(1.4, abs=1e-12)


def test_op_norm_annulus_matrix():
    a = annulus_matrix(2.0)
    assert op_norm(a, 2) == pytest.approx(2.0, abs=1e-12)
    assert op_norm(np.linalg.inv(a), 2) == pytest.approx(2.0, abs=1e-12)


def test_op_norm_rejects_bad_selector():
    with pytest.raises(ValueError):
        op_norm(np.eye(2), 0.5)


def test_general_p_norm_identity():
    assert op_norm(np.eye(5), 3) == pytest.approx(1.0, rel=1e-10)


def test_general_p_norm_diagonal():
    # induced p-norm of a diagonal matrix is the max |entry| for every p
    d = np.diag([0.3, -2.0, 1.0])
    for p in (1.5, 3.0, 4.0):
        assert op_norm(d, p) == pytest.approx(2.0, rel=1e-8)


def test_general_p_norm_lower_bound_witnessed():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        val = op_norm(a, 4.0)
        x = rng.standard_normal((n, 200)) + 1j * rng.standard_normal((n, 200))
        ratios = np.linalg.norm(a @ x, 4, axis=0) / np.linalg.norm(x, 4, axis=0)
        assert np.max(ratios) <= val + 1e-9


def test_unit_vector_inequality_sampled():
    rng = np.random.default_rng(5)
    for p in (1, 2, np.inf):
        for _ in range(5):
            n = int(rng.integers(2, 9))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            bound = op_norm(a, p)
            x = rng.standard_normal((n, 1000)) + 1j * rng.standard_normal((n, 1000))
            x /= np.linalg.norm(x, p if p != np.inf else np.inf, axis=0)
            assert np.all(np.linalg.norm(a @ x, p, axis=0) <= bound + 1e-9)


def _pnorm_ascent_reference(m, p):
    # the ascent on one matrix, with its start block drawn afresh and each
    # column's norm and dual summed afresh every round; converged and
    # annihilated columns are frozen by mask (no column is ever rescaled
    # on these inputs)
    def norms_duals(y, r):
        a = np.abs(y)
        norms = np.sum(a ** r, axis=0) ** (1.0 / r)
        with np.errstate(divide="ignore", invalid="ignore"):
            return norms, np.where(a > 0, y * a ** (r - 2.0), 0.0) / norms ** (r - 1.0)

    n = m.shape[0]
    q = p / (p - 1.0)
    mh = np.ascontiguousarray(m.conj().T)
    rng = np.random.default_rng(0)
    cols = [np.ones(n, dtype=complex)] + [e for e in np.eye(n, dtype=complex)]
    for _ in range(32):
        cols.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    x = np.stack(cols, axis=1)
    x = x / np.sum(np.abs(x) ** p, axis=0) ** (1.0 / p)
    gamma = np.zeros(x.shape[1])
    live = np.ones(x.shape[1], dtype=bool)
    for it in range(100):
        if not live.any():
            break
        ny, d = norms_duals(m @ x, p)
        alive = live & (ny > 0.0)
        gamma[alive] = ny[alive]
        if it == 99:
            break
        nz, w = norms_duals(mh @ d, q)
        live = alive & ~(nz <= ny * (1.0 + 1e-12))
        x[:, live] = w[:, live]
    j = int(np.argmax(gamma))
    return float(gamma[j]), x[:, j]


def test_pnorm_ascent_with_cached_starts_matches_the_fresh_loop():
    # bit for bit, with the start block cached per (n, p) and the column
    # norms reused; singular and nilpotent inputs annihilate start columns
    from spectral_kit.matrixcore import _pnorm_ascent
    rng = np.random.default_rng(9)
    for n in (1, 2, 2, 3, 5, 8, 12):
        for kind in ("complex", "real", "singular", "nilpotent"):
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            if kind == "real":
                m = m.real.astype(complex)
            elif kind == "singular":
                m[:, 0] = 0.0
            elif kind == "nilpotent":
                m = np.eye(n, k=1, dtype=complex)
            for p in (1.5, 3.0, 4.0):
                for _ in range(2):  # the second call reads the cache
                    val, x = _pnorm_ascent(m[None], p)
                    ref_val, ref_x = _pnorm_ascent_reference(m, p)
                    assert val[0] == ref_val
                    assert np.array_equal(x[0], ref_x)


def _mixed_stack(rng, n, count, scales=(1e-200, 1.0, 1.0, 1e160)):
    # complex, real, singular and nilpotent matrices, each scaled by a draw
    # from scales
    out = []
    for i in range(count):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        kind = i % 4
        if kind == 1:
            m = m.real.astype(complex)
        elif kind == 2:
            m[:, int(rng.integers(n))] = 0.0
        elif kind == 3:
            m = np.triu(m, 1)
        out.append(m * float(rng.choice(scales)))
    return np.array(out)


def test_pnorm_ascent_of_a_stack_is_each_matrix_alone():
    # bit for bit: the value and witness of a matrix do not depend on the
    # other matrices of the stack, nor on where it sits in it
    from spectral_kit.matrixcore import _pnorm_ascent
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 8):
        ms = _mixed_stack(rng, n, 12)
        for p in (1.5, 4.0, 1000.0):
            alone = [_pnorm_ascent(m[None], p) for m in ms]
            for order in (np.arange(len(ms)), rng.permutation(len(ms)),
                          rng.permutation(len(ms))[:5]):
                vals, xs = _pnorm_ascent(ms[order], p)
                for k, b in enumerate(order):
                    assert vals[k] == alone[b][0][0]
                    assert np.array_equal(xs[k], alone[b][1][0])


def test_pnorm_ascent_witness_reproduces_the_value():
    from spectral_kit.matrixcore import _pnorm_ascent
    rng = np.random.default_rng(22)
    for n in (1, 2, 3, 8):
        ms = _mixed_stack(rng, n, 8, scales=(1.0,))
        for p in (1.5, 3.0, 4.0):
            vals, xs = _pnorm_ascent(ms, p)
            for m, val, x in zip(ms, vals, xs):
                if not m.any():  # the 1x1 nilpotent matrix
                    assert val == 0.0
                    continue
                assert 0.0 < val < math.inf
                ratio = (np.linalg.norm(m @ x / val, p) / np.linalg.norm(x, p))
                assert ratio == pytest.approx(1.0, rel=1e-14, abs=0.0)


def test_op_norm_is_homogeneous_at_extreme_scales():
    # ||cA||_p = c ||A||_p, under the Riesz-Thorin ceiling
    # ||A||_1^(1/p) ||A||_inf^(1 - 1/p); the unscaled ascent overflowed to
    # inf or underflowed to 0 here
    a = np.array([[1.0, 2.0], [0.5, -1j]])
    for p in (1.001, 1.5, 4.0, 300.0, 1000.0):
        ref = op_norm(a, p)
        ceiling = op_norm(a, 1) ** (1.0 / p) * op_norm(a, np.inf) ** (1.0 - 1.0 / p)
        for c in (1e-200, 1e-100, 1.0, 1e80, 1e160):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                val = op_norm(c * a, p) / c
            assert 0.0 < val < math.inf
            assert val == pytest.approx(ref, rel=1e-12, abs=0.0)
            assert val <= ceiling * (1.0 + 1e-12)


def test_op_norm_keeps_its_bound_at_large_p_and_extreme_scales():
    # the ones start alone gives ||A 1||_p / ||1||_p = 3 2^(-1/p) to
    # rounding; scaling a column by a power of two underflowed its p-th
    # powers there (2.0 at p = 3000), and subnormal or huge A lost it all
    a = np.array([[1.0, 2.0], [0.5, -1j]])
    for p in (1.5, 4.0, 300.0, 1000.0, 3000.0, 10000.0):
        ref = op_norm(a, p)
        if p >= 300.0:
            assert ref >= 3.0 * 2.0 ** (-1.0 / p) * (1.0 - 1e-12)
        for c in (1e-310, 1e-200, 1e80, 1e160, 1e200, 1e300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                val = op_norm(c * a, p) / c
            assert val == pytest.approx(ref, rel=1e-9 if c == 1e-310 else 1e-12, abs=0.0)


def test_spectral_radius_below_two_norm():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert spectral_radius(a) <= op_norm(a, 2) + 1e-10


def test_eval_rational_identity_function():
    f = RationalFunction(num=(0.0, 1.0), den=(1.0,))
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    assert np.allclose(eval_rational(f, a), a, atol=1e-14)


def test_eval_rational_annulus_difference():
    # f(z) = z - 1/z = (z^2 - 1)/z at the triangular annulus matrix
    R = 2.0
    f = RationalFunction(num=(-1.0, 0.0, 1.0), den=(0.0, 1.0))
    fa = eval_rational(f, annulus_matrix(R))
    expected = np.array([[0.0, 2 * (R - 1 / R)], [0.0, 0.0]])
    assert np.allclose(fa, expected, atol=1e-12)


def test_eval_rational_pole_on_spectrum():
    f = RationalFunction(num=(1.0,), den=(-1.0, 1.0))  # 1/(z-1)
    with pytest.raises(ValueError, match="pole"):
        eval_rational(f, np.eye(2))


def test_eval_rational_commutes_with_argument():
    rng = np.random.default_rng(2)
    f = RationalFunction(num=(1.0, 2.0, 0.5), den=(3.0, 0.0, 1.0))
    for _ in range(10):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        fa = eval_rational(f, a)
        assert np.linalg.norm(fa @ a - a @ fa, 2) <= 1e-9 * max(1.0, np.linalg.norm(fa, 2))


def _compose(f: RationalFunction, g: RationalFunction) -> RationalFunction:
    # f(g): substitute g = r/s into f = p/q and clear denominators
    p, q = f.num_arr, f.den_arr
    r, s = g.num_arr, g.den_arr
    d = max(len(p), len(q)) - 1

    def substituted(coeffs):
        # sum_k c_k r^k s^(d-k)
        acc = np.zeros(1, dtype=complex)
        for k, ck in enumerate(coeffs):
            term = np.array([ck], dtype=complex)
            for _ in range(k):
                term = np.convolve(term, r)
            for _ in range(d - k):
                term = np.convolve(term, s)
            width = max(len(acc), len(term))
            acc = np.pad(acc, (0, width - len(acc)))
            acc += np.pad(term, (0, width - len(term)))
        return acc

    return RationalFunction(num=tuple(substituted(p)), den=tuple(substituted(q)))


def test_eval_rational_composition():
    rng = np.random.default_rng(9)
    f = RationalFunction(num=(0.3, 1.0), den=(1.0, 0.25))
    g = RationalFunction(num=(0.0, 0.5, 0.1), den=(1.0,))
    for _ in range(5):
        a = 0.5 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        direct = eval_rational(_compose(f, g), a)
        nested = eval_rational(f, eval_rational(g, a))
        rel = np.linalg.norm(direct - nested, 2) / max(1.0, np.linalg.norm(nested, 2))
        assert rel <= 1e-8


def test_blaschke_unimodular_on_circle():
    f = RationalFunction.blaschke([0.3 + 0.2j, -0.5j])
    t = np.exp(1j * np.linspace(0, 2 * np.pi, 64, endpoint=False))
    assert np.allclose(np.abs(f(t)), 1.0, atol=1e-12)


def test_blaschke_rejects_outside_zero():
    with pytest.raises(ValueError):
        RationalFunction.blaschke([1.5])


def test_blaschke_stores_its_poles_at_the_reflected_zeros():
    zeros = [0.3 + 0.2j, 0.0, -0.5j, 0.9]
    f = RationalFunction.blaschke(zeros, phase=1j)
    want = [1.0 / np.conj(a) for a in zeros if a != 0]
    assert np.array_equal(f.poles(), want)
    assert len(f.poles()) == len(f.den) - 1
    roots = np.roots(np.asarray(f.den)[::-1])
    assert np.abs(np.sort_complex(roots) - np.sort_complex(f.poles())).max() <= 1e-12
    assert not f.poles().flags.writeable
    assert RationalFunction.blaschke([0.0, 0.0]).poles().size == 0


def test_stored_poles_are_not_part_of_the_value():
    f = RationalFunction.blaschke([0.3 + 0.2j, -0.5j])
    plain = RationalFunction(num=f.num, den=f.den)
    assert f._poles is not None and plain._poles is None
    assert f == plain and hash(f) == hash(plain)
    assert repr(f) == repr(plain)
    assert {f: 1}[plain] == 1
    # both answer poles(): the plain copy by rooting den
    assert np.allclose(np.sort_complex(plain.poles()), np.sort_complex(f.poles()), atol=1e-12)


def test_scale_keeps_the_stored_poles():
    f = RationalFunction.blaschke([0.3 + 0.2j, -0.5j])
    g = f.scale(2.0 - 1j)
    assert g._poles is not None and np.array_equal(g.poles(), f.poles())
    assert g == RationalFunction(num=tuple(np.asarray(f.num) * (2.0 - 1j)), den=f.den)
    plain = RationalFunction(num=(1.0, 2.0), den=(1.0, 0.5, 0.25))
    assert plain.scale(3.0)._poles is None


def test_a_store_that_does_not_match_den_is_dropped():
    # an underflowed leading coefficient trims den below the store's count
    f = RationalFunction._with_poles((1.0,), (1.0, 0.0), [2.0])
    assert f._poles is None and f.poles().size == 0
    g = RationalFunction._with_poles((1.0,), (-2.0, 1.0), [np.inf])
    assert g._poles is None and np.allclose(g.poles(), [2.0])


def test_compose_affine():
    f = RationalFunction(num=(1.0, 0.0, 2.0), den=(1.0, 1.0))
    g = f.compose_affine(2.0, 1.0 + 1j)
    z = np.array([0.3 - 0.1j, 1.2, -0.7j])
    assert np.allclose(g(z), f(2.0 * z + 1.0 + 1j), atol=1e-12)


def test_matfun_exp_zero_and_diagonal():
    assert np.allclose(matfun_reference(np.zeros((3, 3)), np.exp), np.eye(3), atol=1e-14)
    got = matfun_reference(np.diag([1.0, 2.0]), np.exp)
    assert np.allclose(got, np.diag([math.e, math.e ** 2]), rtol=1e-12)


def test_matfun_exp_nilpotent():
    a = np.array([[0.0, 2.0], [0.0, 0.0]])
    assert np.allclose(matfun_reference(a, np.exp), np.eye(2) + a, atol=1e-12)


def test_matfun_exp_matches_taylor():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        a /= max(1.0, np.linalg.norm(a, 2))
        taylor = np.eye(5, dtype=complex)
        term = np.eye(5, dtype=complex)
        for k in range(1, 31):
            term = term @ a / k
            taylor += term
        got = matfun_reference(a, np.exp)
        assert np.linalg.norm(got - taylor, 2) <= 1e-10 * np.linalg.norm(got, 2)


def test_matfun_diagonalizable_path():
    a = np.array([[1.0, 1.0], [0.0, 2.0]])
    got = matfun_reference(a, lambda z: z ** 2)
    assert np.allclose(got, a @ a, atol=1e-10)


def test_matfun_refuses_defective():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(OracleUnavailableError):
        matfun_reference(a, lambda z: z ** 2)


def test_as_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        as_matrix(np.ones((300, 300)))


def test_matrix_roundtrip_mm(tmp_path):
    rng = np.random.default_rng(4)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    path = tmp_path / "a.mtx"
    write_matrix(path, a, fmt="mm")
    assert np.array_equal(read_matrix(path), a)


def test_matrix_roundtrip_txt(tmp_path):
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "a.txt"
    write_matrix(path, a, fmt="txt")
    assert np.array_equal(read_matrix(path), a)


def test_vector_roundtrip(tmp_path):
    b = np.array([1.0 + 2.0j, -0.5, 0.25j])
    path = tmp_path / "b.txt"
    write_vector(path, b)
    assert np.array_equal(read_vector(path), b)


def test_vector_complex_literals(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("1+2i\n-0.5\n0.25i\n")
    assert np.allclose(read_vector(path), [1 + 2j, -0.5, 0.25j])


def test_parse_and_format_complex():
    assert parse_complex("1.5-2i") == 1.5 - 2j
    assert parse_complex("3i") == 3j
    assert parse_complex("-4") == -4.0
    z = 1.25 - 0.5j
    assert parse_complex(format_complex(z)) == z


def test_parse_rational_roundtrip():
    f = RationalFunction(num=(0.5j, 1.0), den=(1.0, -0.5j))
    g = parse_rational(f.to_text())
    assert np.allclose(g.num_arr, f.num_arr)
    assert np.allclose(g.den_arr, f.den_arr)
    with pytest.raises(ValueError):
        parse_rational("num: 1 2")
