"""Dense complex matrix primitives.

Ground layer for the toolkit: eigenvalues, induced p-norms, evaluation of
rational functions at matrices, and a reference oracle for scalar functions
of a matrix.  Matrices are square ``numpy.ndarray`` objects of complex128;
:func:`as_matrix` is the single validation gate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.io
import scipy.linalg

__all__ = [
    "MAX_DIM",
    "OracleUnavailableError",
    "RationalFunction",
    "as_matrix",
    "eigenvalues",
    "spectral_radius",
    "op_norm",
    "eval_poly",
    "eval_rational",
    "matfun_reference",
    "read_matrix",
    "write_matrix",
    "read_vector",
    "write_vector",
    "parse_complex",
    "format_complex",
    "parse_rational",
]

MAX_DIM = 256


class OracleUnavailableError(RuntimeError):
    """Raised when no trustworthy reference evaluation of f(A) exists."""


def as_matrix(a) -> np.ndarray:
    """Validate and convert input to a square complex matrix.

    Parameters
    ----------
    a : array_like
        Square 2-d array, any numeric dtype.

    Returns
    -------
    numpy.ndarray of complex128, shape (n, n), 1 <= n <= MAX_DIM.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    n = m.shape[0]
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension {n} outside [1, {MAX_DIM}]")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix entries must be finite")
    return m


def eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a square matrix, with multiplicity.

    Backward-stable dense solve (Hessenberg reduction + shifted QR via
    LAPACK); accuracy on the order of 1e-10 * ||A|| for moderate dimensions.
    """
    return np.linalg.eigvals(as_matrix(a))


def spectral_radius(a) -> float:
    m = as_matrix(a)
    return float(np.max(np.abs(np.linalg.eigvals(m))))


_TINY = float(np.finfo(float).tiny)
# LAPACK's safe range for the largest entry of a matrix (zheevr's rmin and
# rmax); outside it ``_safe_scale`` scales the matrix first
_SAFE_MIN = math.sqrt(_TINY / np.finfo(float).eps)
_SAFE_MAX = min(1.0 / _SAFE_MIN, 1.0 / math.sqrt(math.sqrt(_TINY)))


def _safe_scale(m: np.ndarray, axis=None):
    # 1.0 where the largest entry of m (over axis) lies in LAPACK's safe
    # range; outside it the (exact) power of two that brings that entry into
    # [0.5, 1), capped at 2^1023 for subnormal entries
    big = np.abs(m).max(axis=axis)
    outside = ((0.0 < big) & (big < _SAFE_MIN)) | (big > _SAFE_MAX)
    return np.ldexp(1.0, np.where(outside, np.minimum(-np.frexp(big)[1], 1023), 0))


def _norms_duals(y: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    # per column of y (axis -2): its Hoelder p-norm and its dual d, with
    # <d, y> = ||y||_p and ||d||_q = 1 (nan for a zero column).  A nonzero
    # column whose sum of |y_i|^p is not finite and normal is summed divided
    # by its largest modulus, so its sum lies in [1, n] at every p; no other
    # column is touched.  Callers silence the overflow of the unscaled powers
    a = np.abs(y)
    s = (a ** p).sum(axis=-2)
    scaled = not (s.min() >= _TINY and s.max() < math.inf)
    if scaled:
        amax = a.max(axis=-2)
        f = np.where(((s < _TINY) | (s == math.inf)) & (amax > 0.0), amax, 1.0)
        y, a = y / f[..., None, :], a / f[..., None, :]
        s = (a ** p).sum(axis=-2)
    norms = s ** (1.0 / p)
    d = np.where(a > 0, y * a ** (p - 2.0), 0.0) / (norms ** (p - 1.0))[..., None, :]
    return (norms * f if scaled else norms), d


@functools.lru_cache(maxsize=32)
def _ascent_starts(n: int, p: float, unit_vectors: bool = True) -> np.ndarray:
    # the start block of _pnorm_ascent, columns of unit p-norm: the ones
    # vector, the unit vectors (unless left out) and 32 complex Gaussian
    # draws from seed 0; read-only, since every call shares it
    rng = np.random.default_rng(0)
    cols = [np.ones(n, dtype=complex)]
    if unit_vectors:
        cols += [e for e in np.eye(n, dtype=complex)]
    for _ in range(32):
        cols.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    x = np.stack(cols, axis=1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = x / _norms_duals(x, p)[0]
    x.setflags(write=False)
    return x


def _pnorm_ascent(ms: np.ndarray, p: float,
                  unit_vectors: bool = True) -> tuple[np.ndarray, np.ndarray]:
    # Boyd/Higham power method for the induced Hoelder p-norm of each matrix
    # of a (B, n, n) stack, from the starts of _ascent_starts (without the
    # unit vectors if so asked).  Ascent is monotone: a certified lower
    # bound per matrix, with its witness x (B, n).  Each round multiplies
    # every start column of each matrix that still has a live column; a
    # converged or annihilated column is frozen by mask, never compacted
    # away.  numpy's matmul and column sums round by the shapes they see,
    # which stay fixed, so a matrix gets the same value and witness bit for
    # bit alone or in any stack.  A matrix outside LAPACK's safe range runs
    # scaled as ``_safe_scale`` says, so that its products neither overflow
    # nor underflow; inside it nothing changes
    scale = _safe_scale(ms, axis=(1, 2))
    if (scale != 1.0).any():
        ms = ms * scale[:, None, None]
    q = p / (p - 1.0)
    mh = np.ascontiguousarray(ms.conj().transpose(0, 2, 1))
    x = np.repeat(_ascent_starts(ms.shape[-1], p, unit_vectors)[None], ms.shape[0], axis=0)
    gamma = np.zeros((ms.shape[0], x.shape[-1]))
    live = np.ones(gamma.shape, dtype=bool)
    for it in range(100):
        rows = np.flatnonzero(live.any(axis=1))
        if rows.size == 0:
            break
        if rows.size == len(live):
            rows = slice(None)  # a view: the same operands as the copy
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ny, d = _norms_duals(ms[rows] @ x[rows], p)
            alive = live[rows] & (ny > 0.0)  # annihilated: keep previous gamma
            gamma[rows] = np.where(alive, ny, gamma[rows])
            if it == 99:
                break  # x stays the witness of gamma
            nz, w = _norms_duals(mh[rows] @ d, q)
        alive &= ~(nz <= ny * (1.0 + 1e-12))
        live[rows] = alive
        x[rows] = np.where(alive[:, None, :], w, x[rows])
    j = np.argmax(gamma, axis=1)
    b = np.arange(ms.shape[0])
    return gamma[b, j] / scale, x[b, :, j]


def op_norm(a, p=2) -> float:
    """Induced Hoelder p-norm of a square matrix.

    p = 1 and p = inf are exact column/row sums, p = 2 is the largest
    singular value.  Other p in (1, inf) use the Boyd/Higham ascent from
    the ones vector, the unit vectors and 32 seeded random starts; the
    returned value is a certified lower bound only (induced p-norms are not
    convex to certify exactly), the same whether the matrix is alone or in
    a stack, and homogeneous at every scale (a matrix outside LAPACK's safe
    range runs scaled by a power of two, and an iterate whose p-th powers
    would overflow or underflow is summed divided by its largest entry).
    """
    m = as_matrix(a)
    if p == 1:
        return float(np.max(np.sum(np.abs(m), axis=0)))
    if p in (np.inf, math.inf, "inf"):
        return float(np.max(np.sum(np.abs(m), axis=1)))
    if p == 2:
        return float(np.linalg.norm(m, 2))
    p = float(p)
    if not 1.0 < p < math.inf:
        raise ValueError(f"norm selector p={p} outside (1, inf)")
    val, _ = _pnorm_ascent(m[None], p)
    return float(val[0])


def eval_poly(coeffs, a) -> np.ndarray:
    """p(A) for ascending coefficients by the matrix Horner scheme."""
    m = as_matrix(a)
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    return _horner(c[None, :], m)[0]


def _horner(coeffs: np.ndarray, m: np.ndarray) -> np.ndarray:
    # p_b(A) for each row b of ascending coefficients (rows, d + 1), stacked
    # (rows, n, n); m is one matrix A or a stack (rows, n, n) of A_b.  c_k is
    # added on the diagonal, and a row's products start at its leading
    # nonzero coefficient, so zero padding on the high side costs no product
    # and leaves each matrix as the unpadded row gives it
    (rows, width), n = coeffs.shape, m.shape[-1]
    lead = width - 1 - np.argmax(coeffs[:, ::-1] != 0, axis=1)
    first, last = int(lead.min()), int(lead.max())
    out = np.zeros((rows, n, n), dtype=complex)
    for k in range(last, -1, -1):
        if k < first:
            out = out @ m
        elif k < last:
            started = lead > k
            out[started] = out[started] @ (m if m.ndim == 2 else m[started])
        out.reshape(rows, n * n)[:, :: n + 1] += coeffs[:, k, None]
    return out


@dataclass(frozen=True)
class RationalFunction:
    """Rational function p/q with ascending complex coefficient arrays.

    A polynomial is ``den == [1]``.  Instances are immutable; evaluation is
    vectorized over numpy arrays.  The constructors that know their poles
    (``blaschke``, ``scale`` of such a function, and the candidate families
    of ``spectraltest``) keep them beside the coefficients; the store is not
    part of the value: ``==``, ``hash`` and ``repr`` read num and den only.
    """

    num: tuple = field(default=(0.0,))
    den: tuple = field(default=(1.0,))
    # the roots of den with multiplicity, as the constructor knew them, or
    # None; read-only, and set only by _with_poles
    _poles: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        num = _trim(np.atleast_1d(np.asarray(self.num, dtype=complex)))
        den = _trim(np.atleast_1d(np.asarray(self.den, dtype=complex)))
        if den.size == 0 or np.all(den == 0):
            raise ValueError("denominator must not be identically zero")
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))

    @classmethod
    def _with_poles(cls, num, den, poles) -> "RationalFunction":
        # p/q with q's roots stored: kept only when they are finite and as
        # many as the trimmed den has (an underflowed leading coefficient
        # drops the store, and poles() roots den instead)
        f = cls(num=num, den=den)
        poles = np.array(poles, dtype=complex).reshape(-1)
        if len(poles) == len(f.den) - 1 and np.isfinite(poles).all():
            poles.setflags(write=False)
            object.__setattr__(f, "_poles", poles)
        return f

    @classmethod
    def from_poly(cls, coeffs) -> "RationalFunction":
        return cls(num=tuple(np.atleast_1d(np.asarray(coeffs, dtype=complex))), den=(1.0,))

    @classmethod
    def blaschke(cls, zeros, phase: complex = 1.0) -> "RationalFunction":
        """Finite Blaschke product phase * prod (z - a)/(1 - conj(a) z)."""
        num = np.array([complex(phase)])
        den = np.array([1.0 + 0j])
        zeros = np.atleast_1d(np.asarray(zeros, dtype=complex))
        for a in zeros:
            if abs(a) >= 1.0:
                raise ValueError(f"Blaschke zero {a} outside the open unit disk")
            num = np.convolve(num, np.array([-a, 1.0]))
            den = np.convolve(den, np.array([1.0, -np.conj(a)]))
        # a zero at 0 contributes the factor 1 to den, and no pole
        return cls._with_poles(tuple(num), tuple(den), 1.0 / np.conj(zeros[zeros != 0]))

    @property
    def num_arr(self) -> np.ndarray:
        return np.asarray(self.num, dtype=complex)

    @property
    def den_arr(self) -> np.ndarray:
        return np.asarray(self.den, dtype=complex)

    @property
    def degree(self) -> int:
        return max(len(self.num), len(self.den)) - 1

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        pn = np.polyval(self.num_arr[::-1], z)
        pd = np.polyval(self.den_arr[::-1], z)
        return pn / pd

    def poles(self) -> np.ndarray:
        """The roots of den, with multiplicity.

        The poles a constructor stored are returned as built (read-only,
        one per root of the trimmed den, in the constructor's order):
        rooting the expanded den can move them by its condition number
        times the rounding unit, which on a small shape away from 0
        reaches the shape's own size.  Functions parsed from text, built
        by Pade or by ``compose_affine`` carry no store, and their den is
        rooted by ``np.roots``.
        """
        if self._poles is not None:
            return self._poles
        den = self.den_arr
        if len(den) == 1:
            return np.empty(0, dtype=complex)
        return np.roots(den[::-1])

    def zeros(self) -> np.ndarray:
        num = self.num_arr
        if len(num) == 1:
            return np.empty(0, dtype=complex)
        return np.roots(num[::-1])

    def compose_affine(self, alpha: complex, beta: complex) -> "RationalFunction":
        """f(alpha*z + beta) as a new rational function."""
        return RationalFunction(
            num=tuple(_affine_substitute(self.num_arr, alpha, beta)),
            den=tuple(_affine_substitute(self.den_arr, alpha, beta)),
        )

    def scale(self, c: complex) -> "RationalFunction":
        if self._poles is None:
            return RationalFunction(num=tuple(c * self.num_arr), den=self.den)
        return RationalFunction._with_poles(tuple(c * self.num_arr), self.den, self._poles)

    def to_text(self) -> str:
        num = " ".join(format_complex(c) for c in self.num)
        den = " ".join(format_complex(c) for c in self.den)
        return f"num: {num} / den: {den}"


def _trim(c: np.ndarray) -> np.ndarray:
    # drop trailing (highest-degree) zero coefficients, keep at least one
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        return c[:1]
    return c[: nz[-1] + 1]


def _affine_substitute(coeffs: np.ndarray, alpha: complex, beta: complex) -> np.ndarray:
    # p(alpha z + beta) via Horner on the shifted variable
    out = np.array([coeffs[-1]], dtype=complex)
    lin = np.array([beta, alpha], dtype=complex)
    for ck in coeffs[-2::-1]:
        out = np.convolve(out, lin)
        out[0] += ck
    return out


def eval_rational(f: RationalFunction, a) -> np.ndarray:
    """f(A) = p(A) q(A)^{-1} with a pole-proximity guard.

    Raises ``ValueError`` naming the offending pole if any pole of f is
    within 1e-10 * max(1, ||A||) of an eigenvalue of A.
    """
    m = as_matrix(a)
    poles = f.poles()
    if poles.size:
        bad = _pole_on_spectrum(poles, _pole_guard(m))
        if bad is not None:
            raise ValueError(f"pole {bad} of the rational function lies on the spectrum")
    pa = eval_poly(f.num_arr, m)
    qa = eval_poly(f.den_arr, m)
    return np.linalg.solve(qa, pa)


def _pole_guard(m: np.ndarray):
    # eval_rational's guard data for a validated matrix: (spectrum, radius)
    return np.linalg.eigvals(m), 1e-10 * max(1.0, float(np.linalg.norm(m, 2)))


def _pole_on_spectrum(poles: np.ndarray, guard):
    # the first of the (non-empty) poles within guard's radius of its
    # spectrum, or None; guard is _pole_guard(m), computed once by callers
    # that test many functions at one matrix
    eigs, radius = guard
    bad = np.nonzero(np.abs(poles[:, None] - eigs[None, :]).min(axis=1) <= radius)[0]
    return poles[bad[0]] if bad.size else None


def _is_exp(f) -> bool:
    return f is np.exp or f is math.exp or getattr(f, "__name__", "") == "exp"


def matfun_reference(a, f) -> np.ndarray:
    """Reference f(A), used as a test oracle only.

    f = exp is handled by scaling-and-squaring for arbitrary A; anything
    else requires A diagonalizable with eigenvector condition number <= 1e6.
    """
    m = as_matrix(a)
    if _is_exp(f):
        return scipy.linalg.expm(m)
    w, v = np.linalg.eig(m)
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond > 1e6:
        raise OracleUnavailableError(
            f"eigenvector condition number {cond:.3g} exceeds 1e6 and f is not exp"
        )
    fw = np.asarray([f(z) for z in w], dtype=complex)
    return v @ (fw[:, None] * np.linalg.inv(v))


# ---------------------------------------------------------------------------
# file formats: Matrix Market and an internal structured-text format


def parse_complex(token: str) -> complex:
    """Parse a complex literal like '1.5', '2i', '-1+0.5i' (also 'j')."""
    s = token.strip().replace("I", "i").replace("j", "i")
    s = s.replace("i", "j")
    try:
        return complex(s)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex literal {token!r}") from exc


def format_complex(z: complex) -> str:
    z = complex(z)
    re = f"{z.real:.15g}"
    if z.imag == 0:
        return re
    sign = "+" if z.imag >= 0 else "-"
    return f"{re}{sign}{abs(z.imag):.15g}i"


def read_matrix(path) -> np.ndarray:
    """Read a square complex matrix from Matrix Market or structured text.

    Structured text: optional '#' comment lines, then the dimension n,
    then n*n whitespace-separated "re im" pairs in row-major order.
    """
    with open(path, "r") as fh:
        head = fh.readline()
    if head.startswith("%%MatrixMarket"):
        m = scipy.io.mmread(path)
        if hasattr(m, "todense"):
            m = m.todense()
        return as_matrix(np.asarray(m, dtype=complex))
    tokens = _data_tokens(path)
    n = int(float(tokens[0]))
    vals = [float(t) for t in tokens[1:]]
    if len(vals) != 2 * n * n:
        raise ValueError(f"expected {2 * n * n} re/im values for n={n}, got {len(vals)}")
    flat = np.asarray(vals).reshape(n * n, 2)
    return as_matrix((flat[:, 0] + 1j * flat[:, 1]).reshape(n, n))


def _data_tokens(path) -> list:
    tokens = []
    with open(path, "r") as fh:
        for line in fh:
            line = line.split("#", 1)[0]
            tokens.extend(line.split())
    return tokens


def write_matrix(path, a, fmt: str = "mm") -> None:
    m = as_matrix(a)
    if fmt == "mm":
        scipy.io.mmwrite(path, m.astype(complex))
    elif fmt == "txt":
        with open(path, "w") as fh:
            fh.write(f"{m.shape[0]}\n")
            for row in m:
                fh.write(" ".join(f"{z.real:.17g} {z.imag:.17g}" for z in row) + "\n")
    else:
        raise ValueError(f"unknown matrix format {fmt!r}")


def read_vector(path) -> np.ndarray:
    """Read a complex vector: one entry per line, 're im' or 'a+bi'."""
    entries = []
    with open(path, "r") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) == 2:
                try:
                    entries.append(float(parts[0]) + 1j * float(parts[1]))
                    continue
                except ValueError:
                    pass
            if len(parts) != 1:
                raise ValueError(f"cannot parse vector line {line!r}")
            entries.append(parse_complex(parts[0]))
    return np.asarray(entries, dtype=complex)


def write_vector(path, b) -> None:
    b = np.atleast_1d(np.asarray(b, dtype=complex))
    with open(path, "w") as fh:
        for z in b:
            fh.write(f"{z.real:.17g} {z.imag:.17g}\n")


def parse_rational(text: str) -> RationalFunction:
    """Parse 'num: c0 c1 ... / den: d0 d1 ...' with complex literals."""
    if "/" not in text:
        raise ValueError("rational literal must contain '/' between num and den")
    num_part, den_part = text.split("/", 1)
    num_part = num_part.strip()
    den_part = den_part.strip()
    if not num_part.startswith("num:") or not den_part.startswith("den:"):
        raise ValueError("rational literal must look like 'num: ... / den: ...'")
    num = [parse_complex(t) for t in num_part[len("num:"):].split()]
    den = [parse_complex(t) for t in den_part[len("den:"):].split()]
    if not num or not den:
        raise ValueError("empty coefficient list in rational literal")
    return RationalFunction(num=tuple(num), den=tuple(den))
