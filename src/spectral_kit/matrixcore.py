"""Dense complex matrix primitives.

Ground layer for the toolkit: eigenvalues, induced p-norms, evaluation of
rational functions at matrices, and a reference oracle for scalar functions
of a matrix.  Matrices are square ``numpy.ndarray`` objects of complex128;
:func:`as_matrix` is the single validation gate.
"""

from __future__ import annotations

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


def _dual_vector(y: np.ndarray, p: float) -> np.ndarray:
    # z with <z, y> = ||y||_p and ||z||_q = 1 (q the conjugate exponent)
    norm = np.linalg.norm(y, p)
    a = np.abs(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(a > 0, y * a ** (p - 2.0), 0.0)
    return z / norm ** (p - 1.0)


def _dual_columns(y: np.ndarray, p: float) -> np.ndarray:
    # columnwise _dual_vector; callers guarantee nonzero columns
    norms = np.sum(np.abs(y) ** p, axis=0) ** (1.0 / p)
    a = np.abs(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(a > 0, y * a ** (p - 2.0), 0.0)
    return z / norms ** (p - 1.0)


def _pnorm_ascent(m: np.ndarray, p: float) -> tuple[float, np.ndarray]:
    # Boyd/Higham power method for the induced Hoelder p-norm, 32 random
    # starts.  Ascent is monotone: a certified lower bound with witness x.
    # All starts advance together as columns; converged or annihilated
    # columns freeze while the rest keep iterating.
    n = m.shape[0]
    q = p / (p - 1.0)
    mh = m.conj().T
    rng = np.random.default_rng(0)
    cols = [np.ones(n, dtype=complex)]
    cols += [e for e in np.eye(n, dtype=complex)]
    for _ in range(32):
        cols.append(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    x = np.stack(cols, axis=1)
    x = x / np.sum(np.abs(x) ** p, axis=0) ** (1.0 / p)
    gamma = np.zeros(x.shape[1])
    active = np.ones(x.shape[1], dtype=bool)
    for _ in range(100):
        idx = np.flatnonzero(active)
        y = m @ x[:, idx]
        ny = np.sum(np.abs(y) ** p, axis=0) ** (1.0 / p)
        alive = ny > 0.0
        if not alive.all():
            active[idx[~alive]] = False  # annihilated: keep previous gamma
            idx, y, ny = idx[alive], y[:, alive], ny[alive]
            if idx.size == 0:
                break
        gamma[idx] = ny
        z = mh @ _dual_columns(y, p)
        nz = np.sum(np.abs(z) ** q, axis=0) ** (1.0 / q)
        done = nz <= ny * (1.0 + 1e-12)
        active[idx[done]] = False
        cont = ~done
        if cont.any():
            x[:, idx[cont]] = _dual_columns(z[:, cont], q)
        if not active.any():
            break
    j = int(np.argmax(gamma))
    return float(gamma[j]), x[:, j]


def op_norm(a, p=2) -> float:
    """Induced Hoelder p-norm of a square matrix.

    p = 1 and p = inf are exact column/row sums, p = 2 is the largest
    singular value.  Other p in (1, inf) use ascent iteration from 32 random
    starts plus deterministic corners; the returned value is a certified
    lower bound only (induced p-norms are not convex to certify exactly).
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
    val, _ = _pnorm_ascent(m, p)
    return val


def eval_poly(coeffs, a) -> np.ndarray:
    """p(A) for ascending coefficients by the matrix Horner scheme."""
    m = as_matrix(a)
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    n = m.shape[0]
    out = np.eye(n, dtype=complex) * c[-1]
    for ck in c[-2::-1]:
        out = out @ m
        out += ck * np.eye(n, dtype=complex)
    return out


@dataclass(frozen=True)
class RationalFunction:
    """Rational function p/q with ascending complex coefficient arrays.

    A polynomial is ``den == [1]``.  Instances are immutable; evaluation is
    vectorized over numpy arrays.
    """

    num: tuple = field(default=(0.0,))
    den: tuple = field(default=(1.0,))

    def __post_init__(self):
        num = _trim(np.atleast_1d(np.asarray(self.num, dtype=complex)))
        den = _trim(np.atleast_1d(np.asarray(self.den, dtype=complex)))
        if den.size == 0 or np.all(den == 0):
            raise ValueError("denominator must not be identically zero")
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", tuple(den))

    @classmethod
    def from_poly(cls, coeffs) -> "RationalFunction":
        return cls(num=tuple(np.atleast_1d(np.asarray(coeffs, dtype=complex))), den=(1.0,))

    @classmethod
    def blaschke(cls, zeros, phase: complex = 1.0) -> "RationalFunction":
        """Finite Blaschke product phase * prod (z - a)/(1 - conj(a) z)."""
        num = np.array([complex(phase)])
        den = np.array([1.0 + 0j])
        for a in np.atleast_1d(np.asarray(zeros, dtype=complex)):
            if abs(a) >= 1.0:
                raise ValueError(f"Blaschke zero {a} outside the open unit disk")
            num = np.convolve(num, np.array([-a, 1.0]))
            den = np.convolve(den, np.array([1.0, -np.conj(a)]))
        return cls(num=tuple(num), den=tuple(den))

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
        return RationalFunction(num=tuple(c * self.num_arr), den=self.den)

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
    return _eval_rational_guarded(f, as_matrix(a), None)


def _pole_guard(m: np.ndarray):
    # eval_rational's guard data for a validated matrix: (spectrum, radius)
    return np.linalg.eigvals(m), 1e-10 * max(1.0, float(np.linalg.norm(m, 2)))


def _eval_rational_guarded(f: RationalFunction, m: np.ndarray, guard,
                           poles=None) -> np.ndarray:
    # eval_rational on a validated matrix; guard is _pole_guard(m), or None
    # to compute it only if f has poles (callers evaluating many functions
    # at one matrix pass it once computed); poles is f.poles(), or None to
    # compute it here
    if poles is None:
        poles = f.poles()
    if poles.size:
        eigs, radius = guard if guard is not None else _pole_guard(m)
        dist = np.abs(poles[:, None] - eigs[None, :])
        bad = np.nonzero(dist.min(axis=1) <= radius)[0]
        if bad.size:
            raise ValueError(
                f"pole {poles[bad[0]]} of the rational function lies on the spectrum"
            )
    pa = eval_poly(f.num_arr, m)
    qa = eval_poly(f.den_arr, m)
    return np.linalg.solve(qa, pa)


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
