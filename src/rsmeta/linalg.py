"""Complex linear algebra, seeded sampling, and quadrature substrate.

Complex matrices are plain ``numpy.ndarray`` of dtype complex128. Every
operation here is deterministic for a fixed seed within one installation,
which is what makes whole experiment sweeps bit-reproducible.

:func:`channel_project` is the package's one |h^H p|^2 projection. It runs
on a :class:`ProjectionWorkspace`: the user-major conjugate copy of the
channel stack plus the arrays that it and the rate code fill in place,
the inner products user-major and the powers stream-major. Both Adam
optimizers (network and direct) keep one workspace per run, so the copy is
made once and those arrays are not allocated again on each iteration; a
one-shot call gets a throwaway workspace. Which destination arrays are
used never changes a number.
"""
from __future__ import annotations

import numpy as np

__all__ = ["RngStream", "gaussian_matrix", "herm_eig", "svd_dominant",
           "ProjectionWorkspace", "channel_project", "quadrature"]


class RngStream:
    """Seeded random stream with a draw counter.

    Wraps numpy's PCG64 generator: a given seed always reproduces the same
    draw sequence. A stream is single-owner; parallel code must derive
    independent child streams with :meth:`child` instead of sharing one.

    Parameters
    ----------
    seed : int
        Nonnegative seed. Streams with equal seeds are identical.
    """

    def __init__(self, seed: int):
        seed = int(seed)
        if seed < 0:
            raise ValueError(f"seed must be nonnegative, got {seed}")
        self.seed = seed
        self.position = 0  # scalar draws consumed so far
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def standard_normal(self, shape) -> np.ndarray:
        """Draw real standard-normal values and advance the counter."""
        out = self._gen.standard_normal(size=shape)
        self.position += out.size
        return out

    def integers(self, low, high) -> int:
        """Draw one integer in [low, high)."""
        self.position += 1
        return int(self._gen.integers(low, high))

    def uniform(self, low, high, shape=None):
        out = self._gen.uniform(low, high, size=shape)
        self.position += np.size(out)
        return out

    def child(self, *keys: int) -> "RngStream":
        """Derive an independent stream from this stream's seed and integer keys.

        Pure function of (seed, keys): re-deriving with the same keys gives
        the same stream regardless of how much this stream has been used.
        """
        derived = np.random.SeedSequence([self.seed, *[int(k) for k in keys]])
        return RngStream(int(derived.generate_state(1, np.uint64)[0]))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, position={self.position})"


def gaussian_matrix(rng: RngStream, rows: int, cols: int, variance: float) -> np.ndarray:
    """Draw a rows x cols matrix of i.i.d. circular complex Gaussians.

    Each entry has total variance ``variance``, split evenly between the
    real and imaginary parts. The real block is drawn before the imaginary
    block, so the draw order is part of the reproducibility contract.
    """
    if variance < 0:
        raise ValueError(f"variance must be nonnegative, got {variance}")
    scale = np.sqrt(variance / 2.0)
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return scale * (re + 1j * im)


def herm_eig(a: np.ndarray, herm_tol: float = 1e-9):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(w, v)`` with ``a ~= v @ diag(w) @ v.conj().T`` and ``w``
    sorted in descending order. Rejects inputs whose Hermitian defect
    ``max|a - a^H|`` exceeds ``herm_tol``.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"herm_eig needs a square matrix, got shape {a.shape}")
    defect = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if defect > herm_tol:
        raise ValueError(f"matrix is not Hermitian: max|a - a^H| = {defect:.3e}")
    # symmetrize so eigh sees an exactly Hermitian operand
    w, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    return w[::-1].copy(), v[:, ::-1].copy()


def svd_dominant(a: np.ndarray) -> np.ndarray:
    """Left singular vector of the largest singular value, unit norm."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"svd_dominant needs a matrix, got shape {a.shape}")
    if not np.any(a):
        raise ValueError("svd_dominant is undefined for the zero matrix")
    u, _, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, 0].copy()


class ProjectionWorkspace:
    """The arrays that repeated projections of one channel stack reuse.

    Built from a complex (n_draws, n_tx, n_users) stack ``h``: it makes the
    user-major conjugate (n_draws * n_users, n_tx) copy ``hc`` once, and
    :meth:`array` hands out named arrays that every later request under the
    same name gets again, to be overwritten: the user-major inner products
    ``z``, (n_draws, n_users, n_streams), the powers and power gradient,
    stream-major and draw-minor, (n_streams, n_users, n_draws), and the
    rate code's stacked (n_layers, n_users, n_draws) layer arrays. An
    optimizer run that projects one ensemble on every iteration builds one
    workspace; a one-shot caller lets :func:`channel_project` build a
    throwaway one. Results that outlive the next call on the workspace must
    be copied out of it.
    """

    def __init__(self, h: np.ndarray):
        m, n_tx, k = h.shape
        hc = np.empty((m, k, n_tx), dtype=complex)
        np.conjugate(h.transpose(0, 2, 1), out=hc)
        self.h = h
        self.hc = hc.reshape(m * k, n_tx)
        self._arrays = {}

    def array(self, key: str, shape: tuple, dtype=float) -> np.ndarray:
        """The uninitialized array ``key``, reused while its shape holds."""
        arr = self._arrays.get(key)
        if arr is None or arr.shape != shape or arr.dtype != dtype:
            arr = self._arrays[key] = np.empty(shape, dtype=dtype)
        return arr


def channel_project(h: np.ndarray, p: np.ndarray,
                    workspace: ProjectionWorkspace = None):
    """Inner products ``h_k^(m)H p_s`` and their squared magnitudes.

    ``h`` is a complex (n_draws, n_tx, n_users) stack and ``p`` an
    (n_tx, n_streams) precoder. One matrix product of the workspace's
    user-major conjugate copy ``hc`` with ``p`` gives every inner product;
    without a ``workspace`` a throwaway one is built for ``h``. Returns
    ``(powers, z, hc)``, ``z`` and ``powers = |z|^2`` shaped (n_draws,
    n_users, n_streams) and living in the workspace, and ``hc`` for the
    adjoint product. ``z`` is C-ordered, user-major; ``powers`` is the
    transposed view of a C-ordered (n_streams, n_users, n_draws) array, so
    ``powers.T`` hands the rate code contiguous rows over the draws.
    """
    ws = ProjectionWorkspace(h) if workspace is None else workspace
    if ws.h is not h:
        raise ValueError("the workspace was built for another channel stack")
    m, _, k = h.shape
    z = ws.array("z", (m, k, p.shape[1]), complex)
    np.matmul(ws.hc, p, out=z.reshape(m * k, -1))
    zt = z.T
    powers = np.square(zt.real, out=ws.array("powers", zt.shape))
    powers += np.square(zt.imag, out=ws.array("imag_sq", zt.shape))
    return powers.T, z, ws.hc


def quadrature(f, lo: float, hi: float, nodes: int = 513) -> complex:
    """Composite Simpson integration of a complex-valued integrand.

    ``f`` must accept a float ndarray of abscissae and return the integrand
    values elementwise. ``nodes`` must be odd and at least 3 (an even
    interval count). Error is O(((hi-lo)/nodes)^4) for smooth integrands.
    """
    nodes = int(nodes)
    if nodes < 3 or nodes % 2 == 0:
        raise ValueError(f"nodes must be odd and >= 3, got {nodes}")
    if lo > hi:
        raise ValueError(f"need lo <= hi, got lo={lo}, hi={hi}")
    if lo == hi:
        return 0.0 + 0.0j
    x = np.linspace(lo, hi, nodes)
    y = np.asarray(f(x), dtype=complex)
    if y.shape != x.shape:
        raise ValueError("integrand must map an (n,) array to an (n,) array")
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = (hi - lo) / (nodes - 1)
    return complex((h / 3.0) * np.dot(w, y))
