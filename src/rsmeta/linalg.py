"""Complex linear algebra and seeded sampling.

Complex matrices are plain ``numpy.ndarray`` of dtype complex128. Every
operation here is deterministic for a fixed seed within one installation,
which is what makes whole experiment sweeps bit-reproducible.

:func:`channel_project` is the package's one |h^H p|^2 projection. It runs
on a :class:`ProjectionWorkspace`, built for one channel stack and one
number of precoder columns. The workspace makes a float64 conjugate copy
of the stack, laid out like the precoder view, and with it allocates the
arrays the projection writes: the inner products as (Re, Im) pairs and
the powers, both stream-major and draw-minor. It also keeps the rate pass
over those powers. The projection is one real matrix product, so every
array it writes is contiguous and handed out as it is. Both Adam
optimizers keep one workspace per run, so the copy is made once and no
array is allocated again on each iteration; a one-shot call gets a
throwaway workspace. The workspace owns every layout that the projection
and its adjoints read, so channel stacks come in any layout, and which
arrays are used never changes a number.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

__all__ = ["RngStream", "gaussian_matrix", "herm_eig", "svd_dominant",
           "ProjectionWorkspace", "channel_project"]

HERM_TOL = 1e-9  # largest Hermitian defect max|a - a^H| herm_eig accepts


class RngStream:
    """Seeded random stream.

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
        self._gen = np.random.Generator(np.random.PCG64(seed))

    def standard_normal(self, shape) -> np.ndarray:
        """Draw real standard-normal values."""
        return self._gen.standard_normal(size=shape)

    def integers(self, low, high) -> int:
        """Draw one integer in [low, high)."""
        return int(self._gen.integers(low, high))

    def uniform(self, low, high, shape=None):
        return self._gen.uniform(low, high, size=shape)

    def child(self, *keys: int) -> "RngStream":
        """Derive an independent stream from this stream's seed and integer keys.

        Pure function of (seed, keys): re-deriving with the same keys gives
        the same stream regardless of how much this stream has been used.
        """
        derived = np.random.SeedSequence([self.seed, *[int(k) for k in keys]])
        return RngStream(int(derived.generate_state(1, np.uint64)[0]))

    def __repr__(self):
        return f"RngStream(seed={self.seed})"


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


def herm_eig(a: np.ndarray):
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Returns ``(w, v)`` with ``a ~= v @ diag(w) @ v.conj().T`` and ``w``
    sorted in descending order. Rejects inputs whose Hermitian defect
    ``max|a - a^H|`` exceeds :data:`HERM_TOL`.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"herm_eig needs a square matrix, got shape {a.shape}")
    defect = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if defect > HERM_TOL:
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
    """One channel stack's conjugate copy, and the arrays that its
    repeated projections onto ``n_streams`` columns fill.

    Built from a complex (n_draws, n_tx, n_users) stack ``h`` in any
    layout: it makes the float64 conjugate copy ``hr`` once, (2 * n_tx,
    n_users * n_draws) with rows interleaved (Re, -Im) per antenna like a
    view and columns user-major, draw-minor, ``h.nbytes`` in all, with its
    transpose ``hr_t``, and :attr:`hu` on first use. With the copy it
    allocates what the projection writes, with their views, so that a run
    reshapes and slices them once: the pairs ``z``, (2, n_streams,
    n_users, n_draws), and their 2-d form ``z2``, (2 * n_streams, n_users
    * n_draws), which the projection's product writes and its adjoint
    reads, and the squares ``sq``, shaped like ``z``, whose real and
    imaginary halves are ``powers`` and ``sq_im``. It also keeps
    :attr:`rate_pass`, the pass over the powers for one layout, which
    :mod:`rsmeta.gradients` builds on first use. A projection onto another
    number of columns, or a rate pass for another layout, raises
    ValueError. An optimizer run that projects one ensemble on every
    iteration builds one workspace; a one-shot caller gets a throwaway
    one. Results that outlive the next call on the workspace must be
    copied out of it.
    """

    def __init__(self, h: np.ndarray, n_streams: int):
        m, n_tx, k = h.shape
        hr = np.empty((n_tx, 2, k, m))
        ht = h.transpose(1, 2, 0)
        hr[:, 0] = ht.real
        np.negative(ht.imag, out=hr[:, 1])
        self.h = h
        self.hr = hr.reshape(2 * n_tx, k * m)
        self.hr_t = self.hr.T
        self.z = np.empty((2, n_streams, k, m))
        self.z2 = self.z.reshape(2 * n_streams, k * m)
        self.sq = np.empty(self.z.shape)
        self.powers, self.sq_im = self.sq
        self.rate_pass = None

    @cached_property
    def hu(self) -> np.ndarray:
        """``h`` as the (0, 2, 1) transpose of a C-ordered array, ``h`` if
        laid out so: the network gradient's ``einsum`` walks it in memory
        order, nearly twice as fast as a C-ordered ``h``, same bits."""
        return np.ascontiguousarray(self.h.swapaxes(1, 2)).swapaxes(1, 2)


def channel_project(h: np.ndarray, p: np.ndarray,
                    workspace: ProjectionWorkspace = None):
    """Inner products ``z = h_k^(m)H p_s`` and their squared magnitudes.

    ``h`` is a complex (n_draws, n_tx, n_users) stack and ``p`` an
    (n_tx, n_streams) precoder, whose columns are read as rows of float64
    (Re, Im) pairs: a view's own memory, a copy of any other ``p``. Those
    rows with every Im negated, stacked over the same rows with each pair
    swapped, times the workspace's conjugate copy ``hr``, is one real
    matrix product that gives Re z and Im z; without a ``workspace`` a
    throwaway one is built for ``h`` and ``p.shape[1]`` columns. Returns
    ``(powers, z, workspace)``: ``z`` the C-ordered (2, n_streams,
    n_users, n_draws) pairs and ``powers = |z|^2`` the C-ordered
    (n_streams, n_users, n_draws) array, so the rate code reads contiguous
    rows over the draws, both owned by ``workspace``, the one the
    projection ran on, whose ``hr`` and ``hu`` the adjoints read.
    """
    rows = np.ascontiguousarray(p.T, dtype=complex).view(float).reshape(
        p.shape[1], h.shape[1], 2)
    ws = _project(h, rows, workspace)
    return ws.powers, ws.z, ws


def _project(h: np.ndarray, rows: np.ndarray,
             workspace: ProjectionWorkspace = None) -> ProjectionWorkspace:
    """:func:`channel_project` of the precoder columns given as C-ordered
    (n_streams, n_tx, 2) float64 (Re, Im) rows, on ``workspace`` or a
    throwaway one built for ``h`` and those columns; returns the
    workspace, whose arrays hold the results. Another stack, or another
    number of columns than the workspace's, raises ValueError."""
    s, n_tx, _ = rows.shape
    ws = ProjectionWorkspace(h, s) if workspace is None else workspace
    if ws.h is not h:
        raise ValueError("the workspace was built for another channel stack")
    if ws.z.shape[1] != s:
        raise ValueError(f"the workspace projects {ws.z.shape[1]} columns, "
                         f"got {s}")
    a = np.empty((2, s, n_tx, 2))
    a[0] = rows
    a[0, ..., 1] *= -1.0
    a[1] = rows[..., ::-1]
    np.matmul(a.reshape(2 * s, 2 * n_tx), ws.hr, out=ws.z2)
    np.square(ws.z, out=ws.sq)
    np.add(ws.powers, ws.sq_im, out=ws.powers)
    return ws


def _project_back(dz2: np.ndarray, hr_t: np.ndarray) -> np.ndarray:
    """The adjoint of :func:`channel_project`'s product: from the gradient
    with respect to ``z`` in its 2-d form, (Re, Im) pairs shaped (2 *
    n_streams, n_users * n_draws), the fresh flat gradient with respect to
    ``p``'s columns read as rows of (Re, Im) pairs. One product with
    ``hr_t``, the transposed channel copy, gives it for the signed rows
    and for the swapped rows; the same sign and swap fold the two onto the
    rows."""
    s = dz2.shape[0] // 2
    g = (dz2 @ hr_t).reshape(2, s, -1, 2)
    g[0, ..., 1] *= -1.0
    g[0] += g[1, ..., ::-1]
    return g[0].ravel()


def _user_major(z: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """The (Re, Im) pairs ``z`` of :func:`channel_project`, (2, n_streams,
    n_users, n_draws), as one C-ordered complex (n_draws, n_users,
    n_streams) array, built in the memory of ``out``, a contiguous float64
    array of ``z``'s size, or in fresh memory."""
    buf = np.empty(z.shape) if out is None else out
    w = buf.reshape(z.shape[::-1]).view(complex)[..., 0]
    w.real = z[0].T
    w.imag = z[1].T
    return w

