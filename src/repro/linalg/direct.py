"""Direct sparse solver (LU) used as the gold reference.

Also the computational core of the SPICE DC engine: SPICE's ``.op`` on a
resistive network is exactly one sparse LU factorization + solve of the
MNA system.

Every engine's plane factorization runs through :class:`DirectSolver`, so
two choices made here speed all of them up at once:

* **Symmetric fill-reducing ordering.**  Almost every system factored
  here is a grid Laplacian (symmetric positive definite, diagonally
  dominant), so SuperLU orders it by minimum degree on ``A^T + A``
  instead of its default COLAMD (a column ordering made for
  unsymmetric matrices and arbitrary row pivoting).  On the C3 plane
  that cuts L+U fill from 23.3M to 5.5M entries and factorize time
  about 3x.  The exception is the MNA matrix of the SPICE oracle: its
  voltage-source rows have zero diagonals, partial pivoting must swap
  rows there, and that breaks the symmetric ordering (on a C0-size
  deck fill grows from 10.8M to 18.8M and factorize 5x).  So the
  ordering follows the input: symmetric when the diagonal is zero-free,
  COLAMD otherwise.  SuperLU's default partial pivoting stays on for
  both.
* **Column-parallel back-substitution.**  SuperLU's triangular solve
  releases the GIL, so a wide multi-column solve is split into
  contiguous column blocks run on a process-wide thread pool, one block
  per available core.  Under the symmetric ordering a column's result
  was measured not to depend on which other columns share its call
  (C1 and C3 planes, 1 to 16 columns, ``trans`` N and T), so the split
  result is bitwise the single-call result.  Narrow solves stay one
  call: below ``SPLIT_MIN_WORK`` rows x columns the thread hand-off
  costs more than it saves.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.errors import SingularSystemError

#: SuperLU column orderings (see module doc): matrices with a zero-free
#: diagonal, and matrices with zero diagonal entries.
SYMMETRIC_ORDERING = "MMD_AT_PLUS_A"
PIVOTING_ORDERING = "COLAMD"

#: Smallest ``rows * columns`` solve split across the column pool.  On a
#: 2-core host a C1 plane (22k free nodes) gains from the split at 16
#: columns and loses at 8; the C3 plane (249k) gains at 8.
SPLIT_MIN_WORK = 1 << 18

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _lanes() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _column_pool() -> ThreadPoolExecutor:
    """The process-wide pool running column blocks beside the calling
    thread (created on first use, one worker per extra core)."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=_lanes() - 1, thread_name_prefix="repro-lu-solve"
            )
        return _pool


def _forget_pool() -> None:
    """A forked child inherits the pool object but none of its threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


class DirectSolver:
    """Sparse LU with an explicit factorization step.

    Keeping the factorization makes repeated solves with new right-hand
    sides cheap and lets callers account for factor fill-in (the memory
    story behind the paper's SPICE out-of-memory column).  One factor may
    be solved from several threads at once.
    """

    def __init__(self, matrix: sp.spmatrix):
        csc = sp.csc_matrix(matrix)
        if csc.shape[0] != csc.shape[1]:
            raise SingularSystemError(
                f"matrix must be square, got {csc.shape}"
            )
        self._ordering = (
            SYMMETRIC_ORDERING
            if np.all(csc.diagonal() != 0)
            else PIVOTING_ORDERING
        )
        try:
            self._lu = spla.splu(csc, permc_spec=self._ordering)
        except RuntimeError as exc:  # SuperLU signals singularity this way
            raise SingularSystemError(f"LU factorization failed: {exc}") from exc
        self.n = csc.shape[0]
        self.matrix_nnz = int(csc.nnz)

    @property
    def ordering(self) -> str:
        """SuperLU column ordering the factors were computed with."""
        return self._ordering

    @property
    def factor_nnz(self) -> int:
        """Non-zeros in the L and U factors (fill-in included)."""
        return int(self._lu.nnz)

    @property
    def memory_bytes(self) -> int:
        """Approximate bytes held by the factors (values + indices)."""
        # Each stored factor entry carries an 8-byte value and roughly a
        # 4-byte index; permutation vectors add 2 * 4 * n.
        return int(self._lu.nnz * 12 + 8 * self.n)

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """Back-substitute one or many right-hand sides.

        ``b`` may be ``(n,)`` or ``(n, k)``; the multi-column form solves
        all ``k`` systems against the cached factorization (the batched
        scenario engine's CVN hot path), split across the column pool
        when wide enough (see module doc).

        ``trans="T"`` solves the transposed system ``A^T x = b`` against
        the *same* factors (``U^T L^T`` back-substitution) -- the adjoint
        solve of the sensitivity engine, at zero extra factorization
        cost.
        """
        if trans not in ("N", "T"):
            raise SingularSystemError(
                f"trans must be 'N' or 'T', got {trans!r}"
            )
        b = np.asarray(b, dtype=float)
        if b.ndim not in (1, 2):
            raise SingularSystemError(
                f"rhs must be a vector or a column matrix, got ndim={b.ndim}"
            )
        if b.shape[0] != self.n:
            raise SingularSystemError(
                f"rhs has {b.shape[0]} entries, system has {self.n}"
            )
        if b.ndim == 2 and b.shape[1] == 0:
            return np.empty_like(b)
        if b.ndim == 2 and b.size >= SPLIT_MIN_WORK and _lanes() > 1:
            x = self._split_solve(b, trans, min(_lanes(), b.shape[1]))
        else:
            x = self._lu.solve(b, trans=trans)
        if not np.all(np.isfinite(x)):
            raise SingularSystemError(
                "direct solve produced non-finite values (singular system?)"
            )
        return x

    def _split_solve(self, b: np.ndarray, trans: str, blocks: int) -> np.ndarray:
        """Solve ``blocks`` contiguous column blocks of ``b`` concurrently:
        the first on the calling thread, the rest on the column pool."""
        x = np.empty(b.shape, order="F")  # SuperLU's own output layout
        edges = np.linspace(0, b.shape[1], blocks + 1).astype(int)

        def run(lo: int, hi: int) -> None:
            x[:, lo:hi] = self._lu.solve(b[:, lo:hi], trans=trans)

        pool = _column_pool()
        futures = [
            pool.submit(run, lo, hi)
            for lo, hi in zip(edges[1:-1], edges[2:])
        ]
        run(edges[0], edges[1])
        for future in futures:
            future.result()
        return x


def solve_direct(matrix: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """One-shot factorize-and-solve."""
    return DirectSolver(matrix).solve(b)


class TriangularOperator:
    """Fast repeated solves with one fixed triangular sparse matrix.

    ``scipy.sparse.linalg.spsolve_triangular`` re-validates its input on
    every call (milliseconds of overhead even for tiny systems); wrapping
    the matrix in a natural-order SuperLU factorization once makes each
    subsequent solve a plain C back-substitution (~30x faster on the
    benchmark grids).  Used by the Gauss-Seidel/SOR splittings and the
    SSOR/IC(0) preconditioners, where the same triangular factor is
    applied thousands of times.
    """

    def __init__(self, matrix: sp.spmatrix):
        csc = sp.csc_matrix(matrix)
        if csc.shape[0] != csc.shape[1]:
            raise SingularSystemError(
                f"matrix must be square, got {csc.shape}"
            )
        try:
            self._lu = spla.splu(
                csc, permc_spec="NATURAL",
                options={"ColPerm": "NATURAL", "DiagPivotThresh": 0.0},
            )
        except RuntimeError as exc:
            raise SingularSystemError(
                f"triangular factorization failed: {exc}"
            ) from exc
        self.n = csc.shape[0]
        self.nnz = int(csc.nnz)

    @property
    def memory_bytes(self) -> int:
        return int(self._lu.nnz * 12 + 8 * self.n)

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(b, dtype=float))
