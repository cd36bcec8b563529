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
  contiguous column blocks run as lanes (:func:`run_lanes`), one block
  per available core.  Under the symmetric ordering a column's result
  was measured not to depend on which other columns share its call
  (C1 and C3 planes, 1 to 16 columns, ``trans`` N and T), so the split
  result is bitwise the single-call result.  Narrow solves stay one
  call: below ``SPLIT_MIN_WORK`` rows x columns the thread hand-off
  costs more than it saves.

The lane runner is shared: the batched transient engine advances whole
scenario-column blocks through every time step the same way
(:mod:`repro.core.transient_batch`), sized by the same rule
(:func:`lane_count`).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro import obs
from repro.errors import SingularSystemError

#: SuperLU column orderings (see module doc): matrices with a zero-free
#: diagonal, and matrices with zero diagonal entries.
SYMMETRIC_ORDERING = "MMD_AT_PLUS_A"
PIVOTING_ORDERING = "COLAMD"

#: Smallest ``rows * columns`` work cut into lanes (:func:`lane_count`).
#: On a 2-core host a C1 plane (22k free nodes) gains from the split at
#: 16 columns and loses at 8; the C3 plane (249k) gains at 8.
SPLIT_MIN_WORK = 1 << 18

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
#: ``in_lane`` is set while the current thread runs a lane.
_lane_state = threading.local()


def _lanes() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _column_pool() -> ThreadPoolExecutor:
    """The process-wide pool running lanes beside the calling thread
    (created on first use, one worker per extra core)."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(
                max_workers=_lanes() - 1, thread_name_prefix="repro-lane"
            )
        return _pool


def _forget_pool() -> None:
    """A forked child inherits the pool object but none of its threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def in_lane() -> bool:
    """Whether the calling thread is running a lane of :func:`run_lanes`."""
    return getattr(_lane_state, "in_lane", False)


def lane_count(rows: int, columns: int) -> int:
    """Lanes a ``rows x columns`` block of independent column work is cut
    into: one per core and at most one per column once the work reaches
    ``SPLIT_MIN_WORK``, else one.  Inside a lane it is always one (the
    cores are taken already)."""
    if rows * columns < SPLIT_MIN_WORK or in_lane():
        return 1
    return min(_lanes(), columns)


def lane_edges(columns: int, lanes: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` bounds of ``lanes`` contiguous, near-equal column
    blocks covering ``range(columns)``."""
    edges = np.linspace(0, columns, lanes + 1).astype(int)
    return list(zip(edges[:-1].tolist(), edges[1:].tolist()))


def run_lanes(tasks: Sequence[Callable[[], None]]) -> None:
    """Run independent ``tasks`` concurrently on the calling thread and
    the process-wide pool; return once every task has stopped.

    Threads pull the next unclaimed task until none is left, so the
    caller works through the list too, and it never waits for a pool
    worker that is busy elsewhere -- only for tasks another thread has
    already started.  Each task runs under the caller's telemetry
    session (``obs.scoped``), so its counters and spans land where the
    caller's would.  Lane threads are marked (:func:`in_lane`): a run
    nested inside a lane takes no pool worker, and a
    :meth:`DirectSolver.solve` inside a lane stays one call.  The first
    exception in task order is re-raised on the caller after all tasks
    have stopped.
    """
    tasks = list(tasks)
    if not tasks:
        return
    errors: list[BaseException | None] = [None] * len(tasks)
    claim = iter(range(len(tasks)))
    lock = threading.Lock()
    pending = [len(tasks)]
    finished = threading.Event()
    telemetry = obs.active()

    def drain() -> None:
        outer = in_lane()
        _lane_state.in_lane = True
        try:
            with obs.scoped(telemetry):
                while True:
                    with lock:
                        i = next(claim, None)
                    if i is None:
                        return
                    try:
                        tasks[i]()
                    except BaseException as exc:  # re-raised on the caller
                        errors[i] = exc
                    with lock:
                        pending[0] -= 1
                        if not pending[0]:
                            finished.set()
        finally:
            _lane_state.in_lane = outer

    helpers = 0 if in_lane() else min(_lanes(), len(tasks)) - 1
    if helpers > 0:
        pool = _column_pool()
        for _ in range(helpers):
            pool.submit(drain)
    drain()
    finished.wait()
    for exc in errors:
        if exc is not None:
            raise exc


class DirectSolver:
    """Sparse LU with an explicit factorization step.

    Keeping the factorization makes repeated solves with new right-hand
    sides cheap and lets callers account for factor fill-in (the memory
    story behind the paper's SPICE out-of-memory column).  One factor may
    be solved from several threads at once.

    ``m`` is the size of a leading block ``A_EE`` that is diagonal
    (:class:`repro.core.planes.ReducedPlaneSystem` orders its
    between-pillar nodes there).  With ``m > 0`` that block is
    eliminated exactly before LU: only the Schur complement
    ``S = A_CC - A_CE D^-1 A_EC`` is factored, and a solve wraps the
    back-substitution on ``S`` in two diagonal scalings and two sparse
    products.  ``m = 0`` factors the whole matrix.
    """

    def __init__(self, matrix: sp.spmatrix, *, m: int = 0):
        # The elimination slices rows, which CSR does cheaply; SuperLU
        # takes CSC.
        a = sp.csr_matrix(matrix) if m else sp.csc_matrix(matrix)
        if a.shape[0] != a.shape[1]:
            raise SingularSystemError(
                f"matrix must be square, got {a.shape}"
            )
        if not 0 <= m <= a.shape[0]:
            raise ValueError(f"m must lie in [0, {a.shape[0]}], got {m}")
        self.n = a.shape[0]
        self.matrix_nnz = int(a.nnz)
        self._m = m
        if m:
            a = self._eliminate(a)
        self._ordering = (
            SYMMETRIC_ORDERING
            if np.all(a.diagonal() != 0)
            else PIVOTING_ORDERING
        )
        try:
            self._lu = spla.splu(a, permc_spec=self._ordering)
        except RuntimeError as exc:  # SuperLU signals singularity this way
            raise SingularSystemError(f"LU factorization failed: {exc}") from exc

    def _eliminate(self, csr: sp.csr_matrix) -> sp.csc_matrix:
        """Keep ``D^-1``, ``A_EC`` and ``A_CE`` (a view of ``A_EC^T``
        when the two agree); return the Schur complement ``S`` on the
        remaining ``n - m`` unknowns."""
        m = self._m
        d = csr.diagonal()[:m]
        rows_e, rows_c = csr[:m], csr[m:]
        if np.any(d == 0) or (rows_e[:, :m] - sp.diags(d)).count_nonzero():
            raise SingularSystemError(
                f"the leading {m} x {m} block is not an invertible diagonal"
            )
        self._dinv = 1.0 / d
        self._a_ec = rows_e[:, m:]
        a_ce = rows_c[:, :m]
        # A symmetric matrix (every grid plane) keeps one coupling block.
        self._a_ce = self._a_ec.T
        self._coupling = [self._a_ec]
        if (a_ce != self._a_ce).nnz:
            self._a_ce = a_ce
            self._coupling.append(a_ce)
            a_ce = a_ce.copy()
        a_ce.data *= self._dinv[a_ce.indices]  # A_CE D^-1: scale columns
        return sp.csc_matrix(rows_c[:, m:] - a_ce @ self._a_ec)

    @property
    def eliminated(self) -> int:
        """Unknowns eliminated before LU (the diagonal block size ``m``)."""
        return self._m

    @property
    def ordering(self) -> str:
        """SuperLU column ordering the factors were computed with."""
        return self._ordering

    @property
    def factor_nnz(self) -> int:
        """Non-zeros held to solve: the L and U factors (fill-in
        included) plus, after elimination, ``D`` and the coupling blocks
        (``A_EC`` alone when ``A_CE = A_EC^T``)."""
        nnz = int(self._lu.nnz)
        if self._m:
            nnz += sum(a.nnz for a in self._coupling) + self._m
        return nnz

    @property
    def memory_bytes(self) -> int:
        """Approximate bytes held by the factors (values + indices)."""
        # Each stored factor entry carries an 8-byte value and roughly a
        # 4-byte index; permutation vectors add 2 * 4 per factored row.
        total = self._lu.nnz * 12 + 8 * (self.n - self._m)
        if self._m:
            total += self._dinv.nbytes + sum(
                a.data.nbytes + a.indices.nbytes + a.indptr.nbytes
                for a in self._coupling
            )
        return int(total)

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """Back-substitute one or many right-hand sides.

        ``b`` may be ``(n,)`` or ``(n, k)``; the multi-column form solves
        all ``k`` systems against the cached factorization (the batched
        scenario engine's CVN hot path), split into lanes when wide
        enough (see module doc).

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
        blocks = lane_count(*b.shape) if b.ndim == 2 else 1
        if blocks > 1:
            x = self._split_solve(b, trans, blocks)
        else:
            x = self._solve_block(b, trans)
        if not np.all(np.isfinite(x)):
            raise SingularSystemError(
                "direct solve produced non-finite values (singular system?)"
            )
        return x

    def _solve_block(self, b: np.ndarray, trans: str) -> np.ndarray:
        """One unsplit solve of ``b`` (``(n,)`` or ``(n, k)``).

        After elimination: ``y_E = D^-1 b_E``, then
        ``x_C = S^-1 (b_C - A_CE y_E)``, then
        ``x_E = y_E - D^-1 A_EC x_C`` (transposed blocks for ``"T"``).
        The sparse products run one column at a time: every column is
        then computed alike whatever the block width, and each product
        reads and writes contiguous Fortran-order columns.
        """
        m = self._m
        if not m:
            return self._lu.solve(b, trans=trans)
        if trans == "N":
            a_ce, a_ec = self._a_ce, self._a_ec
        else:
            a_ce, a_ec = self._a_ec.T, self._a_ce.T
        dinv = self._dinv
        if b.ndim == 1:
            y = b[:m] * dinv
            x_c = self._lu.solve(b[m:] - a_ce @ y, trans=trans)
            return np.concatenate([y - dinv * (a_ec @ x_c), x_c])
        x = np.empty(b.shape, order="F")
        y, x_c = x[:m], x[m:]
        for j in range(b.shape[1]):
            np.multiply(b[:m, j], dinv, out=y[:, j])
            np.subtract(b[m:, j], a_ce @ y[:, j], out=x_c[:, j])
        x_c[:] = self._lu.solve(x_c, trans=trans)
        for j in range(b.shape[1]):
            y[:, j] -= dinv * (a_ec @ x_c[:, j])
        return x

    def _split_solve(self, b: np.ndarray, trans: str, blocks: int) -> np.ndarray:
        """Solve ``blocks`` contiguous column blocks of ``b`` as lanes."""
        x = np.empty(b.shape, order="F")  # SuperLU's own output layout

        def solve_block(lo: int, hi: int) -> None:
            x[:, lo:hi] = self._solve_block(b[:, lo:hi], trans)

        run_lanes(
            [partial(solve_block, lo, hi) for lo, hi in lane_edges(b.shape[1], blocks)]
        )
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
