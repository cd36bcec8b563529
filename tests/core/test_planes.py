"""ReducedPlaneSystem solve entries against dense oracles.

The adjoint and ECO engines leans on two properties of the cached plane
factors: transpose back-substitution must be exact against the dense
``A_ff^T`` solve for *multi-column* right-hand sides, and the
zero-pillar fast path of :meth:`reduced_rhs` (taken by every low-rank
``Z`` and correction solve) must be bit-compatible with the general
path.  The factorized system also orders the nodes its factor
eliminates first; their choice is checked here.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.bench.circuits import build_circuit
from repro.core.planes import ReducedPlaneSystem
from repro.grid.generators import synthesize_stack
from repro.linalg.direct import DirectSolver


def dense_blocks(planes, tier):
    matrix = planes.planes[tier][0]
    a_ff = matrix[planes.free][:, planes.free].toarray()
    a_fp = matrix[planes.free][:, planes.pillar_flat].toarray()
    return a_ff, a_fp


class TestTransposeSolveMultiColumn:
    def test_matches_dense_transpose_oracle(self, small_stack, rng):
        planes = ReducedPlaneSystem(
            small_stack, factorize=True, pillar_rows=True
        )
        for tier in range(small_stack.n_tiers):
            a_ff, a_fp = dense_blocks(planes, tier)
            pillar_v = rng.normal(size=(planes.n_pillars, 4))
            b_free = rng.normal(size=(planes.n_free, 4))
            x = planes.solve_free_transpose(
                tier, pillar_v, b_free=b_free
            )
            expected = np.linalg.solve(a_ff.T, b_free - a_fp @ pillar_v)
            assert np.allclose(x, expected, rtol=1e-10, atol=1e-12)

    def test_forward_and_transpose_satisfy_the_adjoint_identity(
        self, small_stack, rng
    ):
        planes = ReducedPlaneSystem(small_stack, factorize=True)
        zeros = np.zeros((planes.n_pillars, 3))
        x = rng.normal(size=(planes.n_free, 3))
        y = rng.normal(size=(planes.n_free, 3))
        forward = planes.solve_free(0, zeros, b_free=x)
        adjoint = planes.solve_free_transpose(0, zeros, b_free=y)
        # <A^{-1} x, y> == <x, A^{-T} y>, column-wise.
        assert np.allclose(
            np.einsum("ns,ns->s", forward, y),
            np.einsum("ns,ns->s", x, adjoint),
            rtol=1e-10,
        )


class TestReducedRhsZeroPillarFastPath:
    def test_zero_pillar_voltage_skips_nothing_numerically(
        self, small_stack, rng
    ):
        planes = ReducedPlaneSystem(small_stack, factorize=True)
        b_free = rng.normal(size=(planes.n_free, 5))
        zeros = np.zeros((planes.n_pillars, 5))
        fast = planes.reduced_rhs(0, zeros, b_free=b_free)
        a_ff, a_fp = dense_blocks(planes, 0)
        # The coupling term vanishes exactly; the fast path must return
        # the RHS bit-for-bit (the ECO engine's parity depends on it).
        assert np.array_equal(fast, b_free)
        assert fast.flags.f_contiguous
        eps = np.full_like(zeros, 1e-9)
        general = planes.reduced_rhs(0, eps, b_free=b_free)
        assert np.allclose(general, b_free - a_fp @ eps, atol=1e-15)

    def test_solve_free_agrees_between_paths(self, small_stack, rng):
        planes = ReducedPlaneSystem(small_stack, factorize=True)
        b_free = rng.normal(size=(planes.n_free, 3))
        zeros = np.zeros((planes.n_pillars, 3))
        via_fast = planes.solve_free(0, zeros, b_free=b_free)
        a_ff, _ = dense_blocks(planes, 0)
        assert np.allclose(
            via_fast, np.linalg.solve(a_ff, b_free), rtol=1e-10
        )


def plain_free(system):
    """Free nodes in index order (the order of an unfactorized system)."""
    mask = np.ones(system.n, dtype=bool)
    mask[system.pillar_flat] = False
    return np.flatnonzero(mask)


class TestEliminatedNodes:
    @pytest.mark.parametrize(
        "stack",
        [
            synthesize_stack(8, 8, 3, rng=7),
            synthesize_stack(9, 7, 2, rng=1, pin_fraction=0.5),
            synthesize_stack(
                15, 13, 3, rng=7, jitter_sigma=0.2, replicate_tier=False
            ),
            synthesize_stack(12, 12, 3, rng=2, tsv_pitch=3),
        ],
        ids=["paper", "pin-subset", "three-groups", "pitch-3"],
    )
    def test_independent_with_degree_at_most_two(self, stack):
        system = ReducedPlaneSystem(stack, factorize=True)
        m = system.eliminated
        assert m > 0
        assert np.array_equal(np.sort(system.free), plain_free(system))
        for matrix, _ in system.planes:
            a_ff = sp.csr_matrix(matrix[system.free][:, system.free])
            off = a_ff - sp.diags(a_ff.diagonal())
            off.eliminate_zeros()
            assert off[:m, :m].nnz == 0  # no two eliminated nodes touch
            assert np.diff(off[:m].indptr).max() <= 2

    def test_two_thirds_of_the_uniform_layout(self):
        """C1's 173^2 plane: 87^2 pillars, 2 * 86 * 87 nodes between two
        pillars, 86^2 cell centres."""
        system = ReducedPlaneSystem(build_circuit("C1", seed=1))
        assert system.n_free == 173**2 - 87**2
        assert system.eliminated == 2 * 86 * 87 == 14_964
        # No larger factor than the whole plane's, honestly counted.
        free = plain_free(system)
        whole = DirectSolver(system.planes[0][0][free][:, free])
        assert system.a_ff[0].factor_nnz <= whole.factor_nnz
        assert system.a_ff[0].memory_bytes <= whole.memory_bytes

    def test_nothing_eliminable_keeps_the_whole_factor(self):
        """A two-row ladder cut by a full pillar column: every node with
        two or fewer free neighbours touches another such node."""
        stack = synthesize_stack(
            2, 9, 2, tsv_positions=np.array([[0, 4], [1, 4]]), rng=3
        )
        system = ReducedPlaneSystem(stack, factorize=True)
        assert system.eliminated == 0
        assert np.array_equal(system.free, plain_free(system))
        solver = system.a_ff[0]
        whole = DirectSolver(system.planes[0][0][system.free][:, system.free])
        assert solver.eliminated == 0
        assert solver.factor_nnz == whole.factor_nnz
        for got, want in [
            (solver._lu.L, whole._lu.L),
            (solver._lu.U, whole._lu.U),
        ]:
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)
        rhs = np.random.default_rng(0).standard_normal((system.n_free, 3))
        assert np.array_equal(solver.solve(rhs), whole.solve(rhs))

    def test_every_free_node_eliminated(self, rng):
        """A checkerboard of pillars isolates every free node: the
        factored Schur complement is empty."""
        positions = np.array(
            [(i, j) for i in range(6) for j in range(6) if (i + j) % 2 == 0]
        )
        stack = synthesize_stack(6, 6, 2, tsv_positions=positions, rng=0)
        system = ReducedPlaneSystem(stack, factorize=True)
        assert system.eliminated == system.n_free == 18
        a_ff, a_fp = dense_blocks(system, 0)
        pillar_v = rng.normal(size=(system.n_pillars, 3))
        for trans in ("N", "T"):
            x = system.solve_free(0, pillar_v, trans=trans)
            expected = np.linalg.solve(
                a_ff if trans == "N" else a_ff.T,
                system.b_free[0][:, None] - a_fp @ pillar_v,
            )
            assert np.allclose(x, expected, rtol=1e-12, atol=1e-15)

    def test_unfactorized_system_keeps_index_order(self, small_stack):
        system = ReducedPlaneSystem(small_stack, factorize=False)
        assert system.eliminated == 0
        assert np.array_equal(system.free, plain_free(system))
