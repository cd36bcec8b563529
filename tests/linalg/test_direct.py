"""The shared factor layer: symmetric fill-reducing ordering and the
column-parallel back-substitution.

The reference for both is a plain ``splu`` call built here: COLAMD (the
previous ordering) for accuracy and fill, and one unsplit ``solve`` on
the same factor for the bitwise guarantee of the split.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.bench.circuits import build_circuit
from repro.core.planes import ReducedPlaneSystem
from repro.errors import SingularSystemError
from repro.grid.conductance import stack_system
from repro.grid.generators import synthesize_stack
from repro.linalg import direct
from repro.linalg.direct import DirectSolver
from repro.netlist.writer import stack_to_netlist
from repro.spice.mna import build_mna


@pytest.fixture(scope="module")
def c0_plane():
    """The reduced (free-node) plane matrix and RHS of circuit C0."""
    stack = build_circuit("C0", seed=1)
    system = ReducedPlaneSystem(stack, factorize=False)
    return system.a_ff[0].tocsc(), system.b_free[0]


@pytest.fixture(scope="module")
def mna():
    """An MNA matrix: zero-diagonal voltage-source rows included."""
    return build_mna(stack_to_netlist(synthesize_stack(12, 12, 2, rng=4)))


@pytest.fixture
def wide_rhs(c0_plane):
    """Enough columns of the C0 plane to take the split path."""
    n = c0_plane[0].shape[0]
    k = direct.SPLIT_MIN_WORK // n + 3
    rng = np.random.default_rng(0)
    return np.asfortranarray(rng.standard_normal((n, k)))


@pytest.fixture
def three_lanes(monkeypatch):
    """Pretend three cores are available: blocks split at odd points."""
    monkeypatch.setattr(direct, "_lanes", lambda: 3)
    monkeypatch.setattr(direct, "_pool", None)
    yield
    if direct._pool is not None:
        direct._pool.shutdown()


class TestOrdering:
    def test_plane_matches_colamd_with_less_fill(self, c0_plane):
        matrix, rhs = c0_plane
        reference = spla.splu(matrix, permc_spec="COLAMD")
        solver = DirectSolver(matrix)
        assert solver.ordering == "MMD_AT_PLUS_A"
        x = solver.solve(rhs)
        assert np.max(np.abs(x - reference.solve(rhs))) <= 1e-10
        assert solver.factor_nnz < reference.nnz

    def test_full_stack_system_has_less_fill(self):
        matrix, rhs = stack_system(synthesize_stack(30, 30, 3, rng=2))[:2]
        matrix = sp.csc_matrix(matrix)
        reference = spla.splu(matrix, permc_spec="COLAMD")
        solver = DirectSolver(matrix)
        assert solver.ordering == "MMD_AT_PLUS_A"
        x = solver.solve(rhs)
        assert np.max(np.abs(x - reference.solve(rhs))) <= 1e-10
        assert solver.factor_nnz < reference.nnz

    def test_mna_keeps_colamd(self, mna):
        """Zero-diagonal voltage-source rows force row swaps, which a
        symmetric ordering does not survive (it fills more); such
        matrices keep the pivoting-robust COLAMD."""
        matrix = sp.csc_matrix(mna.matrix)
        assert (matrix.diagonal() == 0).any()
        reference = spla.splu(matrix, permc_spec="COLAMD")
        symmetric = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A")
        solver = DirectSolver(matrix)
        assert solver.ordering == "COLAMD"
        assert solver.factor_nnz == reference.nnz < symmetric.nnz
        x = solver.solve(mna.rhs)
        assert np.max(np.abs(x - symmetric.solve(mna.rhs))) <= 1e-10
        assert np.array_equal(x, reference.solve(mna.rhs))

    def test_ordering_is_read_only(self, c0_plane):
        with pytest.raises(AttributeError):
            DirectSolver(c0_plane[0]).ordering = "COLAMD"


class TestSplitSolve:
    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_bitwise_equal_to_one_call(self, c0_plane, wide_rhs, trans):
        solver = DirectSolver(c0_plane[0])
        assert wide_rhs.size >= direct.SPLIT_MIN_WORK
        x = solver.solve(wide_rhs, trans=trans)
        assert x.flags.f_contiguous
        assert np.array_equal(x, solver._lu.solve(wide_rhs, trans=trans))

    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_odd_columns_and_split_points(
        self, c0_plane, wide_rhs, trans, three_lanes
    ):
        solver = DirectSolver(c0_plane[0])
        for k in (wide_rhs.shape[1], wide_rhs.shape[1] - 2):
            assert k % 2 == 1
            rhs = wide_rhs[:, :k]
            assert np.array_equal(
                solver.solve(rhs, trans=trans),
                solver._lu.solve(rhs, trans=trans),
            )

    def test_c_ordered_input(self, c0_plane, wide_rhs):
        solver = DirectSolver(c0_plane[0])
        rhs = np.ascontiguousarray(wide_rhs)
        assert np.array_equal(solver.solve(rhs), solver._lu.solve(rhs))

    def test_one_dimensional_input(self, c0_plane, monkeypatch):
        matrix, rhs = c0_plane
        monkeypatch.setattr(direct, "SPLIT_MIN_WORK", 0)
        solver = DirectSolver(matrix)
        x = solver.solve(rhs)
        assert x.shape == rhs.shape
        assert np.array_equal(x, solver._lu.solve(rhs))

    def test_narrow_solve_is_one_call(self, c0_plane, monkeypatch):
        def fail(*_args):
            raise AssertionError("narrow solve was split")

        monkeypatch.setattr(DirectSolver, "_split_solve", fail)
        matrix, rhs = c0_plane
        DirectSolver(matrix).solve(np.column_stack([rhs, rhs]))

    def test_non_finite_raises_on_split_path(self, c0_plane, wide_rhs):
        solver = DirectSolver(c0_plane[0])
        rhs = wide_rhs.copy(order="F")
        rhs[5, -1] = np.nan  # lands in the last block (a pool thread)
        with pytest.raises(SingularSystemError, match="non-finite"):
            solver.solve(rhs)

    def test_concurrent_solves_on_one_factor(self, c0_plane, wide_rhs):
        """More solving threads than cores, all sharing one factor and
        the column pool, with frequent thread switches."""
        solver = DirectSolver(c0_plane[0])
        n_threads = direct._lanes() + 2
        inputs = [wide_rhs * (t + 1) for t in range(n_threads)]
        expected = [solver._lu.solve(b) for b in inputs]
        results: list = [None] * n_threads
        barrier = threading.Barrier(n_threads)

        def worker(t: int) -> None:
            barrier.wait(timeout=60)
            for _ in range(3):
                results[t] = solver.solve(inputs[t])

        threads = [
            threading.Thread(target=worker, args=(t,))
            for t in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)


class TestLaneRunner:
    def test_wide_solve_inside_a_lane_runs_inline(
        self, c0_plane, wide_rhs, monkeypatch
    ):
        """Two lanes on a 1-worker pool each run a solve wide enough to
        split; a nested split would wait on the busy worker forever."""
        monkeypatch.setattr(direct, "_lanes", lambda: 2)
        monkeypatch.setattr(direct, "_pool", None)
        solver = DirectSolver(c0_plane[0])
        expected = solver._lu.solve(wide_rhs)
        splits = []
        split = DirectSolver._split_solve

        def counted(self, *args):
            splits.append(direct.in_lane())
            return split(self, *args)

        monkeypatch.setattr(DirectSolver, "_split_solve", counted)
        results: list = [None, None]

        def lane(k: int):
            def run() -> None:
                results[k] = solver.solve(wide_rhs)

            return run

        runner = threading.Thread(
            target=direct.run_lanes, args=([lane(0), lane(1)],), daemon=True
        )
        runner.start()
        runner.join(timeout=60)
        finished = not runner.is_alive()
        direct._pool.shutdown(wait=finished)
        assert finished, "a solve inside a lane never finished"
        assert splits == []
        for got in results:
            assert np.array_equal(got, expected)

    def test_first_error_in_task_order_after_all_stopped(self, three_lanes):
        ran = []

        def ok(k: int):
            return lambda: ran.append(k)

        def fail(k: int):
            def run() -> None:
                ran.append(k)
                raise ValueError(f"lane {k}")

            return run

        tasks = [ok(0), fail(1), ok(2), fail(3), ok(4)]
        with pytest.raises(ValueError, match="lane 1"):
            direct.run_lanes(tasks)
        assert sorted(ran) == [0, 1, 2, 3, 4]
        direct.run_lanes([ok(5), ok(6)])  # the pool still runs lanes
        assert sorted(ran) == [0, 1, 2, 3, 4, 5, 6]
        assert not direct.in_lane()


def eliminated_system(stack):
    """A factorized plane (group 0) of ``stack``, its free-node matrix
    in the system's order, and the solver."""
    system = ReducedPlaneSystem(stack, factorize=True)
    free = system.free
    matrix = sp.csc_matrix(system.planes[0][0][free][:, free])
    return system, matrix, system.a_ff[0]


@pytest.fixture(scope="module")
def c0_eliminated():
    return eliminated_system(build_circuit("C0", seed=1))


class TestEliminatedFactor:
    """``m > 0``: the diagonal block of between-pillar nodes is
    eliminated before LU and only the Schur complement is factored."""

    @pytest.mark.parametrize("trans", ["N", "T"])
    @pytest.mark.parametrize("columns", [None, 5])
    @pytest.mark.parametrize(
        "stack",
        [
            "C0",
            synthesize_stack(
                15, 13, 3, rng=7, jitter_sigma=0.2, replicate_tier=False,
                pin_fraction=0.5,
            ),
        ],
        ids=["C0", "random"],
    )
    def test_matches_plain_splu(self, c0_eliminated, stack, columns, trans):
        system, matrix, solver = (
            c0_eliminated if stack == "C0" else eliminated_system(stack)
        )
        assert 0 < solver.eliminated == system.eliminated < matrix.shape[0]
        rng = np.random.default_rng(3)
        shape = matrix.shape[:1] if columns is None else (matrix.shape[0], columns)
        rhs = rng.standard_normal(shape)
        x = solver.solve(rhs, trans=trans)
        reference = spla.splu(matrix).solve(rhs, trans=trans)
        assert x.shape == rhs.shape
        assert np.max(np.abs(x - reference)) <= 1e-12 * np.max(np.abs(reference))

    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_split_is_bitwise_one_call(
        self, c0_eliminated, wide_rhs, trans, three_lanes
    ):
        solver = c0_eliminated[2]
        for k in (wide_rhs.shape[1], wide_rhs.shape[1] - 2):
            assert k % 2 == 1
            rhs = wide_rhs[:, :k]
            x = solver.solve(rhs, trans=trans)
            assert x.flags.f_contiguous
            assert np.array_equal(x, solver._solve_block(rhs, trans))
            for j in (0, k // 2, k - 1):  # and bitwise one column alone
                assert np.array_equal(x[:, j], solver.solve(rhs[:, j], trans=trans))

    def test_c_ordered_input(self, c0_eliminated, wide_rhs):
        solver = c0_eliminated[2]
        rhs = np.ascontiguousarray(wide_rhs)
        assert np.array_equal(solver.solve(rhs), solver.solve(wide_rhs))

    def test_counts_every_array_it_keeps(self, c0_eliminated):
        """A symmetric plane keeps one coupling block for both sides."""
        system, matrix, solver = c0_eliminated
        m = solver.eliminated
        coupling = matrix[:m, m:].nnz
        assert solver.factor_nnz == solver._lu.nnz + coupling + m
        assert solver.memory_bytes > solver._lu.nnz * 12 + coupling * 12 + m * 8

    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_unsymmetric_matrix_keeps_both_blocks(self, c0_eliminated, trans):
        _system, matrix, symmetric = c0_eliminated
        m = symmetric.eliminated
        lower = sp.csc_matrix(matrix[m:, :m] * 0.5)
        matrix = sp.bmat(
            [[matrix[:m, :m], matrix[:m, m:]], [lower, matrix[m:, m:]]],
            format="csc",
        )
        solver = DirectSolver(matrix, m=m)
        assert solver.factor_nnz == symmetric.factor_nnz - symmetric._lu.nnz + (
            solver._lu.nnz + lower.nnz
        )
        rhs = np.random.default_rng(5).standard_normal((matrix.shape[0], 3))
        x = solver.solve(rhs, trans=trans)
        reference = spla.splu(matrix).solve(rhs, trans=trans)
        assert np.max(np.abs(x - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_refuses_a_non_diagonal_leading_block(self, c0_plane):
        matrix = c0_plane[0]
        with pytest.raises(SingularSystemError, match="not an invertible diagonal"):
            DirectSolver(matrix, m=100)
        with pytest.raises(ValueError, match="m must lie"):
            DirectSolver(matrix, m=matrix.shape[0] + 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_solves_on_a_fresh_pool(c0_plane, wide_rhs):
    solver = DirectSolver(c0_plane[0])
    expected = solver._lu.solve(wide_rhs)
    solver.solve(wide_rhs)  # the parent's pool exists now
    pid = os.fork()
    if pid == 0:  # child: exit status 0 only on a correct split solve
        ok = np.array_equal(solver.solve(wide_rhs), expected)
        os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:  # blocked on the dead pool
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("split solve in a forked child never finished")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(done[1]) == 0
