"""The one lockstep VP loop, driven by the batched, ECO and adjoint engines.

:class:`repro.core.batch.LockstepVP` is the only outer iteration those
engines run; they differ in their plane step.  So an ECO candidate that
edits nothing must reproduce the plain batched solve bit for bit, and on
random small stacks every engine must agree with the full-system direct
solve of :func:`repro.grid.conductance.stack_system`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from repro.core.batch import BatchedVPConfig, BatchedVPSolver
from repro.core.planes import ReducedPlaneSystem
from repro.eco.edits import EcoCandidate, TsvResizeEdit, compile_candidate
from repro.eco.engine import EcoBatchSolver
from repro.grid.conductance import stack_system
from repro.grid.generators import synthesize_stack
from repro.scenarios import pad_current_sweep
from repro.sensitivity.adjoint import AdjointConfig, AdjointVPSolver
from tests.conftest import assert_allclose_mv

#: Resizing pillar 0 by 1.0 compiles to a candidate that changes nothing.
IDENTITY = EcoCandidate("identity", (TsvResizeEdit((0,), 1.0),))


def batched_and_identity_eco(stack, scenarios, config=None):
    """The batched solve and the identity-edit ECO solve of one stack,
    both on the same factors."""
    planes = ReducedPlaneSystem(stack, factorize=True, pillar_rows=True)
    batched = BatchedVPSolver(stack, scenarios, config, planes=planes).solve()
    eco = EcoBatchSolver(
        stack, planes, scenarios, [compile_candidate(stack, IDENTITY)], config
    ).solve()
    return batched, eco


class TestIdentityEdit:
    def test_eco_columns_are_bitwise_the_batched_columns(self):
        stack = synthesize_stack(12, 12, 3, rng=0)
        batched, eco = batched_and_identity_eco(
            stack, pad_current_sweep((0.8, 1.0, 1.3))
        )
        assert batched.converged.all()
        np.testing.assert_array_equal(batched.outer_iterations, [4, 4, 4])
        np.testing.assert_array_equal(eco.voltages, batched.voltages)
        np.testing.assert_array_equal(eco.pillar_v0, batched.pillar_v0)
        np.testing.assert_array_equal(
            eco.outer_iterations, batched.outer_iterations
        )
        assert eco.stats.correction_solves == 0


@settings(max_examples=12, derandomize=True, deadline=None)
@given(
    side=st.integers(6, 14),
    tiers=st.integers(1, 4),
    r_tsv=st.floats(0.01, 0.5),
    pin_fraction=st.sampled_from([1.0, 0.5, 0.25]),
    seed=st.integers(0, 2**16),
)
def test_engines_agree_with_the_direct_solve(
    side, tiers, r_tsv, pin_fraction, seed
):
    stack = synthesize_stack(
        side, side, tiers, r_tsv=r_tsv, pin_fraction=pin_fraction, rng=seed
    )
    scenarios = pad_current_sweep((0.8, 1.2))
    batched, eco = batched_and_identity_eco(
        stack, scenarios, BatchedVPConfig(outer_tol=1e-7, max_outer=2000)
    )
    assert batched.converged.all()
    for s, scenario in enumerate(scenarios):
        matrix, rhs = stack_system(scenario.apply(stack))
        direct = spla.spsolve(matrix.tocsc(), rhs).reshape(
            stack.n_tiers, stack.rows, stack.cols
        )
        assert_allclose_mv(batched.voltages[..., s], direct, 0.5)
    np.testing.assert_array_equal(eco.voltages, batched.voltages)

    injection = np.random.default_rng(seed).normal(
        size=(stack.n_tiers, stack.rows, stack.cols)
    )
    adjoint = AdjointVPSolver(
        stack, config=AdjointConfig(max_outer=2000)
    ).solve(injection)
    assert adjoint.converged
    matrix, _ = stack_system(stack)
    residual = matrix.T @ adjoint.lam.ravel() - injection.ravel()
    assert np.max(np.abs(residual)) < 1e-7
