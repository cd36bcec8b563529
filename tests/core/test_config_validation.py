"""Solver configs refuse tolerances and damping no solve can honour.

A NaN or infinite ``outer_tol`` passes a plain ``<= 0`` check: infinity
"converges" after one outer iteration and NaN never does.  A NaN ``eta``
surfaces only as a non-finite solve.  Each is refused where the config
is built, with an error naming the field.
"""

from __future__ import annotations

import math

import pytest

from repro.core.batch import BatchedVPConfig
from repro.core.vp import VPConfig
from repro.errors import ReproError
from repro.sensitivity.adjoint import AdjointConfig

CONFIGS = [BatchedVPConfig, VPConfig, AdjointConfig]


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("outer_tol", [math.nan, math.inf, -math.inf, 0.0])
def test_outer_tol_must_be_finite_and_positive(config, outer_tol):
    with pytest.raises(ReproError, match="outer_tol"):
        config(outer_tol=outer_tol)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("eta", [math.nan, math.inf, 0.0, -0.5])
def test_eta_must_be_finite_and_positive(config, eta):
    with pytest.raises(ReproError, match="eta"):
        config(eta=eta)


@pytest.mark.parametrize("config", CONFIGS)
def test_auto_damping_and_finite_values_pass(config):
    assert config(eta=None).eta is None
    assert config(outer_tol=1e-6, eta=0.25).eta == 0.25
