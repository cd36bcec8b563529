"""Structural validation of grids and stacks.

These checks catch the failure modes that otherwise surface as confusing
numerics downstream: grids with no DC path to a rail (singular systems),
loads placed inside TSV keep-out zones, non-positive conductances, and
disconnected islands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from repro.errors import GridError
from repro.grid.conductance import grid2d_matrix, stack_system, tier_edges
from repro.grid.grid2d import Grid2D
from repro.grid.stack3d import PowerGridStack


@dataclass
class ValidationReport:
    """Outcome of a validation pass.

    ``ok`` is True when no *errors* were found; ``warnings`` may still be
    non-empty (conditions that are legal but usually unintended).
    """

    errors: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_if_failed(self) -> None:
        if self.errors:
            raise GridError("; ".join(self.errors))


def check_stack_spec(
    side: int,
    tiers: int,
    r_tsv: float,
    vdd: float,
    *,
    max_side: int | None = None,
    max_tiers: int | None = None,
) -> None:
    """Refuse stack synthesis parameters at the boundary where they enter
    (CLI flags, service requests), naming the offending field: ``side``
    and ``tiers`` must be at least 1 (and at most the optional caps),
    ``r_tsv`` and ``vdd`` finite and positive.  Left alone, a NaN supply
    surfaces three layers down as a "singular system" error."""
    for name, value, high in (("side", side, max_side), ("tiers", tiers, max_tiers)):
        if value < 1 or (high is not None and value > high):
            bound = f"between 1 and {high}" if high is not None else ">= 1"
            raise GridError(f"{name} must be {bound}, got {value}")
    for name, value in (("r_tsv", r_tsv), ("vdd", vdd)):
        if not (math.isfinite(value) and value > 0):
            raise GridError(f"{name} must be a finite number > 0, got {value}")


def _connectivity_to_sources(
    matrix: sp.csr_matrix, source_mask: np.ndarray
) -> tuple[int, int]:
    """(number of components, number of components containing a source)."""
    adjacency = matrix.copy()
    adjacency.setdiag(0)
    adjacency.eliminate_zeros()
    n_comp, labels = csgraph.connected_components(adjacency, directed=False)
    powered = np.unique(labels[source_mask]) if source_mask.any() else np.empty(0)
    return n_comp, int(powered.size)


def validate_grid2d(grid: Grid2D, *, require_pads: bool = True) -> ValidationReport:
    """Validate a stand-alone tier.

    ``require_pads=False`` skips the rail-reachability check (appropriate
    for tiers that live inside a stack and are powered via pillars).
    """
    report = ValidationReport()
    if np.any(~np.isfinite(grid.g_h)) or np.any(~np.isfinite(grid.g_v)):
        report.errors.append("non-finite wire conductance")
    if np.any(~np.isfinite(grid.loads)):
        report.errors.append("non-finite load current")
    if grid.g_h.size and grid.g_h.min() <= 0:
        report.warnings.append("zero-conductance horizontal segment (open wire)")
    if grid.g_v.size and grid.g_v.min() <= 0:
        report.warnings.append("zero-conductance vertical segment (open wire)")

    if require_pads:
        if not np.any(grid.g_pad > 0):
            report.errors.append("grid has no pads: nodal system is singular")
        else:
            matrix, _ = grid2d_matrix(grid)
            n_comp, powered = _connectivity_to_sources(
                matrix, (grid.g_pad > 0).ravel()
            )
            if powered < n_comp:
                report.errors.append(
                    f"{n_comp - powered} of {n_comp} connected components "
                    "have no path to a pad"
                )
    return report


def validate_stack(stack: PowerGridStack, *, strict_keepout: bool = True) -> ValidationReport:
    """Validate a 3-D stack: keep-out rule, pillar sanity, connectivity."""
    report = ValidationReport()
    violations = stack.keepout_violations()
    if violations:
        message = f"{violations} pillar nodes carry device loads (keep-out violated)"
        if strict_keepout:
            report.errors.append(message)
        else:
            report.warnings.append(message)

    for l, tier in enumerate(stack.tiers):
        tier_report = validate_grid2d(tier, require_pads=False)
        report.errors.extend(f"tier {l}: {e}" for e in tier_report.errors)
        report.warnings.extend(f"tier {l}: {w}" for w in tier_report.warnings)
        if np.any(tier.g_pad > 0):
            report.warnings.append(
                f"tier {l} has in-plane pads; stacks are normally powered "
                "only through pillars"
            )

    # Every node must reach a pin: build the global matrix (pins folded into
    # the diagonal of the topmost pillar nodes) and check each component
    # contains at least one pin-attached node.
    matrix, _ = stack_system(stack)
    per_tier = stack.rows * stack.cols
    pin_mask = np.zeros(stack.n_nodes, dtype=bool)
    pinned_flat = stack.pillar_flat_indices()[stack.pillars.has_pin]
    pin_mask[(stack.n_tiers - 1) * per_tier + pinned_flat] = True
    n_comp, powered = _connectivity_to_sources(matrix, pin_mask)
    if powered < n_comp:
        report.errors.append(
            f"{n_comp - powered} of {n_comp} connected components "
            "have no path to a package pin"
        )
    return report


def tier_degree_stats(grid: Grid2D) -> dict[str, float]:
    """Diagonal-dominance diagnostics used by the §III-A discussion.

    Returns the min/mean ratio of diagonal to off-diagonal row sums of the
    tier matrix (1.0 everywhere for a pure resistive mesh without pads;
    > 1 where pads add diagonal mass).
    """
    u, v, g = tier_edges(grid)
    n = grid.n_nodes
    offdiag = np.zeros(n)
    np.add.at(offdiag, u, g)
    np.add.at(offdiag, v, g)
    diag = offdiag + grid.g_pad.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(offdiag > 0, diag / offdiag, np.inf)
    return {
        "min_ratio": float(ratio.min()),
        "mean_ratio": float(ratio[np.isfinite(ratio)].mean()),
        "nodes": float(n),
    }
