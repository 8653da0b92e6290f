"""Deterministic data families for the statistical studies.

Every member is produced from a counter-based Philox stream keyed by
``base_seed * _SEED_STRIDE + index``, so corpora are reproducible across
runs and machines and any single member can be regenerated without
drawing the rest of the family.
"""

from __future__ import annotations

from ..spectral import Field, Grid, RadialProfile, make_radial_data

__all__ = ["morawetz_families", "radial_corpus"]

_SEED_STRIDE = 1_000_003


def member_seed(base_seed: int, index: int) -> int:
    """Philox key for one corpus member; injective for index < stride."""
    return base_seed * _SEED_STRIDE + index


def radial_corpus(grid: Grid, count: int, base_seed: int) -> list[Field]:
    """Radial superposition fields of unit amplitude with per-member seeds.

    The width is a tenth of the box, floored at four grid cells so the
    samples stay resolved.
    """
    width = max(grid.extent / 10.0, 4.0 * grid.dx)
    fields = []
    for i in range(count):
        profile = RadialProfile(
            "random_radial_superposition",
            width=width,
            seed=member_seed(base_seed, i),
        )
        fields.append(make_radial_data(grid, profile))
    return fields


def morawetz_families(grid: Grid, base_seed: int):
    """Five qualitatively different radial data families.

    Two Gaussians of different widths, a compactly supported bump, and
    two oscillatory superpositions; all widths scale with the box and
    stay above the four-cell resolution floor.
    """
    w = max(grid.extent / 12.0, 4.0 * grid.dx)
    return (
        ("gaussian_narrow", RadialProfile("gaussian", 1.6, w)),
        ("gaussian_wide", RadialProfile("gaussian", 0.9, 2.0 * w)),
        ("bump", RadialProfile("smooth_bump", 1.3, 1.5 * w)),
        (
            "superposition_a",
            RadialProfile(
                "random_radial_superposition",
                width=1.2 * w,
                seed=member_seed(base_seed, 1),
            ),
        ),
        (
            "superposition_b",
            RadialProfile(
                "random_radial_superposition",
                width=1.6 * w,
                seed=member_seed(base_seed, 2),
            ),
        ),
    )
