"""Deterministic evaluation grids used by checks and tests."""

from __future__ import annotations

import numpy as np


def polar_grid(radii, n_angles: int) -> np.ndarray:
    """Radius-major polar grid: r * exp(2*pi*i*k/n) for each radius."""
    radii = np.asarray(list(radii), dtype=float)
    if radii.size and (radii.min() <= 0.0 or radii.max() >= 1.0):
        raise ValueError("grid radii must lie in (0, 1)")
    angles = 2.0 * np.pi * np.arange(int(n_angles)) / int(n_angles)
    ring = np.exp(1j * angles)
    return np.concatenate([r * ring for r in radii]) if radii.size else ring[:0]


def disk_grid_100() -> np.ndarray:
    return polar_grid([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.88, 0.95], 10)


def upper_half_plane_grid(n_x: int = 8, y_values=(0.25, 0.5, 1.0, 2.0)) -> np.ndarray:
    """n_x * len(y_values) points with positive imaginary part."""
    xs = np.linspace(-3.0, 3.0, n_x)
    return np.concatenate([xs + 1j * y for y in y_values])


def random_interior_pairs(n_pairs: int, seed: int = 2718, radius: float = 0.97):
    """Deterministic sample of interior point pairs for contraction checks."""
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.random(2 * n_pairs))
    theta = 2.0 * np.pi * rng.random(2 * n_pairs)
    pts = r * np.exp(1j * theta)
    return list(zip(pts[:n_pairs], pts[n_pairs:]))
