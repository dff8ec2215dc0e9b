"""Reproducible finite sample sets in the unit disk and unit ball.

A ``SampleSet`` is frozen and holds a tuple, so one set can be shared by
every caller: ``radial_grid``, and a ``random_disk`` or ``ball_points``
drawn from an integer seed, are built once per process for each argument
tuple (a small LRU memo behind their argument checks) and returned as the
same object after that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_SEED = 20210
DEFAULT_GRID = (6, 12)
DEFAULT_RMAX = 0.9
DEFAULT_RANDOM = 8
MIN_SEPARATION = 1e-8
PROBE_GRID = (32, 64, 0.99)   # polar_grid arguments of PROBE_POINTS
# close_pairs sorts along this unit vector of slope (sqrt 5 - 1) / 2
_SWEEP = np.array([2.0, np.sqrt(5.0) - 1.0]) / np.sqrt(10.0 - 2.0 * np.sqrt(5.0))


def polar_grid(n_r: int, n_theta: int, r_max: float) -> np.ndarray:
    """The points r_max (i / n_r) e^(2 pi i j / n_theta), i = 1..n_r,
    j = 0..n_theta-1, radius-major."""
    radii = r_max * (np.arange(1, n_r + 1) / n_r)
    angles = 2.0 * np.pi * np.arange(n_theta) / n_theta
    return np.outer(radii, np.exp(1j * angles)).ravel()


# the PROBE_GRID points, built once and read-only: the sup |b| probe, the
# round trip of an exact left inverse and the witness margin all read them
PROBE_POINTS = polar_grid(*PROBE_GRID)
PROBE_POINTS.setflags(write=False)


def close_pairs(arr: np.ndarray, eps: float = MIN_SEPARATION):
    """Index pairs (i, j), i < j, of points closer than ``eps``, sorted by j
    then i.

    Sort-and-sweep by the projection on _SWEEP, off both axes: keys differ by
    at most the points' distance, so the distances formed are those of the
    candidate pairs within 2 eps in key order (all pairs only for points piled
    up on one line at right angles to _SWEEP, not a horizontal or vertical one).
    """
    key = arr.real * _SWEEP[0] + arr.imag * _SWEEP[1]
    order = np.argsort(key, kind="stable")
    key = key[order]
    stop = np.searchsorted(key, key + 2.0 * eps, side="left")
    width = np.maximum(stop - np.arange(arr.size) - 1, 0)
    first = np.repeat(np.arange(arr.size), width)
    offset = np.arange(first.size) - np.repeat(np.cumsum(width) - width, width)
    a, b = order[first], order[first + 1 + offset]
    close = np.abs(arr[a] - arr[b]) < eps
    i, j = np.minimum(a, b)[close], np.maximum(a, b)[close]
    by_j = np.lexsort((i, j))
    return i[by_j].tolist(), j[by_j].tolist()


@dataclass(frozen=True)
class SampleSet:
    """Finite set of pairwise-distinct points in the open unit disk."""

    points: tuple

    def __post_init__(self):
        pts = tuple(complex(p) for p in self.points)
        arr = np.asarray(pts, dtype=complex)
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("sample points must be finite")
        if arr.size and np.max(np.abs(arr)) >= 1.0:
            raise ValueError("sample points must lie strictly inside the unit disk")
        if close_pairs(arr)[0]:
            raise ValueError(
                f"sample points closer than {MIN_SEPARATION:g} are not allowed"
            )
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def extended(self, extra) -> "SampleSet":
        """Append points, silently dropping near-duplicates of existing ones
        and of extra points appended before them."""
        pts = self.points + tuple(complex(p) for p in extra)
        keep = [True] * len(pts)
        for i, j in zip(*close_pairs(np.asarray(pts, dtype=complex))):
            if keep[i]:      # pairs come ordered by j, so keep[i] is settled
                keep[j] = False
        kept = tuple(p for p, k in zip(pts, keep) if k)
        return SampleSet(kept)

    @classmethod
    def radial_grid(cls, n_r: int, n_theta: int, r_max: float = DEFAULT_RMAX) -> "SampleSet":
        if n_r < 1 or n_theta < 1 or not (0.0 < r_max < 1.0):
            raise ValueError("radial grid needs n_r, n_theta >= 1 and 0 < r_max < 1")
        return _grid_memo(cls, n_r, n_theta, r_max)

    @classmethod
    def random_disk(
        cls, count: int, r_max: float = DEFAULT_RMAX, seed: int = DEFAULT_SEED
    ) -> "SampleSet":
        _check_draw(count, r_max)
        # only an integer seed fixes the draw: a Generator advances on each
        # call and None draws fresh entropy, so those are not memoized
        fixed = isinstance(seed, int) and not isinstance(seed, bool)
        return (_disk_memo if fixed else _draw_disk)(cls, count, r_max, seed)

    @classmethod
    def default(
        cls,
        seed: int = DEFAULT_SEED,
        grid: tuple = DEFAULT_GRID,
        r_max: float = DEFAULT_RMAX,
        n_random: int = DEFAULT_RANDOM,
    ) -> "SampleSet":
        """Radial grid plus a few seeded random points.

        The grid alone misses structure that only shows up off the angular
        lattice, so a sprinkle of random points is kept in the default.
        """
        base = cls.radial_grid(grid[0], grid[1], r_max)
        extra = cls.random_disk(n_random, r_max, seed) if n_random else cls((),)
        return base.extended(extra.points)

    @classmethod
    def explicit(cls, points) -> "SampleSet":
        return cls(tuple(points))


@lru_cache(maxsize=32, typed=True)
def _grid_memo(cls, n_r, n_theta, r_max):
    return cls(tuple(polar_grid(n_r, n_theta, r_max)))


def _draw_disk(cls, count, r_max, seed):
    rng = np.random.default_rng(seed)
    pts = cls(())
    while len(pts) < count:   # per point a radius draw, then an angle draw
        u = rng.uniform(size=(count - len(pts), 2))
        p = r_max * np.sqrt(u[:, 0]) * np.exp(2j * np.pi * u[:, 1])
        pts = pts.extended(p[np.abs(p) >= 1e-3])   # kept off the origin
    return pts


_disk_memo = lru_cache(maxsize=32, typed=True)(_draw_disk)


def _check_draw(count, r_max):
    if count < 0:
        raise ValueError(f"a random sample count must be >= 0, got {count}")
    if not 0.0 < r_max < 1.0:
        raise ValueError(f"random samples need 0 < r_max < 1, got {r_max}")


def ball_points(count: int, dim: int, r_max: float = DEFAULT_RMAX, seed: int = DEFAULT_SEED):
    """Uniform-ish random points in the radius-``r_max`` ball of C^dim, a tuple of
    coordinate tuples: per point, 2 dim normals (real, then imaginary parts) normed
    as by np.linalg.norm, then a uniform. Memoized for an integer seed, as random_disk."""
    _check_draw(count, r_max)
    fixed = isinstance(seed, int) and not isinstance(seed, bool)
    return (_ball_memo if fixed else _draw_ball)(count, dim, r_max, seed)


def _draw_ball(count, dim, r_max, seed):
    rng = np.random.default_rng(seed)
    g, radii, power = np.empty((count, 2 * dim)), [], 1.0 / (2 * dim)
    for row in g:   # the normals drawn into their row
        rng.standard_normal(out=row)
        radii.append(r_max * rng.random() ** power)
    v = g[:, :dim] + 1j * g[:, dim:]
    norms = np.sqrt([p.real.dot(p.real) + p.imag.dot(p.imag) for p in v])
    return tuple(map(tuple, (np.asarray(radii)[:, None] * (v / norms[:, None])).tolist()))


_ball_memo = lru_cache(maxsize=32, typed=True)(_draw_ball)
