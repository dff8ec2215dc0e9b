import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from cnpcert import sampling
from cnpcert.pickinterp import sampled_sup
from cnpcert.sampling import MIN_SEPARATION, PROBE_GRID, PROBE_POINTS, SampleSet, ball_points, polar_grid

# SampleSet.default()'s seeded random points (seed 20210, r_max 0.9)
DEFAULT_RANDOM_POINTS = (
    -0.5005093828244584 + 0.30854121813288526j,
    0.3357329864958777 + 0.2025857478651789j,
    -0.40924026223146814 + 0.1887684169921095j,
    0.4549325639177408 + 0.4085136261445851j,
    -0.09980422850073747 + 0.6276343409858728j,
    -0.051462228741849525 + 0.7577052361421415j,
    0.6190219860439947 + 0.642584217576159j,
    -0.7936995135554382 - 0.27967694532242915j,
)


def test_default_points_pinned():
    pts = SampleSet.default()
    radii = 0.9 * (np.arange(1, 7) / 6)
    angles = 2.0 * np.pi * np.arange(12) / 12
    grid = np.outer(radii, np.exp(1j * angles)).ravel()   # ring by ring, angle 0 first
    assert pts.points == tuple(complex(p) for p in grid) + DEFAULT_RANDOM_POINTS
    assert all(type(p) is complex for p in pts.points)


def test_extended_drops_near_duplicates_in_order():
    pts = SampleSet.explicit([0.5, -0.5]).extended(
        [0.5 + 5e-9, 0.1, 0.1 + 5e-9j, 0.2, -0.5 - 2e-9j, 0.2]
    )
    assert pts.points == (0.5, -0.5, 0.1, 0.2)


def test_extended_compares_only_with_kept_points():
    # 7e-9 is dropped as a near-duplicate of 0; 1.4e-8 is then kept, being
    # within 1e-8 of the dropped point only.
    pts = SampleSet.explicit([0.0]).extended([7e-9, 1.4e-8])
    assert pts.points == (0.0, 1.4e-8)


def test_separation_check_on_a_vertical_line():
    line = [0.3 + 2e-8j * k for k in range(50)]
    assert len(SampleSet.explicit(line)) == 50
    with pytest.raises(ValueError, match="closer than"):
        SampleSet.explicit(line + [0.3 + 5e-9j])


def test_extended_rejects_non_finite_points():
    with pytest.raises(ValueError, match="finite"):
        SampleSet.explicit([0.5]).extended([complex("nan")])


@pytest.mark.parametrize(
    "draw", [SampleSet.random_disk, lambda count: ball_points(count, 2)], ids=["disk", "ball"]
)
def test_a_negative_random_count_is_rejected(draw):
    with pytest.raises(ValueError, match="must be >= 0, got -1"):
        draw(-1)
    assert len(draw(0)) == 0


def test_polar_grid_radius_major():
    grid = polar_grid(3, 5, 0.9)
    assert grid.shape == (15,)
    for i in range(3):
        for j in range(5):
            assert abs(grid[5 * i + j] - 0.3 * (i + 1) * np.exp(2j * np.pi * j / 5)) < 1e-15
    assert tuple(SampleSet.radial_grid(3, 5, 0.9)) == tuple(complex(p) for p in grid)


def test_polar_grid_single_ring_is_the_former_circle():
    # sampled_sup's circle is one ring of the grid, bitwise
    for n, r in [(512, 0.999), (7, 0.5), (64, 0.9)]:
        circle = r * np.exp(2j * np.pi * np.arange(n) / n)
        assert np.array_equal(polar_grid(1, n, r), circle)
    assert sampled_sup(lambda z: z) == float(np.max(np.abs(0.999 * np.exp(
        2j * np.pi * np.arange(512) / 512))))


def per_point_ball_points(count, dim, r_max=0.9, seed=20210):
    """ball_points as a per-point loop: two normal draws, np.linalg.norm, then
    a uniform, the reference its stream and its rounding are pinned to."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v = v / np.linalg.norm(v)
        r = r_max * rng.uniform() ** (1.0 / (2 * dim))
        out.append(tuple(r * v))
    return out


@pytest.mark.parametrize("args", [(1160, 2), (300, 3, 0.5, 7), (50, 1), (0, 2)])
def test_ball_points_are_the_per_point_loop_bit_for_bit(args):
    got, ref = ball_points(*args), per_point_ball_points(*args)
    assert [len(p) for p in got] == [len(p) for p in ref] and len(got) == args[0]
    assert np.asarray(got, dtype=complex).tobytes() == np.asarray(ref, dtype=complex).tobytes()


def row_loop_ball_points(count, dim, r_max=0.9, seed=20210):
    """ball_points as a loop that assigns each point's normals to its row of
    an array and its radius to a (count, 1) array, then scales the normed
    rows: the reference for drawing the normals in place."""
    rng = np.random.default_rng(seed)
    g, radii = np.empty((count, 2 * dim)), np.empty((count, 1))
    for k in range(count):
        g[k] = rng.standard_normal(2 * dim)
        radii[k] = r_max * rng.random() ** (1.0 / (2 * dim))
    v = g[:, :dim] + 1j * g[:, dim:]
    norms = np.sqrt([p.real.dot(p.real) + p.imag.dot(p.imag) for p in v])
    return [tuple(p) for p in radii * (v / norms[:, None])]


@pytest.mark.parametrize("count, dim, seed", [(1160, 2, 20210), (300, 5, 31), (0, 2, 1), (1, 3, 101)])
def test_ball_points_are_the_row_loop_byte_for_byte(count, dim, seed):
    got, ref = ball_points(count, dim, seed=seed), row_loop_ball_points(count, dim, seed=seed)
    assert len(got) == count and all(len(p) == dim for p in got)
    assert np.asarray(got, dtype=complex).tobytes() == np.asarray(ref, dtype=complex).tobytes()


def test_the_probe_points_are_the_probe_grid_read_only():
    assert np.array_equal(PROBE_POINTS, polar_grid(*PROBE_GRID))
    with pytest.raises(ValueError, match="read-only"):
        PROBE_POINTS[0] = 0.0


def random_disk_by_loop(count, rng, r_max=0.9):
    """The per-point rule: draw a radius, then an angle; redraw a point within
    1e-3 of the origin or within MIN_SEPARATION of a kept point."""
    pts = []
    while len(pts) < count:
        r = r_max * np.sqrt(rng.uniform())
        p = r * np.exp(2j * np.pi * rng.uniform())
        if abs(p) < 1e-3:
            continue
        if any(abs(p - q) < MIN_SEPARATION for q in pts):
            continue
        pts.append(complex(p))
    return tuple(pts)


def same_bits(a, b):
    return np.asarray(a, dtype=complex).tobytes() == np.asarray(b, dtype=complex).tobytes()


@pytest.mark.parametrize("count", [0, 1, 8, 37, 600])
@pytest.mark.parametrize("seed", [0, 1, 31, 101, 20210])
def test_random_disk_is_the_per_point_loop_bit_for_bit(count, seed):
    pts = SampleSet.random_disk(count, seed=seed).points
    assert same_bits(pts, random_disk_by_loop(count, np.random.default_rng(seed)))


class ScriptedUniforms:
    """A generator whose uniforms are a scripted head, then a seeded stream."""

    def __init__(self, head, rng):
        self.head, self.rng = list(head), rng

    def uniform(self, size=None):
        k = int(np.prod(size or 1))
        out = np.concatenate([self.head[:k], self.rng.uniform(size=k - len(self.head[:k]))])
        del self.head[:k]
        return out[0] if size is None else out.reshape(size)


@pytest.mark.parametrize("count", [0, 1, 8, 37, 600])
def test_random_disk_redraws_a_planted_origin_point_and_duplicate_like_the_loop(monkeypatch, count):
    # (radius, angle) draws: a point, one within 1e-3 of the origin, a
    # near-duplicate of the first (6e-12 away), then another point
    head = [0.3, 0.6, 1e-8, 0.2, 0.3, 0.6 + 1e-12, 0.7, 0.1]
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s: ScriptedUniforms(head, default_rng(s)))
    # an empty memo for this draw, so a seed-7 set memoized earlier is not
    # returned, and the scripted set is not left behind for later tests
    monkeypatch.setattr(sampling, "_disk_memo", lru_cache()(sampling._draw_disk))
    pts = SampleSet.random_disk(count, seed=7).points
    assert same_bits(pts, random_disk_by_loop(count, ScriptedUniforms(head, default_rng(7))))
    assert len(pts) == count
    if count >= 2:
        assert pts[1] == 0.9 * np.sqrt(0.7) * np.exp(2j * np.pi * 0.1)


def test_grids_and_seeded_draws_are_built_once_and_shared():
    assert SampleSet.radial_grid(6, 12) is SampleSet.radial_grid(6, 12, 0.9)
    assert SampleSet.random_disk(8, 0.9, 20210) is SampleSet.random_disk(8, seed=20210)
    others = [SampleSet.radial_grid(6, 13), SampleSet.radial_grid(7, 12), SampleSet.radial_grid(6, 12, 0.8)]
    assert len({SampleSet.radial_grid(6, 12).points, *(s.points for s in others)}) == 4
    draws = [SampleSet.random_disk(*args) for args in [(8, 0.9, 20210), (9, 0.9, 20210), (8, 0.8, 20210), (8, 0.9, 31)]]
    assert len({d.points for d in draws}) == 4
    # a bool seed is not memoized under the int it equals
    assert SampleSet.random_disk(8, seed=True) is not SampleSet.random_disk(8, seed=True)


def test_an_unseeded_or_generator_draw_is_fresh_on_each_call():
    assert SampleSet.random_disk(8, seed=None).points != SampleSet.random_disk(8, seed=None).points
    rng = np.random.default_rng(5)
    first, second = SampleSet.random_disk(8, seed=rng), SampleSet.random_disk(8, seed=rng)
    assert first.points != second.points
    assert same_bits(first.points + second.points, random_disk_by_loop(16, np.random.default_rng(5)))
    seq = np.random.SeedSequence(5)
    again = SampleSet.random_disk(8, seed=seq)
    assert again is not SampleSet.random_disk(8, seed=seq)
    assert again.points == SampleSet.random_disk(8, seed=seq).points


def test_a_seeded_ball_draw_is_built_once_and_a_generator_draw_is_fresh():
    assert ball_points(40, 2, seed=20210) is ball_points(40, 2, 0.9, 20210)
    assert isinstance(ball_points(40, 2, seed=20210), tuple)
    args = [(40, 2, 0.9, 20210), (41, 2, 0.9, 20210), (40, 3, 0.9, 20210), (40, 2, 0.8, 20210), (40, 2, 0.9, 31)]
    assert len({ball_points(*a) for a in args}) == 5
    # a bool seed is not memoized under the int it equals
    assert ball_points(8, 2, seed=True) is not ball_points(8, 2, seed=True)
    rng = np.random.default_rng(5)
    first, second = ball_points(8, 2, seed=rng), ball_points(8, 2, seed=rng)
    assert first != second
    ref = row_loop_ball_points(16, 2, seed=np.random.default_rng(5))
    assert np.asarray(first + second, dtype=complex).tobytes() == np.asarray(ref, dtype=complex).tobytes()


@pytest.mark.parametrize("r_max", [-0.5, 0.0, 1.0, float("nan")])
@pytest.mark.parametrize(
    "draw", [SampleSet.random_disk, lambda count, r_max: ball_points(count, 2, r_max)], ids=["disk", "ball"]
)
def test_a_random_radius_outside_0_1_is_rejected_before_any_draw(monkeypatch, draw, r_max):
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew samples"))
    with pytest.raises(ValueError, match=r"need 0 < r_max < 1, got"):
        draw(48, r_max)


# ------------------------------------------------------------- close pairs

def brute_force_pairs(arr, eps):
    """Every (i, j), i < j, with |arr[i] - arr[j]| < eps, sorted by j then i."""
    pairs = [(i, j) for j in range(arr.size) for i in range(j) if abs(arr[i] - arr[j]) < eps]
    return [p[0] for p in pairs], [p[1] for p in pairs]


@pytest.mark.parametrize("shape", ["disk", "real", "imaginary", "two vertical lines"])
def test_close_pairs_is_the_brute_force_rule(shape):
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(0, 120))
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        z = {"disk": z, "real": z.real + 0j, "imaginary": 1j * z.imag,
             "two vertical lines": np.round(z.real) * 0.5 + 1j * z.imag}[shape]
        z = np.round(z * 40) / 40   # duplicates, and pairs at every grid spacing
        for eps in (1e-8, 1e-3, 0.03, 0.1):
            assert sampling.close_pairs(z, eps) == brute_force_pairs(z, eps)


@pytest.mark.parametrize("lines", [1, 2])
def test_close_pairs_on_vertical_lines_forms_few_candidates(lines):
    # 2000 values on one or two vertical lines: a sweep along either axis would
    # form about n^2 / 2 or n^2 / 4 candidate pairs (122 or 61 MiB)
    x = 0.5j * np.linspace(-0.9, 0.9, 2000)
    vals = x + (np.arange(x.size) % lines) * 0.1
    tracemalloc.start()
    try:
        pairs = sampling.close_pairs(vals, 1e-7 * np.abs(vals).max())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pairs == ([], [])
    assert peak < 2**20
