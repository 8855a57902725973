"""Simulation configuration, robot placement, and the static comm graph.

Robots are kinematic points scattered uniformly in a square arena whose
side keeps the footprint density constant: L = sqrt(N*pi*R^2 / D).
Placement rejects overlapping draws (center distance <= 2R) and is fully
determined by the seed.  Since robots do not move, the communication
topology (in-range pairs, distances, bearings) is computed once per run.

Both pair searches run on a uniform cell grid (the cell lists of Allen &
Tildesley, *Computer Simulation of Liquids*): a dict from integer cell to
the poses in it, with a cell side strictly above the cut-off, so that a
pair within the cut-off always lies in the same or adjacent cells.  A draw
is tested only against the poses in its 3x3 block, with the same
expression and on the same draws as an all-pairs scan, so the poses are
bit-identical to it; the links are too, each list sorted by receiver.
"""

import bisect
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SimulationConfig:
    n_robots: int
    drop_prob: float = 0.0
    density: float = 0.1
    robot_radius: float = 0.085       # meters
    arena_side: float | None = None   # meters; derived unless set
    comm_range: float = 1.0           # meters
    seed: int = 0
    max_steps: int = 100

    def __post_init__(self):
        if self.n_robots < 1:
            raise ValueError("need at least one robot")
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError("drop probability must be within [0, 1]")
        if math.isnan(self.comm_range) or math.isnan(self.robot_radius):
            raise ValueError("comm range and robot radius must not be NaN")
        if self.comm_range < 0:
            raise ValueError("comm range must be >= 0")
        if self.arena_side is not None and not math.isfinite(self.arena_side):
            raise ValueError("arena side must be finite")
        if not (math.isfinite(self.density) and self.density > 0):
            raise ValueError("density must be finite and positive")
        if not math.isfinite(self.side):
            raise ValueError("density too low: the arena side overflows")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.max_steps < 0:
            raise ValueError("max steps must be >= 0")

    @property
    def side(self):
        if self.arena_side is not None:
            return self.arena_side
        return math.sqrt(self.n_robots * math.pi * self.robot_radius ** 2
                         / self.density)


class PlacementError(RuntimeError):
    """No non-overlapping placement found: the density is too high."""


# distinct streams per purpose, derived from the run seed
_STREAM_PLACEMENT = 1
_STREAM_NETWORK = 2


def rng_for(cfg, stream):
    return np.random.default_rng(np.random.SeedSequence([cfg.seed, stream]))


def derive_seed(master_seed, n, p, rep):
    """Per-(N, P, rep) run seed: SeedSequence over the integerized cell."""
    ss = np.random.SeedSequence(
        [int(master_seed), int(n), int(round(p * 10_000)), int(rep)])
    return int(ss.generate_state(1, np.uint64)[0])


# a grid cell is this much wider than its cut-off, far more than the
# rounding in hypot and in a cell index, so an in-range pair is never two
# cells apart
_CELL_MARGIN = 1.0 + 2.0 ** -20
_BLOCK = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]


def _cell_side(cutoff, span, n):
    """Side of a grid cell: strictly above `cutoff`, and at least span/n, so
    that a tiny cut-off still makes no more than n cells a side."""
    return math.nextafter(max(cutoff, span / n) * _CELL_MARGIN, math.inf)


def place_robots(cfg, max_tries_per_robot=1000):
    """Uniform non-overlapping poses; returns a list of (x, y) floats."""
    rng = rng_for(cfg, _STREAM_PLACEMENT)
    half = cfg.side / 2.0
    min_sep = 2.0 * cfg.robot_radius
    side = _cell_side(min_sep, abs(cfg.side), cfg.n_robots)
    grid = {}
    poses = []
    budget = max_tries_per_robot * cfg.n_robots
    while len(poses) < cfg.n_robots:
        if budget <= 0:
            raise PlacementError(
                f"could not place {cfg.n_robots} robots without overlap; "
                "density too high")
        # one try per robot still to place, at most the tries left: the
        # array draw gives the doubles the scalar draws x, y, x, y, ...
        # would, and a block never places more than the robots left
        tries = min(cfg.n_robots - len(poses), budget)
        budget -= tries
        draws = rng.uniform(-half, half, 2 * tries).tolist()
        for x, y in zip(draws[::2], draws[1::2]):
            cx = math.floor((x + half) / side)
            cy = math.floor((y + half) / side)
            if all(math.hypot(x - px, y - py) > min_sep
                   for dx, dy in _BLOCK
                   for px, py in grid.get((cx + dx, cy + dy), ())):
                poses.append((x, y))
                grid.setdefault((cx, cy), []).append((x, y))
    return poses


@dataclass
class Topology:
    """Static situated-communication graph for one placement."""

    poses: list
    # per sender i: [(receiver j, distance_cm, azimuth at j toward i)],
    # sorted by receiver; symmetric, so it also lists i's neighbors for
    # the oracles
    out_links: list = field(default_factory=list)

    @classmethod
    def build(cls, cfg, poses):
        """Links between poses at most `cfg.comm_range` apart.

        Raises ValueError for a NaN or infinite coordinate, which no grid
        cell can hold, and for poses whose spread overflows a float.
        """
        n = len(poses)
        topo = cls(poses)
        topo.out_links = [[] for _ in range(n)]
        if n == 0:
            return topo
        xs = [x for x, _ in poses]
        ys = [y for _, y in poses]
        x0, y0 = min(xs), min(ys)
        span = max(max(xs) - x0, max(ys) - y0)
        if not (all(map(math.isfinite, xs + ys)) and math.isfinite(span)):
            raise ValueError("robot poses must be finite, with a spread "
                             "that fits a float")
        range_cm = cfg.comm_range * 100.0
        # the link test's cut-off in meters; infinite if range_cm overflows
        side = _cell_side(range_cm / 100.0, span, n)
        cells = [(math.floor((x - x0) / side), math.floor((y - y0) / side))
                 for x, y in poses]
        grid = {}
        for i, cell in enumerate(cells):
            grid.setdefault(cell, []).append(i)
        # per occupied cell, the ascending indices in its 3x3 block
        blocks = {(cx, cy): sorted(j for dx, dy in _BLOCK
                                   for j in grid.get((cx + dx, cy + dy), ()))
                  for cx, cy in grid}
        for i, cell in enumerate(cells):
            block = blocks[cell]
            xi, yi = poses[i]
            # ascending j > i, as in an all-pairs scan: receivers stay sorted
            for j in block[bisect.bisect_right(block, i):]:
                xj, yj = poses[j]
                d = math.hypot(xi - xj, yi - yj) * 100.0
                if d > range_cm:
                    continue
                az_at_j = math.atan2(yi - yj, xi - xj)  # j senses i there
                az_at_i = math.atan2(yj - yi, xj - xi)
                topo.out_links[i].append((j, d, az_at_j))
                topo.out_links[j].append((i, d, az_at_i))
        return topo

    def degree_stats(self):
        degs = [len(links) for links in self.out_links]
        return min(degs), sum(degs) / len(degs), max(degs)

    def hop_counts(self, source):
        """BFS hop distance from `source`; unreachable robots get None."""
        n = len(self.poses)
        hops = [None] * n
        hops[source] = 0
        frontier = [source]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for i in frontier:
                for j, _, _ in self.out_links[i]:
                    if hops[j] is None:
                        hops[j] = d
                        nxt.append(j)
            frontier = nxt
        return hops
