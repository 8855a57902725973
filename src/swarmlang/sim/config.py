"""Simulation configuration, robot placement, and the static comm graph.

Robots are kinematic points scattered uniformly in a square arena whose
side keeps the footprint density constant: L = sqrt(N*pi*R^2 / D).
Placement rejects overlapping draws (center distance <= 2R) and is fully
determined by the seed.  Since robots do not move, the communication
topology (in-range pairs, distances, bearings) is computed once per run.
"""

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

    @property
    def side(self):
        if self.arena_side is not None:
            return self.arena_side
        return math.sqrt(self.n_robots * math.pi * self.robot_radius ** 2
                         / self.density)


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


def place_robots(cfg, rng=None, max_tries_per_robot=1000):
    """Uniform non-overlapping poses; returns a list of (x, y) floats."""
    rng = rng if rng is not None else rng_for(cfg, _STREAM_PLACEMENT)
    half = cfg.side / 2.0
    min_sep = 2.0 * cfg.robot_radius
    poses = []
    budget = max_tries_per_robot * cfg.n_robots
    while len(poses) < cfg.n_robots:
        if budget <= 0:
            raise RuntimeError(
                f"could not place {cfg.n_robots} robots without overlap; "
                "density too high")
        budget -= 1
        x = float(rng.uniform(-half, half))
        y = float(rng.uniform(-half, half))
        if all(math.hypot(x - px, y - py) > min_sep for px, py in poses):
            poses.append((x, y))
    return poses


@dataclass
class Topology:
    """Static situated-communication graph for one placement."""

    poses: list
    # per sender i: [(receiver j, distance_cm, azimuth at j toward i)];
    # symmetric, so it also lists i's neighbors for the oracles
    out_links: list = field(default_factory=list)

    @classmethod
    def build(cls, cfg, poses):
        n = len(poses)
        topo = cls(poses)
        topo.out_links = [[] for _ in range(n)]
        range_cm = cfg.comm_range * 100.0
        for i in range(n):
            xi, yi = poses[i]
            for j in range(i + 1, n):
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
