#!/usr/bin/env python3
"""Regenerate the canonical 16-node network data files.

The shipped topology is a random geometric graph (16 points in the unit
square, connect within radius 0.32) drawn from a fixed seed, retried until
connected. The regressor variance profile is 16 draws from U[0.8, 1.2],
also from a fixed seed. Both files live in src/diffnet/data/ and are
committed; this script only exists to document how they were produced.
"""

from pathlib import Path

import numpy as np

from diffnet.errors import DisconnectedGraph
from diffnet.network import build_topology, save_topology

TOPOLOGY_SEED = 22
VARIANCE_SEED = 17
RADIUS = 0.32
N = 16

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "diffnet" / "data"


def geometric_graph(rng):
    points = rng.uniform(0.0, 1.0, (N, 2))
    edges = []
    for i in range(N):
        for j in range(i + 1, N):
            if np.hypot(*(points[i] - points[j])) < RADIUS:
                edges.append((i + 1, j + 1))
    return edges


def main():
    rng = np.random.default_rng(TOPOLOGY_SEED)
    while True:
        try:
            topology = build_topology(N, geometric_graph(rng))
            break
        except DisconnectedGraph:
            continue

    DATA_DIR.mkdir(parents=True, exist_ok=True)
    save_topology(topology, DATA_DIR / "topology16.txt")

    variances = np.random.default_rng(VARIANCE_SEED).uniform(0.8, 1.2, N)
    (DATA_DIR / "regressor_variances16.txt").write_text(
        "\n".join(f"{v:.17g}" for v in variances) + "\n"
    )

    degrees = [topology.degree(k) for k in range(1, N + 1)]
    print(f"wrote {len(topology.edges)} edges; |N_k| range {min(degrees)}..{max(degrees)}")
    print(f"variances in [{variances.min():.3f}, {variances.max():.3f}]")


if __name__ == "__main__":
    main()
