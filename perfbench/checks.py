"""Independent oracles for the benchmark's output checks.

Nothing here calls latloc code: distances use the haversine formula rather
than latloc's atan2 form, and hop counts come from a multi-source BFS over
the topology's adjacency lists rather than latloc's hop matrix.
"""

from __future__ import annotations

import math
from collections import deque

EARTH_RADIUS_KM = 6371.0088


class CheckError(Exception):
    """An output of the program disagrees with an independent recomputation."""


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def check_error_km(label: str, truth: tuple[float, float], estimate: tuple[float, float],
                   error_km: float) -> None:
    """The reported error must be the great-circle distance truth -> estimate."""
    values = (*truth, *estimate, error_km)
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
        raise CheckError(f"{label}: non-finite output {values}")
    want = haversine_km(*truth, *estimate)
    if abs(error_km - want) > 1e-6 * max(want, 1.0):
        raise CheckError(f"{label}: error_km {error_km!r} but haversine gives {want!r}")


def check_finite_models(models: dict) -> None:
    for lm, model in models.items():
        params = (model.p, model.q, model.n, model.m, model.fit_rss)
        if not all(math.isfinite(v) for v in params):
            raise CheckError(f"model for {lm!r} has non-finite parameters {params}")


def placement_objective(adjacency: dict[str, tuple[str, ...]],
                        landmarks: list[str]) -> tuple[int, int]:
    """(max hop, total hops) from every node to its closest landmark."""
    dist = {lm: 0 for lm in landmarks}
    queue = deque(landmarks)
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    if len(dist) != len(adjacency):
        raise CheckError("landmarks do not reach every node")
    return max(dist.values()), sum(dist.values())


def check_placement(adjacency: dict[str, tuple[str, ...]], landmarks: list[str],
                    reported: tuple[int, int]) -> tuple[int, int]:
    """The program's objective must match the BFS one, and the set must be a
    local optimum of the neighbour-move refinement: moving any one landmark
    to a free graph neighbour must not improve (max hop, total hops)."""
    if len(set(landmarks)) != len(landmarks) or not set(landmarks) <= adjacency.keys():
        raise CheckError(f"invalid landmark set {landmarks}")
    key = placement_objective(adjacency, landmarks)
    if tuple(reported) != key:
        raise CheckError(f"placement objective {tuple(reported)} but BFS gives {key}")
    occupied = set(landmarks)
    for i, lm in enumerate(landmarks):
        for nb in adjacency[lm]:
            if nb in occupied:
                continue
            trial = landmarks[:i] + [nb] + landmarks[i + 1:]
            if placement_objective(adjacency, trial) < key:
                raise CheckError(f"moving landmark {lm!r} to {nb!r} improves {key}")
    return key
