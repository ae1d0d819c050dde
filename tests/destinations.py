"""Destination points for building test inputs: travel a distance along an
initial bearing from an origin, on latloc.geodesy's unit-vector frames, as
the circle solver builds its points. latloc itself never needs the forward
problem, so the tests keep it. Keep its arithmetic as it is: the tests'
inputs, and the figures they pin, are made with these bits."""

from __future__ import annotations

import math

import numpy as np

from latloc.geodesy import EARTH_RADIUS_M, GeoPoint, _frames, _lat_lon


def destination_point(origin: GeoPoint, bearing_deg: float, distance_m: float) -> GeoPoint:
    """Point reached by travelling distance_m along the given initial
    bearing: cos(s)·a + sin(s)·(cos(b)·north + sin(b)·east) for the arc s,
    the bearing b and the origin's frame, as solve_circle_pairs builds its
    points. From a pole, the bearing is measured from the origin's meridian."""
    if not 0.0 <= distance_m <= math.pi * EARTH_RADIUS_M + 1e-6:
        raise ValueError(f"distance {distance_m} outside [0, pi*R]")
    sigma, theta = distance_m / EARTH_RADIUS_M, math.radians(bearing_deg)
    coef = np.array([math.cos(sigma), math.sin(sigma) * math.cos(theta),
                     math.sin(sigma) * math.sin(theta)])
    v = np.add.reduce(coef[:, None, None] * _frames([origin.lat], [origin.lon]), axis=0)
    (lat,), (lon,) = _lat_lon(v)
    return GeoPoint(float(lat), float(lon))
