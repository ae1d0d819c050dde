"""latloc: latency-based IP geolocation toolkit.

Landmark placement on a network graph, per-landmark logarithmic
latency-to-distance models, geodesic circle multilateration, point-cloud
target estimation, and a delay simulator for end-to-end evaluation.
"""

from .errors import LatlocError
from .estimation import EstimatedLocation, FilterConfig, GridSearchConfig, estimate_target
from .geodesy import GeoCircle, GeoPoint, circle_intersections, destination_point, orthodromic_distance
from .lateration import CandidatePoint, LandmarkCircle, all_candidates, build_circle
from .latency import (
    CalibrationSample,
    LatencyModel,
    Measurement,
    calibrate_all,
    effective_latency,
    fit_model,
    predict_distance,
)
from .placement import (
    LandmarkSet,
    dragoon_place,
    place_landmarks,
    place_orientation_mark,
    refine,
    two_approx,
)
from .simulator import DelayParams, SimWorld, generate_topology, run_experiment, simulate_measurement
from .topology import Topology, assign_to_closest, hop_distances, load_topology_json

__version__ = "0.1.0"
