"""latloc: latency-based IP geolocation toolkit.

Landmark placement on a network graph, per-landmark logarithmic
latency-to-distance models, geodesic circle multilateration, point-cloud
target estimation, and a delay simulator for end-to-end evaluation.

Each name is imported from the module that defines it, for example
`from latloc.estimation import estimate_target`; the package itself imports
none of its modules.
"""

__version__ = "0.1.0"
