"""GeoJSON export: an estimate and its kept and dropped candidate cloud become
a FeatureCollection any map viewer can render."""

from __future__ import annotations

import json

from .estimation import EstimatedLocation
from .geodesy import GeoPoint


def _point_feature(point: GeoPoint, properties: dict) -> dict:
    return {
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [point.lon, point.lat]},
        "properties": properties,
    }


def estimate_to_geojson(estimate: EstimatedLocation) -> str:
    features = [_point_feature(estimate.point, {
        "kind": "estimate",
        "mean_residual_km": estimate.mean_residual_km,
    })]
    for c in estimate.kept_points:
        features.append(_point_feature(c.point, {
            "kind": "candidate", "status": "kept",
            "case_tag": c.case_tag, "source_pair": list(c.source_pair),
        }))
    for c in estimate.dropped_points:
        features.append(_point_feature(c.point, {
            "kind": "candidate", "status": "dropped",
            "case_tag": c.case_tag, "source_pair": list(c.source_pair),
        }))
    return _dump({"type": "FeatureCollection", "features": features})


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
