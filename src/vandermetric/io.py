"""File formats: CSV point tuples, JSON polygon and ODE problem specs."""

from __future__ import annotations

import csv
import json
from typing import TYPE_CHECKING

from .core import PointTuple, as_point_tuple
from .errors import ArgumentError

if TYPE_CHECKING:
    from .geometry import CyclicPolygon
    from .ode import ODEProblem


def read_points_csv(path, complex_points: bool = False) -> PointTuple:
    """One point per row, columns = coordinates.

    With complex_points=True each row must have exactly two columns (re, im).
    """
    rows = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            row = [c.strip() for c in row if c.strip() != ""]
            if not row or row[0].startswith("#"):
                continue
            try:
                rows.append([float(c) for c in row])
            except ValueError as exc:
                raise ArgumentError(f"malformed CSV row {row!r}: {exc}") from None
    if not rows:
        raise ArgumentError(f"no points in {path}")
    if complex_points:
        if any(len(r) != 2 for r in rows):
            raise ArgumentError("complex points need exactly two columns (re, im)")
        return as_point_tuple([complex(r[0], r[1]) for r in rows])
    return as_point_tuple(rows)


def write_points_csv(path, points) -> None:
    t = as_point_tuple(points)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for p in t.points:
            if t.is_complex:
                writer.writerow([p.real, p.imag])
            else:
                writer.writerow(list(p))


def polygon_from_json(source) -> CyclicPolygon:
    """Accepts a dict, a JSON string, or a path to a JSON file."""
    from .geometry import CyclicPolygon

    obj = _load_json(source)
    center = obj.get("center", [0.0, 0.0])
    if isinstance(center, (int, float)):
        center = [center, 0.0]
    try:
        radius = float(obj["R"])
        angles = tuple(float(a) for a in obj["angles"])
        center = complex(float(center[0]), float(center[1]))
    except (IndexError, TypeError, ValueError) as exc:
        raise ArgumentError(f"malformed polygon: {exc}") from None
    return CyclicPolygon(R=radius, angles=angles, center=center)


def problem_from_json(source) -> ODEProblem:
    from .ode import ODEProblem

    return ODEProblem.from_dict(_load_json(source))


def _load_json(source) -> dict:
    if isinstance(source, dict):
        return source
    text = str(source)
    if text.lstrip().startswith("{"):
        return json.loads(text)
    with open(text) as fh:
        return json.load(fh)
