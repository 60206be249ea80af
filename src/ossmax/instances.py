"""Instance file reading and writing.

An instance file is a JSON document with a format tag, an objective stanza,
and a polytope stanza:

.. code-block:: json

    {
      "format": "oss-instance-v1",
      "objective": {"kind": "coverage", "dimension": 3, "elements": 4,
                    "weights": [...], "covers": [[0, 2], [1], [0, 1, 3]]},
      "polytope": {"kind": "cardinality", "budget": 2},
      "label": "cov-n3-seed7",
      "seed": 7
    }

Objective kinds are ``quadratic-semimetric`` (fields ``matrix`` row-major,
``offset``, ``sigma``) and ``coverage`` (fields ``weights`` and ``covers``,
one element list per coordinate).  Polytope kinds are ``box`` (field
``upper``), ``cardinality`` (field ``budget``), and ``monotone-linear``
(field ``pairs``).  Serialization uses exact repr round-tripping of floats,
so write -> read is value-exact, and key-sorted indented JSON, so
regeneration from the same seed is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .objectives import CoverageMultilinearObjective, OssObjective, QuadraticSemiMetricObjective
from .polytopes import BoxPolytope, CardinalityPolytope, MonotoneLinearPolytope, Polytope

FORMAT_TAG = "oss-instance-v1"


@dataclass
class Instance:
    objective: OssObjective
    polytope: Polytope
    label: str = "instance"
    seed: Optional[int] = None

    @property
    def dimension(self) -> int:
        return self.objective.dimension


def _objective_to_dict(obj: OssObjective) -> dict:
    if isinstance(obj, QuadraticSemiMetricObjective):
        return {
            "kind": "quadratic-semimetric",
            "dimension": obj.dimension,
            "sigma": obj.sigma_claimed,
            "matrix": [float(v) for v in obj.M.reshape(-1)],
            "offset": [float(v) for v in obj.b],
        }
    if isinstance(obj, CoverageMultilinearObjective):
        return {
            "kind": "coverage",
            "dimension": obj.dimension,
            "elements": len(obj.weights),
            "weights": [float(w) for w in obj.weights],
            "covers": [list(c) for c in obj.covers],
        }
    raise ValueError(f"cannot serialize objective of type {type(obj).__name__}")


def _objective_from_dict(data: dict) -> OssObjective:
    kind = data.get("kind")
    if kind == "quadratic-semimetric":
        n = int(data["dimension"])
        matrix = np.asarray(data["matrix"], dtype=float).reshape(n, n)
        offset = np.asarray(data["offset"], dtype=float)
        return QuadraticSemiMetricObjective(matrix, offset, sigma=float(data.get("sigma", 1.0)))
    if kind == "coverage":
        n = int(data["dimension"])
        covers = data["covers"]
        if len(covers) != n:
            raise ValueError(f"coverage stanza lists {len(covers)} cover sets for dimension {n}")
        return CoverageMultilinearObjective(data["weights"], covers)
    raise ValueError(f"unknown objective kind {kind!r}")


def _polytope_from_dict(data: dict, dimension: int) -> Polytope:
    kind = data.get("kind")
    if kind == "box":
        return BoxPolytope(dimension, np.asarray(data.get("upper", 1.0), dtype=float))
    if kind == "cardinality":
        return CardinalityPolytope(dimension, float(data["budget"]))
    if kind == "monotone-linear":
        return MonotoneLinearPolytope(dimension, [tuple(p) for p in data["pairs"]])
    raise ValueError(f"unknown polytope kind {kind!r}")


def instance_to_dict(instance: Instance) -> dict:
    return {
        "format": FORMAT_TAG,
        "label": instance.label,
        "seed": instance.seed,
        "objective": _objective_to_dict(instance.objective),
        "polytope": instance.polytope.describe(),
    }


def instance_from_dict(data: dict) -> Instance:
    if data.get("format") != FORMAT_TAG:
        raise ValueError(f"not an instance file (format tag {data.get('format')!r})")
    objective = _objective_from_dict(data["objective"])
    polytope = _polytope_from_dict(data["polytope"], objective.dimension)
    return Instance(
        objective=objective,
        polytope=polytope,
        label=str(data.get("label", "instance")),
        seed=data.get("seed"),
    )


def write_instance(path, instance: Instance) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed instance file {path}: {exc}") from exc
    return instance_from_dict(data)
