"""Named test bodies and the generator mini-language used by the CLI.

Specs accepted by `generate`:
    cube            unit cube [0,1]^d
    simplex         standard simplex conv{0, e_1, ..., e_d}
    diamond         cross-polytope conv{+-e_i}
    segment         segment [0, e_1]
    segment:K       segment [0, e_K]  (1-based axis index)
    random-rotation:SEED
                    unit cube rotated by a seeded Haar rotation

`cube`, `simplex` and `diamond` hull their point set once per dimension
and process.  Each call returns a fresh `Polytope` that shares the
read-only vertex, normal and frame arrays of that hull but has its own
facet list, name and face, volume and surface caches.  `rotated_cube`
and `Polytope.transform` carry such a hull over, so neither hulls.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import InputError
from .polytope import Polytope
from .util import random_rotation


_POINTS = {
    "cube": lambda d: np.array(list(itertools.product((0.0, 1.0), repeat=d))),
    "simplex": lambda d: np.vstack([np.zeros(d), np.eye(d)]),
    "diamond": lambda d: np.vstack([np.eye(d), -np.eye(d)]),
}


@functools.cache
def _unit(kind: str, d: int) -> Polytope:
    p = Polytope.hull(_POINTS[kind](d))
    for a in (p.vertices, p._origin, p._frame, *(n for n, _, _ in p.facets)):
        a.flags.writeable = False
    return p


def _fresh(kind: str, d: int, name: str | None) -> Polytope:
    p = _unit(kind, d)
    return Polytope(p.vertices, list(p.facets), p.intrinsic_dim, p._origin, p._frame,
                    name or f"{kind}{d}")


def cube(d: int, name: str | None = None) -> Polytope:
    """Unit cube [0,1]^d."""
    return _fresh("cube", d, name)


def simplex(d: int, name: str | None = None) -> Polytope:
    """Standard simplex conv{0, e_1, ..., e_d}."""
    return _fresh("simplex", d, name)


def diamond(d: int, name: str | None = None) -> Polytope:
    """Cross-polytope conv{+-e_i}."""
    return _fresh("diamond", d, name)


def segment(d: int, axis: int = 0, name: str | None = None) -> Polytope:
    """[0, e_axis] as a lower-dimensional body in R^d."""
    if not (0 <= axis < d):
        raise InputError(f"segment axis {axis} out of range for dimension {d}")
    pts = np.zeros((2, d))
    pts[1, axis] = 1.0
    return Polytope.hull(pts, name=name or f"seg{d}.{axis}",
                         allow_degenerate=True)


def rotated_cube(d: int, seed: int, name: str | None = None) -> Polytope:
    rot = random_rotation(d, np.random.default_rng(int(seed)))
    return cube(d, name).transform(rot)


def generate(spec: str, d: int) -> Polytope:
    """Build a body from a generator spec string (see module docstring)."""
    head, _, arg = spec.partition(":")
    head = head.strip().lower()
    if head == "cube":
        return cube(d)
    if head == "simplex":
        return simplex(d)
    if head == "diamond":
        return diamond(d)
    if head == "segment":
        axis = int(arg) - 1 if arg else 0
        return segment(d, axis=axis, name=f"seg{d}.{axis}")
    if head == "random-rotation":
        if not arg:
            raise InputError("random-rotation needs a seed: random-rotation:SEED")
        body = rotated_cube(d, int(arg))
        body.name = f"rotcube{d}.{int(arg)}"
        return body
    raise InputError(f"unknown generator spec {spec!r}")
