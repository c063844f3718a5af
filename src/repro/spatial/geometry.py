"""Regions: the multi-dimensional generalization of filter intervals.

A 1-D filter constraint ``[l, u]`` generalizes to a *region*; the
violation semantics — report iff membership flips — carry over verbatim.
Two degenerate regions generalize the shut-down filters: ``ALL_SPACE``
(everything inside; the false-positive silencer) and ``EMPTY_REGION``
(nothing inside; the false-negative silencer).

Every region can additionally describe itself as a pair of axis-aligned
*quiescence boxes* (:meth:`Region.quiescence_bboxes`): an inscribed
(inner) box fully contained in the region and a circumscribed (outer)
box fully containing it.  For rectangular regions both are the box
itself, so the columnar AABB test is *exact*; for balls and composites
they are conservative — the inner box is shrunk and the outer inflated
by :data:`BBOX_SAFETY` so floating-point round-off in the exact
``contains`` norm can never contradict a box-side claim.  These boxes
feed :meth:`repro.state.table.StreamStateTable.record_region_deploy`,
which is what lets the batched replay pre-scan and the sharded topology
treat region filters like scalar intervals.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np


#: Relative safety margin applied to conservative (non-exact) quiescence
#: boxes: inner boxes shrink and outer boxes inflate by this factor, so a
#: box-side claim survives the few-ulp error of the exact ``contains``
#: norm.  Exact boxes (rectangles) use no margin — their AABB test runs
#: the very comparisons ``contains`` runs.
BBOX_SAFETY = 1e-9

#: ``quiescence_bboxes`` return type: (inner_lo, inner_hi, outer_lo,
#: outer_hi), each a length-d vector.
QuiescenceBoxes = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def as_point(value) -> np.ndarray:
    """Coerce to a 1-D float vector."""
    point = np.asarray(value, dtype=np.float64)
    if point.ndim != 1:
        raise ValueError(f"a point must be a 1-D vector, got shape {point.shape}")
    return point


class Region(ABC):
    """An arbitrary-dimension filter region."""

    @abstractmethod
    def contains(self, point: np.ndarray) -> bool:
        """Closed-region membership of *point*."""

    @abstractmethod
    def boundary_distance(self, point: np.ndarray) -> float:
        """Distance from *point* to the region's boundary (>= 0).

        Small means "likely to cross soon" — the quantity the
        boundary-nearest silencer heuristic orders by.
        """

    def boundary_distances(self, points: np.ndarray) -> np.ndarray:
        """:meth:`boundary_distance` of each row of an ``(n, d)`` matrix,
        one row at a time (regions have no vectorized form yet)."""
        return np.fromiter(map(self.boundary_distance, points), float, len(points))

    @property
    def is_silencing(self) -> bool:
        """Whether membership can never flip for finite data."""
        return False

    def quiescence_bboxes(self, dimension: int) -> QuiescenceBoxes | None:
        """Axis-aligned quiescence boxes, or ``None`` when unavailable.

        The contract is one-sided containment: every point inside the
        *inner* box is inside the region; every point outside the
        *outer* box is outside it.  ``None`` means this region cannot
        bound itself with boxes — its sources stay off the columnar
        pre-scan and dispatch per-event, which is always correct.
        """
        return None


class BoxRegion(Region):
    """An axis-aligned closed box ``[lows_i, highs_i]`` per dimension."""

    def __init__(self, lows, highs) -> None:
        self.lows = as_point(lows)
        self.highs = as_point(highs)
        if self.lows.shape != self.highs.shape:
            raise ValueError("lows and highs must share a dimension")
        if np.any(self.lows > self.highs):
            raise ValueError("every low must be <= its high")

    @property
    def dimension(self) -> int:
        return len(self.lows)

    def contains(self, point: np.ndarray) -> bool:
        point = np.asarray(point, dtype=np.float64)
        return bool(np.all(point >= self.lows) and np.all(point <= self.highs))

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized membership for an ``(n, d)`` array of points."""
        points = np.asarray(points, dtype=np.float64)
        return np.all(points >= self.lows, axis=1) & np.all(
            points <= self.highs, axis=1
        )

    def boundary_distance(self, point: np.ndarray) -> float:
        point = np.asarray(point, dtype=np.float64)
        if self.contains(point):
            # Nearest face: min slack over all dimensions.
            return float(
                np.min(np.minimum(point - self.lows, self.highs - point))
            )
        # Outside: Euclidean distance to the box.
        clamped = np.clip(point, self.lows, self.highs)
        return float(np.linalg.norm(point - clamped))

    def quiescence_bboxes(self, dimension: int) -> QuiescenceBoxes:
        """Exact: a box is its own inscribed and circumscribed bbox.

        The AABB test then performs the identical closed comparisons
        ``contains`` performs, so box-guarded streams are decided
        columnar-side with no conservative shell at all.
        """
        if int(dimension) != self.dimension:
            raise ValueError(
                f"region dimension {self.dimension} != table {dimension}"
            )
        return (
            self.lows.copy(),
            self.highs.copy(),
            self.lows.copy(),
            self.highs.copy(),
        )

    def __repr__(self) -> str:
        return f"BoxRegion({self.lows.tolist()}, {self.highs.tolist()})"


class BallRegion(Region):
    """A closed Euclidean ball — the k-NN bound ``R`` in d dimensions."""

    def __init__(self, center, radius: float) -> None:
        self.center = as_point(center)
        if radius < 0:
            raise ValueError("radius must be non-negative")
        self.radius = float(radius)

    @property
    def dimension(self) -> int:
        return len(self.center)

    def contains(self, point: np.ndarray) -> bool:
        point = np.asarray(point, dtype=np.float64)
        return bool(np.linalg.norm(point - self.center) <= self.radius)

    def contains_many(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return np.linalg.norm(points - self.center, axis=1) <= self.radius

    def boundary_distance(self, point: np.ndarray) -> float:
        point = np.asarray(point, dtype=np.float64)
        return abs(float(np.linalg.norm(point - self.center)) - self.radius)

    def quiescence_bboxes(self, dimension: int) -> QuiescenceBoxes:
        """Conservative: inscribed cube shrunk, bounding box inflated.

        The inscribed cube has half-width ``r / sqrt(d)``; the bounding
        box half-width ``r``.  Both are pushed :data:`BBOX_SAFETY` of
        the radius toward the safe side so the few-ulp error of the
        exact Euclidean-norm ``contains`` can never disagree with a
        box-side verdict — the shell between the boxes simply falls
        back to exact per-event geometry.
        """
        if int(dimension) != self.dimension:
            raise ValueError(
                f"region dimension {self.dimension} != table {dimension}"
            )
        inner_half = self.radius / math.sqrt(self.dimension)
        inner_half *= 1.0 - BBOX_SAFETY
        outer_half = self.radius * (1.0 + BBOX_SAFETY)
        return (
            self.center - inner_half,
            self.center + inner_half,
            self.center - outer_half,
            self.center + outer_half,
        )

    def __repr__(self) -> str:
        return f"BallRegion(center={self.center.tolist()}, radius={self.radius})"


class UnionRegion(Region):
    """The union of several member regions — a composite filter.

    Membership is "inside any member"; the boundary distance is the
    minimum over members (a lower bound — tight when members are
    disjoint, conservative where they overlap, which only makes the
    boundary-nearest silencer heuristic more cautious).
    """

    def __init__(self, members) -> None:
        self.members: tuple[Region, ...] = tuple(members)
        if not self.members:
            raise ValueError("a union needs at least one member region")

    def contains(self, point: np.ndarray) -> bool:
        return any(member.contains(point) for member in self.members)

    def boundary_distance(self, point: np.ndarray) -> float:
        return min(
            member.boundary_distance(point) for member in self.members
        )

    def quiescence_bboxes(self, dimension: int) -> QuiescenceBoxes | None:
        """Conservative composite boxes.

        The union's outer box is the AABB hull of the members' outer
        boxes (outside all of them implies outside the union).  For the
        inner box any single member's inner box is valid — it is fully
        inside that member, hence inside the union — so the widest one
        (largest minimum extent) is chosen.  Any member without boxes
        makes the union unscannable.
        """
        boxes = [
            member.quiescence_bboxes(dimension) for member in self.members
        ]
        if any(box is None for box in boxes):
            return None
        inner_lo, inner_hi = max(
            ((lo, hi) for lo, hi, _, _ in boxes),
            key=lambda box: float(np.min(box[1] - box[0])),
        )
        outer_lo = np.min([lo for _, _, lo, _ in boxes], axis=0)
        outer_hi = np.max([hi for _, _, _, hi in boxes], axis=0)
        return (
            np.array(inner_lo, dtype=np.float64),
            np.array(inner_hi, dtype=np.float64),
            outer_lo,
            outer_hi,
        )

    def __repr__(self) -> str:
        return f"UnionRegion({list(self.members)!r})"


class _AllSpace(Region):
    """Everything is inside: the false-positive silencer region."""

    def contains(self, point: np.ndarray) -> bool:
        return True

    def boundary_distance(self, point: np.ndarray) -> float:
        return math.inf

    @property
    def is_silencing(self) -> bool:
        return True

    def quiescence_bboxes(self, dimension: int) -> QuiescenceBoxes:
        """Exact: the whole space is its own inscribed box, so every
        finite point is provably inside — silenced sources batch."""
        d = int(dimension)
        return (
            np.full(d, -math.inf),
            np.full(d, math.inf),
            np.full(d, -math.inf),
            np.full(d, math.inf),
        )

    def __repr__(self) -> str:
        return "ALL_SPACE"


class _EmptyRegion(Region):
    """Nothing is inside: the false-negative silencer region."""

    def contains(self, point: np.ndarray) -> bool:
        return False

    def boundary_distance(self, point: np.ndarray) -> float:
        return math.inf

    @property
    def is_silencing(self) -> bool:
        return True

    def quiescence_bboxes(self, dimension: int) -> QuiescenceBoxes:
        """Exact: both boxes are empty, so every finite point is
        provably outside — silenced sources batch."""
        d = int(dimension)
        return (
            np.full(d, math.inf),
            np.full(d, -math.inf),
            np.full(d, math.inf),
            np.full(d, -math.inf),
        )

    def __repr__(self) -> str:
        return "EMPTY_REGION"


ALL_SPACE = _AllSpace()
EMPTY_REGION = _EmptyRegion()
