"""Subset objectives for the four dispersion models plus the mean variant.

Given a distance matrix and a subset M of nodes, the models score M as

* max-sum     -- total pairwise distance inside M,
* max-min     -- smallest pairwise distance inside M,
* max-minsum  -- smallest per-node contribution, where a node's contribution
                 is the sum of its distances to the rest of M,
* min-diff    -- largest minus smallest contribution (minimized),
* max-mean    -- total pairwise distance divided by |M| (subset size free).

All pairwise objectives require |M| >= 2; max-mean accepts singletons and
scores them 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .instances import Instance


class Sense(Enum):
    MAX = "max"
    MIN = "min"


class ObjectiveKind(Enum):
    MAXSUM = "maxsum"
    MAXMIN = "maxmin"
    MAXMINSUM = "maxminsum"
    MINDIFF = "mindiff"
    MAXMEAN = "maxmean"

    @property
    def sense(self) -> Sense:
        return Sense.MIN if self is ObjectiveKind.MINDIFF else Sense.MAX

    @classmethod
    def from_string(cls, text: str) -> "ObjectiveKind":
        key = text.strip().lower().replace("-", "").replace("_", "")
        for kind in cls:
            if kind.value == key:
                return kind
        raise ValueError(f"unknown model {text!r}; expected one of "
                         f"{[k.value for k in cls]}")


@dataclass(frozen=True)
class Solution:
    """A subset of node indices, normalized to a sorted tuple."""

    nodes: tuple[int, ...]

    def __init__(self, nodes: Iterable[int]) -> None:
        ordered = tuple(sorted(int(v) for v in nodes))
        if not ordered:
            raise ValueError("solution must be nonempty")
        if any(v < 0 for v in ordered):
            raise ValueError("node indices must be nonnegative")
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise ValueError(f"duplicate node {a} in solution")
        object.__setattr__(self, "nodes", ordered)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __contains__(self, v: int) -> bool:
        return v in self.nodes

    def validate_for(self, instance: Instance) -> None:
        if self.nodes[-1] >= instance.n:
            raise ValueError(
                f"node {self.nodes[-1]} out of range for n={instance.n}")


def _check_pairwise(instance: Instance, solution: Solution) -> np.ndarray:
    solution.validate_for(instance)
    if len(solution) < 2:
        raise ValueError("pairwise objectives need at least 2 selected nodes")
    return np.asarray(solution.nodes, dtype=np.intp)


def _pair_distances(instance: Instance, solution: Solution) -> np.ndarray:
    """The C(m, 2) distances inside ``solution``, row by row above the diagonal."""
    idx = _check_pairwise(instance, solution)
    return instance.distances[np.ix_(idx, idx)][np.triu_indices(len(idx), 1)]


def eval_maxsum(instance: Instance, solution: Solution) -> float:
    return float(_pair_distances(instance, solution).sum())


def eval_maxmin(instance: Instance, solution: Solution) -> float:
    return float(_pair_distances(instance, solution).min())


def contribution_vector(instance: Instance, solution: Solution) -> np.ndarray:
    """Per selected node: sum of distances to the other selected nodes.

    Order follows the solution's sorted node order.
    """
    idx = _check_pairwise(instance, solution)
    sub = instance.distances[np.ix_(idx, idx)]
    return sub.sum(axis=1)


def eval_maxminsum(instance: Instance, solution: Solution) -> float:
    return float(contribution_vector(instance, solution).min())


def eval_mindiff(instance: Instance, solution: Solution) -> float:
    contrib = contribution_vector(instance, solution)
    return float(contrib.max() - contrib.min())


def eval_maxmean(instance: Instance, solution: Solution) -> float:
    solution.validate_for(instance)
    if len(solution) == 1:
        return 0.0
    return eval_maxsum(instance, solution) / len(solution)


_EVALUATORS = {
    ObjectiveKind.MAXSUM: eval_maxsum,
    ObjectiveKind.MAXMIN: eval_maxmin,
    ObjectiveKind.MAXMINSUM: eval_maxminsum,
    ObjectiveKind.MINDIFF: eval_mindiff,
    ObjectiveKind.MAXMEAN: eval_maxmean,
}


def evaluate(kind: ObjectiveKind, instance: Instance, solution: Solution) -> float:
    """Dispatch to the evaluator for ``kind``."""
    return _EVALUATORS[kind](instance, solution)
