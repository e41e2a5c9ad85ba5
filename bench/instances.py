"""Seeded random instances and the JSON input files the CLI reads.

Every instance has integer supplies in 1..5 and gives each agent 1-4
distinct desired goods.  Every good is desired by at least one agent: good j
is first handed to agent perm[j], then each agent fills its set up to its
drawn size from a random order of the goods.  Instance ``k`` of kind ``tag`` under
seed ``seed`` is drawn from its own stream ``default_rng([seed, tag, k])``,
so adding or removing instances of one kind never changes the others.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Spec:
    """A generated instance in plain Python form, as the benchmark knows it."""

    supplies: tuple[float, ...]
    desired: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.desired)

    @property
    def m(self) -> int:
        return len(self.supplies)

    def incidence(self) -> np.ndarray:
        """0/1 n-by-m matrix, built here rather than taken from the program."""
        w = np.zeros((self.n, self.m))
        for i, goods in enumerate(self.desired):
            w[i, list(goods)] = 1.0
        return w

    def to_json(self) -> dict:
        return {
            "supplies": list(self.supplies),
            "agents": [{"desired": list(goods)} for goods in self.desired],
        }


def make_spec(rng: np.random.Generator, n: int, m: int) -> Spec:
    if n < m:
        raise ValueError("need at least as many agents as goods to cover every good")
    supplies = rng.integers(1, 6, size=m).astype(float)
    sizes = rng.integers(1, 5, size=n)
    owner = rng.permutation(n)[:m]
    # Five distinct candidate goods per agent: enough to reach any size 1-4
    # besides the one good the agent may already own.
    candidates = np.argsort(rng.random((n, m)), axis=1)[:, :5]
    sets: list[set[int]] = [set() for _ in range(n)]
    for j, i in enumerate(owner):
        sets[int(i)].add(j)
    for goods, size, row in zip(sets, sizes, candidates.tolist()):
        for j in row:
            if len(goods) >= size:
                break
            goods.add(j)
    return Spec(tuple(float(s) for s in supplies), tuple(tuple(sorted(g)) for g in sets))


def spec_stream(seed: int, tag: int, count: int, n: int, m: int) -> list[Spec]:
    return [make_spec(np.random.default_rng([seed, tag, k]), n, m) for k in range(count)]


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload), encoding="utf-8")
