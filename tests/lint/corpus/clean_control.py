# lint-as: src/repro/wireless/cell.py
# expect:
"""The fixed counterparts: an explicit registry, a seeded per-replication
stream, and no output from library code."""

import random

from .plugreg import register_policy


class Cell:
    def __init__(self, name, registry):
        self.name = name
        self.registry = registry
        registry.append(self)

    def neighbours(self):
        return [c for c in self.registry if c is not self]


def arrivals(env, lam, seed):
    rng = random.Random(seed)
    while True:
        yield env.timeout(rng.expovariate(lam))


@register_policy
class InstancePolicy:
    def __init__(self):
        self.cache = {}

    def apply(self, key, value):
        self.cache[key] = value
        return value
