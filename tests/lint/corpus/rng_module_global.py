# lint-as: src/repro/sim/shared_rng.py
# expect: REP401
"""A seeded stream built at import time and drawn from by every caller."""

import random

SHARED = random.Random(7)


def jitter():
    return SHARED.random()
