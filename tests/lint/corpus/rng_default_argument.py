# lint-as: src/repro/sim/draw.py
# expect: REP401
"""A seeded stream as a default argument: evaluated once, at import."""

import numpy as np


def draw(rng=np.random.default_rng(11)):
    return rng.random()
