# lint-as: src/repro/traffic/arrivals.py
# expect: REP001
"""Inter-arrival times drawn from numpy's process-global RNG."""

import numpy as np


def arrivals(env, lam):
    while True:
        yield env.timeout(np.random.exponential(1 / lam))
