# lint-as: src/repro/wireless/mac.py
# expect: REP303
"""Transmission log printed from library code."""


def log_tx(env, name, count):
    print(f"{env.now:.3f}: {name} TX #{count}")
