# lint-as: src/repro/sim/policy.py
# expect: REP404
"""A registered policy that caches into a module-level dict."""

from .plugreg import register_policy

_CACHE = {}


@register_policy
class StickyPolicy:
    def apply(self, key, value):
        _CACHE[key] = value
        return value
