"""Built-in checkers; importing this package populates the registry."""

from . import (  # noqa: F401
    des,
    determinism,
    hygiene,
    pickle_safety,
    scale,
    shared_state,
)
from .base import Checker, ModuleContext, annotate_parents

__all__ = ["Checker", "ModuleContext", "annotate_parents"]
