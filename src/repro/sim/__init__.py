"""Packaged simulators and scenarios."""

from .config import FIGURE6_TYPES, TwoCellConfig, figure6_config
from .scenarios import (
    CampusDayResult,
    CampusScaleConfig,
    CampusScaleResult,
    OfficeWeekResult,
    attach_campus,
    run_campus_day,
    run_campus_scale,
    run_campus_waves,
    run_office_week,
    simulate_campus_scale,
)
from .simulator import (
    FloorplanSimulator,
    TwoCellResult,
    TwoCellSimulator,
    simulate_twocell_stats,
)

__all__ = [
    "FIGURE6_TYPES",
    "TwoCellConfig",
    "figure6_config",
    "CampusDayResult",
    "CampusScaleConfig",
    "CampusScaleResult",
    "OfficeWeekResult",
    "run_office_week",
    "run_campus_day",
    "attach_campus",
    "run_campus_scale",
    "run_campus_waves",
    "simulate_campus_scale",
    "FloorplanSimulator",
    "TwoCellResult",
    "TwoCellSimulator",
    "simulate_twocell_stats",
]
