"""Golden digests: what the experiments compute, pinned absolutely.

The identity tests elsewhere are relative (pure == native, serial ==
pool, metered == unmetered), so a change that shifted every backend's
results the same way would pass all of them.  These tests hash the
rendered text of each experiment, exactly as ``python -m repro <name>``
prints it, and compare against committed sha256 digests.

Each experiment runs on the pure kernel, and again on the compiled core
when ``repro.des._speedups`` imports.  If a change is *meant* to alter
results, regenerate the digests with::

    PYTHONPATH=src python tests/experiments/test_goldens.py

and say in the change why the numbers moved.
"""

import hashlib
import sys
from typing import Callable, Dict

import pytest

from repro.__main__ import EXPERIMENTS
from repro.des.engine import NATIVE_ENV, native_available
from repro.runtime import ExperimentRunner


def _figure6_point(runner: ExperimentRunner) -> str:
    """One reduced Figure 6 operating point plus its plain baseline."""
    from repro.experiments import render_figure6, run_figure6, run_plain_baseline

    points = run_figure6(
        windows=(0.05,), p_qos_values=(0.01,), seeds=(1,), horizon=100.0,
        runner=runner,
    )
    baseline = run_plain_baseline(seeds=(1,), horizon=100.0, runner=runner)
    return render_figure6(points, baseline)


def _ablation_tables(runner: ExperimentRunner) -> str:
    """The mlist-overhead and prediction-level tables of ``ablations``."""
    from repro.experiments import (
        mlist_overhead,
        prediction_levels,
        render_mlist_overhead,
        render_prediction_levels,
    )

    return "\n\n".join([
        render_mlist_overhead(mlist_overhead(runner=runner)),
        render_prediction_levels(prediction_levels(runner=runner)),
    ])


#: Rendered-output producers: the CLI's own experiment functions at their
#: defaults, plus reduced slices of the two slow experiments.
RENDERERS: Dict[str, Callable[[ExperimentRunner], str]] = {
    "table2": EXPERIMENTS["table2"],
    "figure2": EXPERIMENTS["figure2"],
    "figure4": EXPERIMENTS["figure4"],
    "figure5": EXPERIMENTS["figure5"],
    "adaptation-value": EXPERIMENTS["adaptation-value"],
    "campus-day": EXPERIMENTS["campus-day"],
    "figure6-point": _figure6_point,
    "ablations-mlist-prediction": _ablation_tables,
}

GOLDENS: Dict[str, str] = {
    "ablations-mlist-prediction": "955731ace515d193c52a633f175cc1ca250ec3581a9e036259197c53d36d9c23",
    "adaptation-value": "0e273ca1c9998f5a424cda7e315caf7be787380d167f4e569c9b721c223b9128",
    "campus-day": "21d4ada9d9e7fb91f4eaab0855f3a718bd83db04a489c261c22289347c7381c7",
    "figure2": "2441b9478d6118699d4952ecee7a7622084fea55fd8b1a80458cbbb11756adc2",
    "figure4": "a93d4d20fb648c238e6a4269216595de2f4500703bc8517c2e8e0238f4bf3b18",
    "figure5": "7d779ee04ce8087c57e06c1ccb96de2d17b5be71cb0b8194d06588c4a2fec306",
    "figure6-point": "5e84ea3c0a6caa9e1e29372c22ec2c6cc09edee2d9de2f67053217f3dc8630b4",
    "table2": "1935b5810fdd3c5d569f5cdc6e005b84a08dcab91147a334659f8e6e3b393703",
}

CORES = [
    "pure",
    pytest.param(
        "native",
        marks=pytest.mark.skipif(
            not native_available(),
            reason="repro.des._speedups not built "
            "(python setup.py build_ext --inplace)",
        ),
    ),
]


def _digest(name: str) -> str:
    text = RENDERERS[name](ExperimentRunner(jobs=1))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("name", sorted(RENDERERS))
def test_rendered_output_matches_golden(monkeypatch, name, core):
    monkeypatch.setenv(NATIVE_ENV, core)
    assert _digest(name) == GOLDENS[name]


if __name__ == "__main__":
    for key in sorted(RENDERERS):
        sys.stdout.write(f'    "{key}": "{_digest(key)}",\n')
