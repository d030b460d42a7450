"""Runners carry no spec: parallel workers always build a plain runner.

There is no recipe that could describe a customised
:class:`~repro.experiments.runner.ExperimentRunner` to a pool worker, so a
parallel sweep would silently run it as the plain runner.  The parallel path
therefore keys its guard on the runner's exact type, not on what the
subclass overrides.
"""

import pytest

from repro.experiments import (
    DEFAULT_POLICY,
    ExperimentRunner,
    ScenarioSpec,
    SerialExecutor,
    make_executor,
)


def test_customised_runner_without_spec_still_rejected():
    class EmptySubclass(ExperimentRunner):
        """Overrides nothing; an isinstance check would let it through."""

    scenarios = [ScenarioSpec(system="frodo3", failure_rate=0.0, seed=3)]
    done = []

    def on_result(index, result, wall_seconds):
        done.append((index, result.seed))

    def on_error(index, failure):
        pytest.fail(f"cell {index} failed: {failure}")

    with pytest.raises(ValueError, match="EmptySubclass"):
        make_executor(2).run_scenarios(
            scenarios, ["a"], EmptySubclass(), DEFAULT_POLICY, on_result, on_error
        )
    assert done == []
    # The same runner is fine where it runs in the calling process.
    SerialExecutor().run_scenarios(
        scenarios, ["a"], EmptySubclass(), DEFAULT_POLICY, on_result, on_error
    )
    assert done == [(0, 3)]
