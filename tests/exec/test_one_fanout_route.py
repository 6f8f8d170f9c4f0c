"""Every sweep takes the one ``map_blocks`` route under every executor
name — ``serial`` included: one fault plan tells the same story (tasks,
faults, retries, values) whichever backend a borrowed executor is, and a
cell that fails past its budget is a ``TaskError`` naming it."""

import pytest

from repro.core.tuning import self_similarity_curve
from repro.eval.harness import run_grid, run_scenarios
from repro.exec import FaultPlan, TaskError, create_executor, inject
from repro.pipeline import LinkageConfig

BACKENDS = ("serial", "thread", "process")
CONFIGS = {
    method: LinkageConfig(threshold=method)
    for method in ("gmm", "otsu", "none")
}


def _cells(measures):
    return [(m.result.links, m.f1, m.result.threshold.threshold) for m in measures]


def _grid(cab_pair, cab_world, executor):
    return _cells(run_grid(cab_pair, list(CONFIGS.values()), executor=executor))


def _scenarios(cab_pair, cab_world, executor):
    cells = run_scenarios(
        ["baseline_cab"], CONFIGS, seed=7, scale=0.5, executor=executor
    )
    return _cells(cell.measures for cell in cells)


def _curve(cab_pair, cab_world, executor):
    return self_similarity_curve(
        cab_world,
        levels=(8, 10, 12),
        sample_size=4,
        pairs_per_entity=3,
        rng=5,
        executor=executor,
    )


#: sweep -> the ``what`` its ``TaskError`` names; each has three items.
SWEEPS = {
    _grid: "grid cell",
    _scenarios: "scenario cell",
    _curve: "self-similarity level",
}


@pytest.mark.parametrize("name", BACKENDS)
@pytest.mark.parametrize("sweep", SWEEPS, ids=lambda sweep: sweep.__name__)
class TestSameStoryUnderEveryName:
    def test_recovered_sweep(self, cab_pair, cab_world, sweep, name):
        with inject(FaultPlan()):
            clean = sweep(cab_pair, cab_world, None)
        with create_executor(name, workers=2, backoff=0.0) as executor:
            with inject(FaultPlan.from_spec("transient@1;transient@2")):
                values = sweep(cab_pair, cab_world, executor)
        assert values == clean and len(values) == 3
        stats = executor.stats
        assert (stats.dispatches, stats.tasks) == (1, 3)
        assert (stats.faults, stats.retries, stats.task_errors) == (2, 2, 0)

    def test_cell_past_its_budget_is_a_task_error(
        self, cab_pair, cab_world, sweep, name
    ):
        with create_executor(
            name, workers=2, retries=1, backoff=0.0
        ) as executor:
            with inject(FaultPlan.from_spec("transient@1*99")):
                with pytest.raises(
                    TaskError, match=rf"1 {SWEEPS[sweep]} task.*item 1: "
                ):
                    sweep(cab_pair, cab_world, executor)
        assert executor.stats.task_errors == 1
