import pytest

from whitney_lab import harness

from workloads import BOX_JITTER, BOX_STEP, FUNCTION_IDS, WORKLOADS, make_config, task_count


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_to_config_is_deterministic(name):
    for seed in (0, 1, 7, 123456):
        assert make_config(name, seed) == make_config(name, seed)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_default_seed_is_the_canonical_config(name):
    experiment, raw = make_config(name)
    assert experiment == WORKLOADS[name][0]
    assert raw["box"] == {"lower": [0.0, 0.0], "upper": [1.0, 1.0]}
    assert raw["function_ids"] == list(FUNCTION_IDS)
    assert raw["jobs"] == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_vary_box_and_order_within_the_range(name):
    configs = [make_config(name, seed)[1] for seed in range(1, 21)]
    assert len({repr(c["box"]) for c in configs}) > 10
    assert len({tuple(c["function_ids"]) for c in configs}) > 5
    limit = BOX_JITTER * BOX_STEP
    for raw in configs:
        assert sorted(raw["function_ids"]) == sorted(FUNCTION_IDS)
        for lo, hi in zip(raw["box"]["lower"], raw["box"]["upper"]):
            assert abs(lo) <= limit and abs(hi - lo - 1.0) <= limit


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_task_count_matches_the_harness_enumeration(name):
    experiment, raw = make_config(name, 3)
    cfg = harness.ExperimentConfig.from_dict(raw)
    assert task_count(experiment, raw) == len(harness._enumerate_tasks(experiment, cfg))
