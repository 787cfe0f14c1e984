"""Per-layer benchmarks of the scene layer: `load_scenario`, `local_frame`,
`history_feature_matrix` and the intention labels (`label_indices`) on one
fixed `merge` scene per N in {3, 8, 16}.

    python -m pytest benchmarks --benchmark-enable \
        --benchmark-json=BENCH_<n>.json

As with the risk cases, the test suite runs each case once and
--benchmark-enable turns the timing on.
"""

import numpy as np
import pytest

from riskcast.intention import label_indices
from riskcast.interaction import history_feature_matrix
from riskcast.scene import (dump_scenario, generate_scenario, load_scenario,
                            local_frame)

N_AGENTS = (3, 8, 16)


@pytest.fixture(scope="module", params=N_AGENTS, ids=lambda n: f"N{n}")
def scene(request):
    return generate_scenario("merge", request.param, seed=3)


def test_load_scenario(benchmark, scene):
    text = dump_scenario(scene)
    assert benchmark(load_scenario, text) == scene


def test_local_frame(benchmark, scene):
    local = benchmark(local_frame, scene, scene.ego_id)
    assert local.ego_id == scene.ego_id


def test_history_feature_matrix(benchmark, scene):
    local = local_frame(scene, scene.ego_id)
    feats = benchmark(history_feature_matrix, local)
    assert feats.shape[:2] == local.past.shape[:2]
    assert np.isfinite(feats).all()


def test_label_indices(benchmark, scene):
    # every agent future of the local frame, as a training scene labels it
    local = local_frame(scene, scene.ego_id)
    labels = benchmark(label_indices, local.future)
    assert labels.shape == (len(local.agent_ids), 2)
