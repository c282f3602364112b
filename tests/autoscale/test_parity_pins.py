"""Literal pins of the ShardAutoscaler's decisions.

The control loop skips in-band shards before its busy, cool-down and
restoring lookups, and keeps the route-rate EWMA only when a route-rate
trigger is configured.  Both are pure shortcuts: every decision (time,
structure, shard, action, reason, controller state) and every counter
must stay bit for bit what the full scan produced.  These digests were
computed with the full scan; a change to the scan's decision order or
content moves at least one of them.
"""

import pytest

from repro.chaos import ChaosConfig, run_chaos
from repro.core import quicksand
from repro.exec import results_digest
from repro.experiments.autoscale import AUTOSCALE_DATASET, _run_pipeline
from repro.experiments.fig2_imbalance import PAPER_CONFIGS


def _digest(autoscaler) -> str:
    return results_digest([
        autoscaler.decisions,
        [autoscaler.splits_issued, autoscaler.merges_issued,
         autoscaler.frozen_skips, autoscaler.shed_skips]])


@pytest.fixture
def autoscalers(monkeypatch):
    """Every ShardAutoscaler enabled while the test runs."""
    made = []
    enable = quicksand.Quicksand.enable_autoscaler

    def recording_enable(qs, config=None):
        made.append(enable(qs, config))
        return made[-1]

    monkeypatch.setattr(quicksand.Quicksand, "enable_autoscaler",
                        recording_enable)
    return made


#: ``repro chaos --seed N --duration 2.0 --autoscale --recovery
#: checkpoint``: (decision digest, decisions, splits issued).
CHAOS_PINS = {
    42: ("5aa9346f471b48db178e7920b93f12f8"
         "fbb6ead1c58a9bdceae648e5be30ff25", 150, 145),
    2: ("89917b35089fa8be48ed02e99135bce2"
        "7ff0757ae05185f7df9276c921b0baac", 140, 138),
}

#: The autoscaled leg of each ``repro autoscale --no-grid`` config.
_BALANCED_CPU = ("5eaa98561810825651628d0b2e4356c2"
                 "7b216addb8e9796c1d98e823fb239ef2")
FIG2_PINS = {
    "baseline": (_BALANCED_CPU, 76),
    "cpu-unbalanced": ("d84d4640f95bbbb924e387aabb071913"
                       "c7f1a41e8a0d55869a833f16dbe89b81", 71),
    "mem-unbalanced": (_BALANCED_CPU, 76),
    "both-unbalanced": (_BALANCED_CPU, 76),
}


@pytest.mark.parametrize("seed", sorted(CHAOS_PINS))
def test_chaos_decisions(autoscalers, seed):
    run_chaos(ChaosConfig(seed=seed, duration=2.0, autoscale=True,
                          recovery_policy="checkpoint"))
    (auto,) = autoscalers
    digest, decisions, splits = CHAOS_PINS[seed]
    assert (len(auto.decisions), auto.splits_issued) == (decisions, splits)
    assert _digest(auto) == digest


@pytest.mark.parametrize("name,machines", PAPER_CONFIGS,
                         ids=[name for name, _ in PAPER_CONFIGS])
def test_fig2_leg_decisions(autoscalers, name, machines):
    _run_pipeline(machines, AUTOSCALE_DATASET, 0, autoscale=True)
    (auto,) = autoscalers
    digest, decisions = FIG2_PINS[name]
    assert len(auto.decisions) == decisions
    assert _digest(auto) == digest
