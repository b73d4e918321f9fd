"""Self-test of the benchmark's tracer; not part of the tier-1 suite.

    python3 -m pytest -q bench/selftest_wrappers.py

A tiny traced run must record at least one call for every wrapped name that
the program defines. Several names are bound into other modules by
`from ... import`, so patching only the defining module would silently
record nothing for those call sites.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import gen
import tracer

SRC = Path(__file__).resolve().parent.parent / "src"
TINY = gen.Workload("tiny", hours=160, headlines=200, news_share=0.0, scored_share=0.5,
                    windows={"train_len": 70, "test_len": 40, "stride": 40, "count": 2},
                    seeds=(0,))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    sys.path.insert(0, str(SRC))
    data = tmp_path_factory.mktemp("tiny")
    gen.generate(TINY, 0, data)
    cfg = str(data / "config.json")
    run = tracer.Tracer()
    out = tracer.run_commands([
        ["--quiet", "ingest", "--config", cfg],
        ["--quiet", "corr-pulse", "--config", cfg, "--asset", gen.ASSET],
        ["--quiet", "run", "--config", cfg, "--workers", "1"],
    ], run)
    assert out["rcs"] == [0, 0, 0]
    return run


def test_every_wrapped_name_records_calls(traced):
    silent = [name for name, stat in traced.stats.items()
              if stat.calls == 0 and name not in traced.absent]
    assert not silent, f"wrapped but never called: {silent}"
    if traced.absent:
        pytest.skip(f"names no longer defined by sentarl: {traced.absent}")


def test_from_import_call_sites_are_seen(traced):
    # a2c calls forward, evaluation calls train/run_policy/save_model through
    # names bound at import time.
    for name in ("nn.forward", "a2c.train", "env.run_policy", "nn.save_model"):
        if name not in traced.absent:
            assert traced.stats[name].calls > 0, name
    assert traced.stats["nn.forward"].train_calls > 0


def test_uninstall_restores_originals(traced):
    import sentarl.a2c
    import sentarl.evaluation
    import sentarl.nn

    assert sentarl.a2c.forward is sentarl.nn.forward
    assert not hasattr(sentarl.nn.forward, "__wrapped__")
    assert not hasattr(sentarl.evaluation.train, "__wrapped__")


def test_spans_share_trial_ids(traced):
    trials = {span[2] for span in traced.spans if span[3] == "evaluation.run_agent_trial"}
    assert len(trials) == traced.stats["evaluation.run_agent_trial"].calls
    metrics = traced.metrics()
    assert metrics["nn.forward_calls_per_step"] > 0
    assert metrics["a2c.train_steps_per_s"] > 0
