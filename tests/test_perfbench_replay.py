"""perfbench's traced replay (``perfbench/trace_layers.py``) on small
inputs.

The replay re-does the router and the evaluator by hand and reports
``correct: false`` unless its output matches the reference and its
distance and pruned-membership counts equal those of ``run_pipeline``.
A change to the program that the replay does not mirror fails here.
"""

import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
import trace_layers  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_replay_is_correct(name, tmp_path):
    w = dataclasses.replace(WORKLOADS[name], n=4000, open_n=1000)
    inputs = run.Inputs(w, *generate(w, 1), tmp_path)
    inputs.write()
    result = trace_layers.measure(inputs, 0.0)
    assert result["correct"]
    assert result["failed"] == 0
    assert result["attempted"] > 0
