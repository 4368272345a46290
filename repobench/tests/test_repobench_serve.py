"""The serve workload tears its server and worker pool down on a failed job."""

from __future__ import annotations

import os

import pytest

from repro.exceptions import ExperimentError
from repro.faults import FaultPlan, FaultSpec

from repobench import harness
from repobench.serve import ServiceProcess, _gone, cycle, scenario_for


def test_a_failed_job_stops_the_server_and_its_pool(tmp_path):
    plan = FaultPlan(faults=(FaultSpec("worker.crash", times=99),))
    env = dict(os.environ, PYTHONPATH=str(harness.SRC), REPRO_FAULTS=plan.to_json())
    with pytest.raises(ExperimentError, match="failed"):
        with ServiceProcess(tmp_path / "server", env=env) as server:
            server.start()
            try:
                cycle(server, scenario_for(5), harness.Checks())
            finally:
                pids = server.pids()
    assert len(pids) > 1, "the job never reached the worker pool"
    assert all(_gone(pid) for pid in pids)
    assert server.proc is None
