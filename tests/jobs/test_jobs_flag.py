"""``--jobs`` below 1 is a usage error, never a silent serial run."""

from __future__ import annotations

import pytest

from repro.eval import runall
from repro.jobs.cli import main as jobs_main
from repro.jobs.runner import JobRunner
from repro.sim.cli import main as sim_main
from repro.verify.cli import main as verify_main

CLIS = {
    "repro.sim": (sim_main, ["--workload", "alexnet"]),
    "repro.jobs": (jobs_main, ["--workload", "ncf", "--platform", "cloud"]),
    "repro.eval": (runall.main, ["--fast"]),
    "repro.verify diff": (verify_main, ["diff"]),
    "repro.verify fuzz": (verify_main, ["fuzz", "--budget", "1"]),
}


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("cli", sorted(CLIS))
def test_cli_rejects_jobs_below_one(cli, jobs, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    # Should the flag be accepted, fail fast instead of regenerating every figure.
    monkeypatch.setattr(runall, "run_all", lambda **kwargs: None)
    main, argv = CLIS[cli]
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--jobs", jobs])
    assert excinfo.value.code == 2
    assert "argument --jobs: must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("workers", [0, -1])
def test_job_runner_rejects_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        JobRunner(workers=workers)
