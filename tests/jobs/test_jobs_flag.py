"""``--jobs`` below 1 is a usage error, never a silent serial run."""

from __future__ import annotations

import pytest

from repro.fleet.cli import main as fleet_main
from repro.verify.cli import main as verify_main

#: Every CLI that still takes ``--jobs``.
CLIS = {
    "repro.fleet": (fleet_main, []),
    "repro.verify diff": (verify_main, ["diff"]),
    "repro.verify fuzz": (verify_main, ["fuzz", "--budget", "1"]),
}


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("cli", sorted(CLIS))
def test_cli_rejects_jobs_below_one(cli, jobs, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    main, argv = CLIS[cli]
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--jobs", jobs])
    assert excinfo.value.code == 2
    assert "argument --jobs: must be an integer >= 1" in capsys.readouterr().err
