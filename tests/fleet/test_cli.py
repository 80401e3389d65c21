"""The ``python -m repro.fleet`` CLI: both modes, determinism, usage errors."""

import json

import pytest

from repro.fleet.cli import build_parser, main

REPLAY_ARGS = [
    "--pools", "binary-edge",
    "--size", "2",
    "--rate", "30",
    "--horizon-s", "0.3",
    "--slo-ms", "500",
]

CAPACITY_ARGS = [
    "--capacity",
    "--pools", "binary-cloud,hub-rate-cloud",
    "--fleet-sizes", "1,2",
    "--rate", "40",
    "--horizon-s", "0.3",
    "--slo-ms", "100",
]


def test_parser_covers_the_documented_flags():
    args = build_parser().parse_args(REPLAY_ARGS + ["--router", "slo-energy"])
    assert args.router == "slo-energy"
    assert not args.capacity
    assert args.shards == 1 and args.jobs == 1


def test_replay_prints_fleet_and_pool_rows(tmp_path, capsys):
    out = tmp_path / "fleet.json"
    assert main(REPLAY_ARGS + ["--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "fleet" in text and "binary-edge" in text
    assert "req/s/W" in text
    document = json.loads(out.read_text())
    assert document["schema_version"] == 1
    assert document["instances"]


def test_same_seed_replay_json_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = REPLAY_ARGS + ["--trace", "flash", "--autoscale", "--shards", "2"]
    main(args + ["--json", str(a)])
    main(args + ["--jobs", "2", "--json", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_capacity_mode_prints_the_planning_table(tmp_path, capsys):
    out = tmp_path / "capacity.json"
    assert main(CAPACITY_ARGS + ["--json", str(out)]) == 0
    text = capsys.readouterr().out
    assert "Capacity planning" in text
    assert "binary-cloud" in text and "hub-rate-cloud" in text
    document = json.loads(out.read_text())
    assert len(document) == 4  # 2 pools x 2 fleet sizes
    assert {point["fleet_size"] for point in document} == {1, 2}
    assert all("goodput_per_s_per_w" in point["summary"] for point in document)


def test_diurnal_trace_replay_runs(capsys):
    assert (
        main(
            REPLAY_ARGS[:-2]
            + ["--trace", "diurnal", "--peak-rate", "60", "--slo-ms", "1000"]
        )
        == 0
    )
    assert "diurnal" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["--pools", "no-such-pool"],
        ["--pools", "binary-edge,binary-edge"],
        ["--rate", "-5"],
        ["--slo-ms", "0"],
        ["--shards", "0"],
        ["--capacity", "--fleet-sizes", "0,2"],
    ],
)
def test_bad_arguments_are_usage_errors(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


def test_a_diurnal_crest_below_the_base_rate_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(REPLAY_ARGS + ["--trace", "diurnal", "--peak-rate", "10"])
    assert excinfo.value.code == 2
    assert "argument --peak-rate" in capsys.readouterr().err
