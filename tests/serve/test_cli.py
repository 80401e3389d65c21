"""The serving CLI: table output, byte-identical JSON, usage errors."""

import json

import pytest

import repro.serve.cli as serve_cli
from repro.serve.cli import build_parser, main

FAST_ARGS = [
    "--workload", "alexnet",
    "--rate", "40",
    "--horizon-s", "0.2",
    "--policy", "dynamic",
    "--slo-ms", "50",
    "--seed", "0",
    "--schemes", "BP",
]


def test_parser_covers_the_documented_flags():
    args = build_parser().parse_args(FAST_ARGS)
    assert args.workload == "alexnet"
    assert args.rate == 40.0
    assert args.slo_ms == 50.0


def test_cli_prints_table_and_writes_json(tmp_path, capsys):
    out = tmp_path / "metrics.json"
    assert main(FAST_ARGS + ["--json", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "scheme" in printed and "p99 ms" in printed and "mJ/req" in printed
    document = json.loads(out.read_text())
    assert document["config"]["workload"] == "alexnet"
    assert set(document["schemes"]) == {"BP"}
    summary = document["schemes"]["BP"]["summary"]
    assert summary["arrivals"] == document["requests"]


def test_same_seed_json_is_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    main(FAST_ARGS + ["--json", str(first)])
    main(FAST_ARGS + ["--json", str(second)])
    assert first.read_bytes() == second.read_bytes()


def test_json_config_records_act_frac(tmp_path, capsys):
    # tubGEMM's latency follows --act-frac, so two runs that differ only
    # there must not write the same config.
    configs = []
    for act_frac in ("0.3", "0.7"):
        out = tmp_path / f"tb-{act_frac}.json"
        args = ["--workload", "alexnet", "--schemes", "TB", "--rate", "20"]
        args += ["--horizon-s", "0.5", "--seed", "0", "--act-frac", act_frac]
        assert main(args + ["--json", str(out)]) == 0
        configs.append(json.loads(out.read_text())["config"])
    capsys.readouterr()
    assert [config["act_frac"] for config in configs] == [0.3, 0.7]
    assert configs[0] != configs[1]


def test_multi_scheme_comparison(tmp_path, capsys):
    args = FAST_ARGS[:-2] + ["--schemes", "BP,UR"]
    args += ["--ebt", "6", "--rate", "10", "--json", str(tmp_path / "m.json")]
    assert main(args) == 0
    document = json.loads((tmp_path / "m.json").read_text())
    assert set(document["schemes"]) == {"BP", "UR"}
    # The HUB rate array pays latency for its bandwidth savings.
    bp = document["schemes"]["BP"]["summary"]
    ur = document["schemes"]["UR"]["summary"]
    assert ur["p99_latency_s"] > bp["p99_latency_s"]
    capsys.readouterr()


def test_max_wait_ms_reaches_the_batcher_in_seconds(monkeypatch, capsys):
    # --max-wait-ms is milliseconds; make_batcher takes seconds.
    seen = []
    real = serve_cli.make_batcher

    def spy(*args, **kwargs):
        seen.append(kwargs["max_wait_s"])
        return real(*args, **kwargs)

    monkeypatch.setattr(serve_cli, "make_batcher", spy)
    assert main(FAST_ARGS + ["--max-wait-ms", "5"]) == 0
    capsys.readouterr()
    assert seen == [pytest.approx(0.005, rel=1e-12)]


def test_bad_arguments_are_usage_errors():
    with pytest.raises(SystemExit):
        main(["--workload", "alexnet", "--rate", "10", "--schemes", "XX"])
    with pytest.raises(SystemExit):
        main(["--workload", "alexnet", "--rate", "10", "--slo-ms", "-5"])
    with pytest.raises(SystemExit):
        main(["--workload", "alexnet", "--rate", "10", "--schemes", "BP,BP"])


def test_an_out_of_range_act_frac_is_a_usage_error(capsys):
    # Every scheme's array is validated before any stream is served.
    argv = ["--workload", "alexnet", "--rate", "20", "--schemes", "TB"]
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--act-frac", "2"])
    assert excinfo.value.code == 2
    assert "ArrayConfig.act_frac" in capsys.readouterr().err


def test_workload_choices_name_each_network_once():
    (workload,) = [
        action for action in build_parser()._actions if action.dest == "workload"
    ]
    assert "alexnet" in workload.choices
    assert len(workload.choices) == len(set(workload.choices))
