"""Campaign runner, report files, CLI subcommands, and exit codes."""

import csv
import json
import math
import os
import subprocess
import sys

import pytest

from opjensen import harness_cli, tensor_ops
from opjensen.errors import DimensionError, UsageError
from opjensen.harness_cli import (
    CampaignConfig,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    build_tasks,
    cli_entry,
    default_campaign,
    expand_cells,
    run_campaign,
    _csv_path_for,
)
from opjensen.jensen_checks import CHECKS
from opjensen.linalg_core import ToleranceConfig
from opjensen.reporting import CheckReport


def small_config(tmp_path, **overrides) -> CampaignConfig:
    base = dict(
        checks=["check_cfl"],
        trials=30,
        dims=[(2, 2), (2, 3)],
        functions=["square", "abs"],
        weights=[(1.0, 1.0)],
        master_seed=1,
        out_path=str(tmp_path / "out.jsonl"),
    )
    base.update(overrides)
    return CampaignConfig.from_dict(base)


def test_campaign_determinism_bytes(tmp_path):
    cfg = small_config(tmp_path, trials=100)
    run_campaign(cfg, jobs=1)
    first = open(cfg.out_path, "rb").read()
    run_campaign(cfg, jobs=1)
    second = open(cfg.out_path, "rb").read()
    assert first == second
    summary = open(_csv_path_for(cfg.out_path), "rb").read()
    run_campaign(cfg, jobs=2)
    parallel = open(cfg.out_path, "rb").read()
    assert first == parallel
    assert open(_csv_path_for(cfg.out_path), "rb").read() == summary


def test_campaign_summary_and_conservation(tmp_path):
    cfg = small_config(tmp_path, checks=["check_cfl", "check_partial_trace_duality"], trials=25)
    summary = run_campaign(cfg, jobs=1)
    lines = [ln for ln in open(cfg.out_path).read().splitlines() if ln]
    assert len(lines) == 2 * 25 == summary["total"]
    assert summary["passed"] + summary["failed"] == summary["total"]
    assert summary["failed"] == 0
    with open(_csv_path_for(cfg.out_path)) as fh:
        rows = list(csv.DictReader(fh))
    assert sum(int(r["trials"]) for r in rows) == summary["total"]
    assert sum(int(r["failures"]) for r in rows) == summary["failed"]
    for row in rows:
        assert row["check"] in cfg.checks
        assert float(row["min_gap"]) <= float(row["max_gap"])


def test_reports_parse_as_check_reports(tmp_path):
    cfg = small_config(tmp_path, trials=10)
    run_campaign(cfg, jobs=1)
    for line in open(cfg.out_path).read().splitlines():
        rep = CheckReport.from_dict(json.loads(line))
        assert rep.check_name == "check_cfl"
        assert rep.passed == (rep.gap >= -rep.tol)


def test_empty_checks_usage_error(tmp_path):
    cfg = small_config(tmp_path, checks=[])
    with pytest.raises(UsageError):
        run_campaign(cfg, jobs=1)


def test_unknown_check_usage_error(tmp_path):
    cfg = small_config(tmp_path, checks=["check_bogus"])
    with pytest.raises(UsageError):
        run_campaign(cfg, jobs=1)


def test_invalid_trials_usage_error(tmp_path):
    cfg = small_config(tmp_path, trials=0)
    with pytest.raises(UsageError):
        run_campaign(cfg, jobs=1)


def test_incompatible_cells_filtered():
    cfg = CampaignConfig.from_dict(dict(
        checks=["check_state_version"],
        functions=["square", "abs", "power:1.5"],
        dims=[[2, 2]],
    ))
    cells = expand_cells(cfg, "check_state_version")
    labels = {c["function"].label for c in cells}
    assert labels == {"square", "power:1.5"}  # abs is not operator convex


def test_no_valid_cells_is_usage_error():
    cfg = CampaignConfig.from_dict(dict(
        checks=["check_state_version"], functions=["abs"], dims=[[2, 2]],
    ))
    with pytest.raises(UsageError):
        expand_cells(cfg, "check_state_version")


def test_subnormalized_branch_only_for_vanishing_f():
    cfg = CampaignConfig.from_dict(dict(
        checks=["check_main_tracial"], functions=["exp"], dims=[[2, 2]],
    ))
    cells = expand_cells(cfg, "check_main_tracial")
    assert {c["branch"] for c in cells} == {"normalized"}


def test_task_indexing_is_global_and_stable(tmp_path):
    cfg = small_config(tmp_path, checks=["check_cfl", "check_partial_trace_duality"], trials=7)
    tasks = build_tasks(cfg)
    assert [t[2] for t in tasks] == list(range(14))


def test_default_campaign_runs_clean(tmp_path):
    cfg = default_campaign(out_path=str(tmp_path / "default.jsonl"))
    summary = run_campaign(cfg, jobs=2)
    assert summary["failed"] == 0
    assert summary["total"] == len(cfg.checks) * cfg.trials


# ---------------------------------------------------------------------------
# CLI entry
# ---------------------------------------------------------------------------

def test_cli_check_passes(tmp_path, capsys):
    out = str(tmp_path / "check.jsonl")
    rc = cli_entry([
        "check", "--name", "check_cfl", "--d1", "2", "--d2", "2",
        "--function", "square", "--seed", "7", "--trials", "100", "--out", out,
    ])
    assert rc == EXIT_OK
    lines = open(out).read().splitlines()
    assert len(lines) == 100
    payload = json.loads(capsys.readouterr().out.splitlines()[0])
    assert payload["failures"] == 0


def test_cli_unknown_function_names_catalog(tmp_path, capsys):
    rc = cli_entry(["check", "--name", "check_cfl", "--function", "nope"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "square" in err and "hinge" in err
    # a check that sweeps no functions ran and exited 0
    rc = cli_entry(["check", "--name", "check_partial_trace_duality", "--function", "nosuch",
                    "--trials", "2"])
    assert rc == EXIT_USAGE
    cfg = {"checks": ["check_partial_trace_duality"], "trials": 2, "functions": ["nosuch:zz"],
           "out_path": str(tmp_path / "out.jsonl")}
    assert _campaign_with(tmp_path, cfg) == EXIT_USAGE
    assert not os.path.exists(cfg["out_path"])


@pytest.mark.parametrize("where, spec, line", [
    ("check", "nope", "error: unknown function 'nope'; valid names: abs, const, entropy, exp, "
     "hinge, inv, linear, neglog, power, quartic, shifted_square, square"),
    ("config", "exp:2", "error: function 'exp' takes 0 parameter(s), got 1"),
    ("config", "power:nan", "error: function spec 'power:nan': parameters must be finite"),
], ids=["check-unknown", "config-arity", "config-non-finite"])
def test_cli_function_errors_print_unquoted(tmp_path, capsys, where, spec, line):
    # an unknown-function error is a KeyError, whose str() would quote it
    if where == "check":
        rc = cli_entry(["check", "--name", "check_cfl", "--function", spec])
    else:
        rc = _campaign_with(tmp_path, {"checks": ["check_cfl"], "trials": 2, "functions": [spec],
                                       "out_path": str(tmp_path / "out.jsonl")})
    assert rc == EXIT_USAGE == 2
    assert capsys.readouterr().err == line + "\n"


def test_cli_unknown_check(capsys):
    rc = cli_entry(["check", "--name", "check_nope"])
    assert rc == EXIT_USAGE


def test_cli_incompatible_combo(capsys):
    rc = cli_entry(["check", "--name", "check_state_version", "--function", "abs"])
    assert rc == EXIT_USAGE


def test_cli_search_and_replay_fidelity(tmp_path, capsys):
    wpath = str(tmp_path / "witness.jsonl")
    rc = cli_entry(["search", "--target", "petz_drop_f0", "--trials", "10",
                    "--seed", "1", "--out", wpath])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert '"violation_found": true' in out
    rec = json.loads(open(wpath).read().splitlines()[0])
    assert rec["witness"]
    rc = cli_entry(["replay", "--witness", wpath])
    assert rc == EXIT_OK
    replay_out = json.loads(capsys.readouterr().out.splitlines()[0])
    assert replay_out["reproduced"]
    assert abs(replay_out["gap"] - rec["gap"]) <= 1e-12 * max(1.0, abs(rec["gap"]))


def test_cli_replay_reads_a_pretty_printed_json_report(tmp_path, capsys):
    # exited 2, "witness file is not JSON/JSONL"
    lines = str(tmp_path / "w.jsonl")
    assert cli_entry(["search", "--target", "petz_drop_f0", "--trials", "3",
                      "--seed", "1", "--out", lines]) == EXIT_OK
    pretty = str(tmp_path / "w.json")
    with open(pretty, "w") as fh:
        json.dump(json.loads(open(lines).read()), fh, indent=2)
    capsys.readouterr()
    assert cli_entry(["replay", "--witness", pretty]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["reproduced"] is True


def test_cli_search_unknown_target(capsys):
    assert cli_entry(["search", "--target", "nope"]) == EXIT_USAGE


def test_cli_replay_needs_witness(tmp_path, capsys):
    p = str(tmp_path / "plain.jsonl")
    with open(p, "w") as fh:
        fh.write(json.dumps({"check_name": "check_cfl", "pass": True}) + "\n")
    assert cli_entry(["replay", "--witness", p]) == EXIT_USAGE


def test_cli_campaign_with_config_file(tmp_path, capsys):
    out = str(tmp_path / "c.jsonl")
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump({
            "checks": ["check_partial_trace_duality"],
            "trials": 12,
            "dims": [[2, 2]],
            "weights": [[0.3, 2.5]],
            "master_seed": 5,
            "out_path": out,
        }, fh)
    rc = cli_entry(["campaign", "--config", cfg_path, "--jobs", "1"])
    assert rc == EXIT_OK
    assert len(open(out).read().splitlines()) == 12
    assert os.path.exists(_csv_path_for(out))


def test_cli_campaign_malformed_config(tmp_path):
    cfg_path = str(tmp_path / "bad.json")
    with open(cfg_path, "w") as fh:
        fh.write("{not json")
    assert cli_entry(["campaign", "--config", cfg_path]) == EXIT_USAGE


def test_env_seed_override(tmp_path, capsys, monkeypatch):
    out1 = str(tmp_path / "a.jsonl")
    out2 = str(tmp_path / "b.jsonl")
    monkeypatch.setenv("OPJENSEN_SEED", "777")
    rc = cli_entry(["check", "--name", "check_cfl", "--seed", "1", "--trials", "5",
                    "--out", out1])
    assert rc == EXIT_OK
    monkeypatch.delenv("OPJENSEN_SEED")
    rc = cli_entry(["check", "--name", "check_cfl", "--seed", "777", "--trials", "5",
                    "--out", out2])
    assert rc == EXIT_OK
    assert open(out1).read() == open(out2).read()


@pytest.mark.parametrize("argv", [
    ["check", "--name", "check_cfl", "--seed", "-1", "--trials", "2"],
    ["search", "--target", "petz_drop_f0", "--seed", "-5"],
], ids=["check", "search"])
def test_cli_negative_seed_flag_is_usage_error(capsys, argv):
    # numpy's SeedSequence refused it with a ValueError traceback, exit 1
    assert cli_entry(argv) == EXIT_USAGE
    assert "--seed must be a non-negative integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "--name", "check_cfl", "--trials", "2"],
    ["search", "--target", "petz_drop_f0", "--trials", "2"],
    ["campaign", "--jobs", "1"],
], ids=["check", "search", "campaign"])
def test_negative_env_seed_is_usage_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("OPJENSEN_SEED", "-3")
    out = str(tmp_path / "out.jsonl")
    assert cli_entry(argv + ["--out", out]) == EXIT_USAGE
    assert "OPJENSEN_SEED must be a non-negative integer" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_negative_config_seed_is_usage_error(tmp_path, capsys):
    cfg = {"checks": ["check_cfl"], "trials": 2, "master_seed": -4,
           "out_path": str(tmp_path / "out.jsonl")}
    assert _campaign_with(tmp_path, cfg) == EXIT_USAGE
    assert "master_seed must be a non-negative integer" in capsys.readouterr().err
    assert not os.path.exists(cfg["out_path"])


def test_negative_master_seed_is_usage_error_before_any_trial(tmp_path, monkeypatch):
    # numpy's SeedSequence refused it with a plain ValueError at the first trial
    trials = []
    monkeypatch.setattr(harness_cli, "run_trial", lambda *args: trials.append(args))
    cfg = small_config(tmp_path, trials=2, master_seed=-1)
    for jobs in (1, 2):
        with pytest.raises(UsageError, match="master_seed must be a non-negative integer"):
            run_campaign(cfg, jobs=jobs)
    assert trials == []
    assert not os.path.exists(cfg.out_path)


@pytest.mark.parametrize("extra, defaults_but", [
    ({}, {}),
    ({"trials": 7}, {"trials": 7}),
    ({"tolerances": {}}, {}),
    ({"tolerances": {"rtol": 1e-6}}, {"tolerances": ToleranceConfig(rtol=1e-6)}),
    ({"tolerances": {"atol": 0.0, "eig_cluster_tol": 1e-8}},
     {"tolerances": ToleranceConfig(atol=0.0, eig_cluster_tol=1e-8)}),
], ids=["checks_only", "trials", "empty_tolerances", "rtol", "atol_cluster"])
def test_config_keys_left_out_take_the_dataclass_defaults(extra, defaults_but):
    checks = ["check_cfl", "check_petz"]
    got = CampaignConfig.from_dict({"checks": checks, **extra})
    assert got == CampaignConfig(checks=checks, **defaults_but)


def test_config_without_checks_is_usage_error():
    with pytest.raises(UsageError, match="checks"):
        CampaignConfig.from_dict({"trials": 2})


@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_below_one_is_usage_error(tmp_path, capsys, jobs):
    # both ran the campaign serially without a word
    cfg = small_config(tmp_path, trials=2)
    with pytest.raises(UsageError, match="jobs must be >= 1"):
        run_campaign(cfg, jobs=jobs)
    assert not os.path.exists(cfg.out_path)
    assert cli_entry(["campaign", "--jobs", str(jobs), "--out", cfg.out_path]) == EXIT_USAGE
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert not os.path.exists(cfg.out_path)


def test_jobs_none_uses_every_cpu(tmp_path, monkeypatch):
    import opjensen.harness_cli as harness

    seen = []

    class _Pool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            return map(fn, tasks)

    # three CPUs usable by this process out of eight on the machine
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _Pool)
    cfg = small_config(tmp_path, trials=4)
    assert run_campaign(cfg, jobs=None)["total"] == 4
    assert seen == [3]


def test_pool_is_capped_at_the_task_count(tmp_path, monkeypatch):
    # --jobs 64 on a 3-task campaign forked 64 workers
    import opjensen.harness_cli as harness

    seen = []

    class _Pool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize):
            seen.append(chunksize)
            return map(fn, tasks)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", _Pool)
    cfg = small_config(tmp_path, trials=3)
    assert run_campaign(cfg, jobs=64)["total"] == 3
    assert seen == [3, 1]
    seen.clear()
    assert run_campaign(small_config(tmp_path, trials=1), jobs=64)["total"] == 1
    assert seen == []


def test_cli_replay_mismatch_exits_one(tmp_path, capsys):
    # a tampered witness fails the reproduction comparison
    wpath = str(tmp_path / "w.jsonl")
    assert cli_entry(["search", "--target", "petz_drop_f0", "--trials", "2",
                      "--seed", "3", "--out", wpath]) == EXIT_OK
    capsys.readouterr()
    rec = json.loads(open(wpath).read().splitlines()[0])
    rec["gap"] = 123.0
    tampered = str(tmp_path / "tampered.jsonl")
    with open(tampered, "w") as fh:
        fh.write(json.dumps(rec) + "\n")
    assert cli_entry(["replay", "--witness", tampered]) == EXIT_VIOLATION


def test_cli_check_unknown_map_kind(tmp_path, capsys):
    rc = cli_entry(["check", "--name", "check_petz", "--map", "bogus", "--trials", "2"])
    assert rc == EXIT_USAGE
    assert "ucp_stinespring" in capsys.readouterr().err
    # checks that sweep no map kinds ran and exited 0; the ablation-only
    # kinds are not campaign kinds
    for name, kind in (("check_cfl", "nosuch"), ("check_partial_trace_duality", "nosuch"),
                       ("check_petz", "expansive"), ("check_petz", "nonpositive_unital")):
        assert cli_entry(["check", "--name", name, "--map", kind,
                          "--trials", "2"]) == EXIT_USAGE, (name, kind)
        cfg = {"checks": [name], "trials": 2, "map_kinds": [kind],
               "out_path": str(tmp_path / "out.jsonl")}
        assert _campaign_with(tmp_path, cfg) == EXIT_USAGE, (name, kind)
        assert not os.path.exists(cfg["out_path"])
        assert f"unknown map kind {kind!r}" in capsys.readouterr().err
    assert cli_entry(["check", "--name", "check_partial_trace_duality", "--function", "nosuch",
                      "--map", "nosuch", "--trials", "2"]) == EXIT_USAGE


def test_cli_check_rejects_bad_numbers():
    assert cli_entry(["check", "--name", "check_cfl", "--trials", "0"]) == EXIT_USAGE
    assert cli_entry(["check", "--name", "check_cfl", "--tol", "-1"]) == EXIT_USAGE
    # a NaN tolerance failed every trial, an infinite one passed every trial
    for bad in ("nan", "inf"):
        assert cli_entry(["check", "--name", "check_cfl", "--function", "square",
                          "--seed", "7", "--trials", "3", "--tol", bad]) == EXIT_USAGE


@pytest.mark.parametrize("spec", [
    "hinge:x",  # was a ValueError traceback, exit 1
    "hinge:nan",  # was a numeric error, exit 3
    "shifted_square:inf",
])
def test_cli_function_parameter_not_a_number(tmp_path, capsys, spec):
    assert cli_entry(["check", "--name", "check_cfl", "--function", spec,
                      "--trials", "2"]) == EXIT_USAGE
    assert spec in capsys.readouterr().err
    cfg = {"checks": ["check_cfl"], "trials": 2, "functions": [spec],
           "out_path": str(tmp_path / "out.jsonl")}
    assert _campaign_with(tmp_path, cfg) == EXIT_USAGE
    assert not os.path.exists(cfg["out_path"])


@pytest.mark.parametrize("name, flag, value", [
    ("check_partial_trace_duality", "--w2", "inf"),  # printed NaN, exit 1
    ("check_main_tracial", "--w1", "nan"),  # exit 3
    ("check_petz", "--w2", "nan"),
    ("check_cfl", "--w1", "nan"),  # check_cfl sweeps no weights: ran, exit 0
])
def test_cli_non_finite_weights(tmp_path, name, flag, value):
    assert cli_entry(["check", "--name", name, "--trials", "2", "--function", "square",
                      flag, value]) == EXIT_USAGE
    w = float(value)
    cfg = {"checks": [name], "trials": 2, "functions": ["square"],
           "weights": [[w, 1.0] if flag == "--w1" else [1.0, w]],
           "out_path": str(tmp_path / "out.jsonl")}
    with pytest.raises(UsageError):
        build_tasks(CampaignConfig.from_dict(cfg))
    assert _campaign_with(tmp_path, cfg) == EXIT_USAGE
    assert not os.path.exists(cfg["out_path"])


def test_cli_unwritable_out_path(tmp_path, capsys):
    # check and search ended in a FileNotFoundError traceback, exit 1
    out = str(tmp_path / "missing" / "out.jsonl")
    assert cli_entry(["check", "--name", "check_cfl", "--trials", "2", "--out", out]) == EXIT_USAGE
    assert cli_entry(["search", "--target", "petz_drop_f0", "--trials", "2",
                      "--out", out]) == EXIT_USAGE
    assert _campaign_with(tmp_path, {"checks": ["check_cfl"], "trials": 2,
                                     "out_path": out}) == EXIT_USAGE
    assert "cannot write report file" in capsys.readouterr().err


def test_cli_campaign_unwritable_summary_path(tmp_path, capsys, monkeypatch):
    # the CSV summary ended in an IsADirectoryError traceback, exit 1, and
    # then was refused only after every trial had run
    trials = []
    monkeypatch.setattr(harness_cli, "run_trial", lambda *args: trials.append(args))
    out = str(tmp_path / "rep")
    os.mkdir(out + ".csv")
    assert cli_entry(["campaign", "--jobs", "1", "--out", out]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "cannot write summary file" in err and repr(out + ".csv") in err
    assert trials == []


def test_cli_function_with_extra_parameters(tmp_path, capsys):
    # exp:2 ran exp and exited 0
    assert cli_entry(["check", "--name", "check_cfl", "--function", "exp:2",
                      "--trials", "2"]) == EXIT_USAGE
    assert "'exp' takes 0 parameter(s), got 1" in capsys.readouterr().err
    cfg = {"checks": ["check_cfl"], "trials": 2, "functions": ["exp:2"],
           "out_path": str(tmp_path / "out.jsonl")}
    assert _campaign_with(tmp_path, cfg) == EXIT_USAGE
    assert not os.path.exists(cfg["out_path"])


def _campaign_with(tmp_path, cfg) -> int:
    cfg_path = str(tmp_path / "cfg.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    return cli_entry(["campaign", "--config", cfg_path, "--jobs", "1"])


def test_cli_campaign_non_finite_tolerance(tmp_path):
    out = str(tmp_path / "out.jsonl")
    cfg = {"checks": ["check_cfl"], "trials": 2, "out_path": out,
           "tolerances": {"atol": float("nan")}}
    assert _campaign_with(tmp_path, cfg) == EXIT_USAGE
    assert not os.path.exists(out)


def test_cli_campaign_config_not_an_object(tmp_path):
    with pytest.raises(UsageError):
        CampaignConfig.from_dict([{"checks": ["check_cfl"]}])
    assert _campaign_with(tmp_path, [{"checks": ["check_cfl"]}]) == EXIT_USAGE


def test_cli_campaign_tolerances_not_an_object(tmp_path):
    cfg = {"checks": ["check_cfl"], "trials": 2, "tolerances": [1e-9, 1e-9, 1e-10]}
    with pytest.raises(UsageError):
        CampaignConfig.from_dict(cfg)
    assert _campaign_with(tmp_path, cfg) == EXIT_USAGE


@pytest.mark.parametrize("field, value", [
    ("trials", 2.7),
    ("trials", True),
    ("master_seed", 1.9),
    ("dims", [[2, 3, 9]]),
    ("weights", [[1.0, 1.0, 2.0]]),
    ("trials", "3"),
    ("master_seed", "7"),
    ("dims", [["2", "3"]]),
    ("weights", [["0.5", "2"]]),
    ("tolerances", {"atol": "1e-3"}),
])
def test_cli_campaign_rejects_malformed_numbers(tmp_path, field, value):
    # each was truncated: to 2 trials, 1 trial, seed 1, dims (2, 3), weights (1, 1);
    # the JSON strings were read as the numbers they spell
    cfg = {"checks": ["check_cfl"], "trials": 2, "dims": [[2, 2]], "functions": ["square"],
           "out_path": str(tmp_path / "out.jsonl"), field: value}
    with pytest.raises(UsageError):
        CampaignConfig.from_dict(cfg)
    assert _campaign_with(tmp_path, cfg) == EXIT_USAGE
    assert not os.path.exists(cfg["out_path"])


@pytest.mark.parametrize("value", [None, ["a", "b"]], ids=["null", "list"])
def test_cli_campaign_out_path_must_be_a_string(tmp_path, capsys, monkeypatch, value):
    # null wrote files named None and None.csv, a list one named "['a', 'b']"
    monkeypatch.chdir(tmp_path)
    assert _campaign_with(tmp_path, {"checks": ["check_cfl"], "trials": 2,
                                     "out_path": value}) == EXIT_USAGE
    assert "'out_path'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["cfg.json"]


@pytest.mark.parametrize("cfg, key", [
    ({"checks": ["check_cfl"], "trails": 5}, "'trails'"),
    ({"checks": ["check_cfl"], "trials": 5, "tolerances": {"atl": 1.0}}, "'atl'"),
])
def test_cli_campaign_rejects_unknown_keys(tmp_path, capsys, cfg, key):
    # a misspelt key was ignored: 100 trials at atol 1e-9 ran without error
    cfg = dict(cfg, out_path=str(tmp_path / "out.jsonl"))
    with pytest.raises(UsageError, match=key):
        CampaignConfig.from_dict(cfg)
    assert _campaign_with(tmp_path, cfg) == EXIT_USAGE
    assert key in capsys.readouterr().err
    assert not os.path.exists(cfg["out_path"])


def test_python_dash_m_runs_the_cli(tmp_path):
    out = str(tmp_path / "out.jsonl")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("OPJENSEN_SEED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "opjensen", "check", "--name", "check_cfl", "--trials", "3",
         "--out", out],
        capture_output=True, text=True, env=env, cwd=str(tmp_path), timeout=120,
    )
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""
    assert len(open(out).read().splitlines()) == 3
    bad = subprocess.run([sys.executable, "-m", "opjensen", "bogus"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert bad.returncode == EXIT_USAGE


def test_cli_check_branch_needing_f0(capsys):
    rc = cli_entry(["check", "--name", "check_main_tracial", "--function", "exp",
                    "--branch", "subnormalized", "--trials", "2"])
    assert rc == EXIT_USAGE


def test_cli_search_zero_trials(capsys):
    assert cli_entry(["search", "--target", "petz_drop_f0", "--trials", "0"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_cli_search_empty_dims(capsys):
    # an empty list was replaced by [2, 3] and the search exited 0
    rc = cli_entry(["search", "--target", "petz_drop_f0", "--trials", "2", "--seed", "1",
                    "--dims", ","])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().out == ""


def _witness_record(tmp_path, capsys) -> dict:
    wpath = str(tmp_path / "w.jsonl")
    assert cli_entry(["search", "--target", "petz_drop_f0", "--trials", "2",
                      "--seed", "3", "--out", wpath]) == EXIT_OK
    capsys.readouterr()
    return json.loads(open(wpath).read().splitlines()[0])


def _write(tmp_path, rec: dict) -> str:
    path = str(tmp_path / "edited.jsonl")
    with open(path, "w") as fh:
        fh.write(json.dumps(rec) + "\n")
    return path


def test_cli_replay_unknown_check(tmp_path, capsys):
    rec = _witness_record(tmp_path, capsys)
    rec["check_name"] = "check_bogus"
    assert cli_entry(["replay", "--witness", _write(tmp_path, rec)]) == EXIT_USAGE
    assert "check_bogus" in capsys.readouterr().err


def test_cli_replay_missing_input(tmp_path, capsys):
    rec = _witness_record(tmp_path, capsys)
    del rec["witness"]["inputs"]["map"]
    assert cli_entry(["replay", "--witness", _write(tmp_path, rec)]) == EXIT_USAGE
    assert "map" in capsys.readouterr().err


def test_cli_replay_malformed_values(tmp_path, capsys):
    # three-number entries replayed as "reproduced"; a string flag read as true
    rec = _witness_record(tmp_path, capsys)
    x = rec["witness"]["inputs"]["x"]
    rec["witness"]["inputs"]["x"] = [[z + [5.0] for z in row] for row in x]
    assert cli_entry(["replay", "--witness", _write(tmp_path, rec)]) == EXIT_USAGE
    assert "[re, im] pairs" in capsys.readouterr().err
    rec["witness"]["inputs"]["x"] = x
    rec["witness"]["inputs"]["enforce_hypotheses"] = "false"
    assert cli_entry(["replay", "--witness", _write(tmp_path, rec)]) == EXIT_USAGE
    assert "enforce_hypotheses" in capsys.readouterr().err


def _fixture_record(check_name: str) -> dict:
    fixture = os.path.join(os.path.dirname(__file__), "data", "witnesses.jsonl")
    with open(fixture) as fh:
        return next(r for r in map(json.loads, fh) if r["check_name"] == check_name)


def _edited_fixture_record(check_name: str, path: tuple[str, ...], value) -> dict:
    """The fixture witness of a check with the input at `path` set to value."""
    rec = _fixture_record(check_name)
    target = rec["witness"]["inputs"]
    for name in path[:-1]:
        target = target[name]
    target[path[-1]] = value
    return rec


@pytest.mark.parametrize("params", [["1"], [True], [float("nan")], [float("inf")]],
                         ids=["string", "bool", "nan", "infinity"])
def test_cli_replay_refuses_function_parameters_that_are_not_finite_numbers(
        tmp_path, capsys, params):
    # "1" and true replayed as 1.0 and reported "reproduced"; NaN and
    # Infinity ended as numeric errors (exit 3)
    rec = _fixture_record("check_petz")
    assert rec["witness"]["inputs"]["function"] == {"name": "shifted_square", "params": [1.0]}
    rec["witness"]["inputs"]["function"]["params"] = params
    assert cli_entry(["replay", "--witness", _write(tmp_path, rec)]) == EXIT_USAGE
    assert "parameters must be finite real numbers" in capsys.readouterr().err


@pytest.mark.parametrize("check, path, value", [
    ("check_petz", ("map", "in_dim"), 2.5),
    ("check_petz", ("map", "out_dim"), "2"),
    ("check_cfl", ("d1",), 2.5),
    ("check_cfl", ("d2",), "2"),
    ("check_petz", ("algebra", "block_dims"), [2.5]),
    ("check_petz", ("algebra", "trace_weights"), [True]),
    ("check_partial_trace_duality", ("w1",), True),
    ("check_main_tracial", ("w2",), "1.0"),
    ("check_spectral_preorder_lemma", ("map", "claimed_positive"), "false"),
    ("check_spectral_preorder_lemma", ("piece", "lo_open"), "false"),
    ("check_petz", ("tol",), [True, 1e-9, 1e-10]),
])
def test_cli_replay_refuses_witness_fields_of_the_wrong_json_type(
        tmp_path, capsys, check, path, value):
    # int() truncated 2.5 and "2" and the witness replayed as "reproduced";
    # the string "false" read as a positive map and as an open endpoint, and
    # true as atol 1.0
    rec = _edited_fixture_record(check, path, value)
    assert cli_entry(["replay", "--witness", _write(tmp_path, rec)]) == EXIT_USAGE
    assert f"{path[-1]} must be" in capsys.readouterr().err


@pytest.mark.parametrize("check, path", [
    ("check_petz", ("map", "in_dim")), ("check_vector_jensen", ("map", "out_dim")),
    ("check_cfl", ("d1",)), ("check_pinching_chain", ("algebra", "block_dims")),
])
def test_cli_replay_reads_an_integral_float_dimension(tmp_path, capsys, check, path):
    # a map dimension of 2.0 crashed replay with a TypeError traceback, exit 1
    rec = _edited_fixture_record(check, path, [2.0] if path[-1] == "block_dims" else 2.0)
    assert cli_entry(["replay", "--witness", _write(tmp_path, rec)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["reproduced"] is True


def _replayed(tmp_path, capsys, rec: dict) -> tuple[int, dict]:
    """The exit code and printed line of `opjensen replay` on one record."""
    rc = cli_entry(["replay", "--witness", _write(tmp_path, rec)])
    return rc, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("check", list(CHECKS))
def test_cli_replay_prints_the_replayed_and_recorded_verdicts(tmp_path, capsys, check):
    rc, out = _replayed(tmp_path, capsys, _fixture_record(check))
    assert rc == EXIT_OK
    assert (out["pass"], out["recorded_pass"], out["reproduced"]) == (False, False, True)


@pytest.mark.parametrize("tol, replayed_pass", [
    ([1e3, 0, 1e-10], True), ([2e-9, 1e-9, 1e-10], False),
], ids=["flips_the_verdict", "keeps_the_verdict"])
def test_cli_replay_refuses_a_witness_whose_tolerance_was_edited(
        tmp_path, capsys, tol, replayed_pass):
    # the gap of -2 reproduced, so both printed "reproduced": true and exited 0,
    # the first though tol 1e3 turns the recorded FAIL into a PASS
    rc, out = _replayed(tmp_path, capsys, _edited_fixture_record("check_petz", ("tol",), tol))
    assert rc == EXIT_VIOLATION
    assert (out["gap"], out["recorded_gap"]) == (-2.0, -2.0)
    assert (out["pass"], out["recorded_pass"], out["reproduced"]) == (
        replayed_pass, False, False)


@pytest.mark.parametrize("check, failed", [
    ("check_pinching_chain", ["preorder_negative_parts", "trace_inequality"]),
    ("check_spectral_preorder_lemma", ["compressed_positivity", "preorder_nonpositive_piece"]),
], ids=["pinching_chain", "preorder_lemma"])
def test_cli_replay_refuses_other_failed_assertions_of_the_same_count(
        tmp_path, capsys, check, failed):
    # the gap is minus the number of failed assertions, so it reproduced
    rec = _fixture_record(check)
    assert len(rec["params"]["failed"]) == 2 and rec["params"]["failed"] != failed
    rec["params"]["failed"] = failed
    rc, out = _replayed(tmp_path, capsys, rec)
    assert rc == EXIT_VIOLATION
    assert (out["gap"], out["recorded_gap"], out["reproduced"]) == (-2.0, -2.0, False)


def test_cli_replay_refuses_a_branch_that_is_not_a_json_string(tmp_path, capsys):
    # 1 ended in a ValueError traceback from check_main_tracial, exit 1
    rec = _edited_fixture_record("check_main_tracial", ("branch",), 1)
    assert cli_entry(["replay", "--witness", _write(tmp_path, rec)]) == EXIT_USAGE
    assert "'branch' must be a JSON string" in capsys.readouterr().err


def test_cli_replay_refuses_an_unknown_branch(tmp_path, capsys):
    # "bogus" ended in a ValueError traceback from check_main_tracial, exit 1
    rec = _edited_fixture_record("check_main_tracial", ("branch",), "bogus")
    assert cli_entry(["replay", "--witness", _write(tmp_path, rec)]) == EXIT_USAGE
    assert "unknown branch 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("check, path, value", [
    ("check_partial_trace_duality", ("w1",), -2),
    ("check_main_tracial", ("w1",), -1),
    ("check_main_tracial", ("w1",), 0),
    ("check_partial_trace_duality", ("w2",), math.inf),
    ("check_petz", ("algebra", "trace_weights"), [math.nan]),
], ids=["duality_w1_negative", "main_tracial_w1_negative", "main_tracial_w1_zero",
        "duality_w2_infinite", "petz_algebra_weight_nan"])
def test_cli_replay_refuses_trace_weights_that_are_not_positive_and_finite(
        tmp_path, capsys, check, path, value):
    # duality replayed w1 -2 as "reproduced", exit 0; main tracial exited 1 at
    # w1 -1 and 0; duality computed NaN sides at w2 Infinity, exit 1; Petz
    # exited 3 on a NaN algebra weight
    rec = _edited_fixture_record(check, path, value)
    assert cli_entry(["replay", "--witness", _write(tmp_path, rec)]) == EXIT_USAGE
    assert "trace weights must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("check", [
    "check_main_tracial", "check_state_version", "check_hansen_pedersen",
    "check_partial_trace_duality"])
def test_cli_replay_refuses_an_a_that_does_not_act_on_the_first_factor(tmp_path, capsys, check):
    # each fixture has d1 = 2; a 3 x 3 or a 2 x 3 a is a dimension error, exit 2
    # (Hansen-Pedersen read a 2 x 3 a before checking it: a ValueError traceback, exit 1)
    for rows in (3, 2):
        rec = _edited_fixture_record(check, ("a",), [[[0.1, 0.0]] * 3] * rows)
        assert cli_entry(["replay", "--witness", _write(tmp_path, rec)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"a has shape ({rows}, 3), expected (2, 2) on factor 1" in err and len(err) < 200


@pytest.mark.parametrize("check", ["check_cfl", "check_main_tracial"])
def test_cli_replay_refuses_an_h_that_does_not_act_on_the_space(tmp_path, capsys, check):
    # the unit density of d2 = 1e300 was built before H's shape was checked:
    # "Maximum allowed dimension exceeded", a ValueError traceback, exit 1.
    # Written as a JSON integer: the float 1e300 is no longer read as one.
    rec = _edited_fixture_record(check, ("d2",), 10 ** 300)
    assert cli_entry(["replay", "--witness", _write(tmp_path, rec)]) == EXIT_USAGE
    assert "d2 must be from 1 to 64, got an integer of 301 digits" in capsys.readouterr().err


@pytest.mark.parametrize("check, path, value", [
    ("check_cfl", ("d1",), 65), ("check_main_tracial", ("d2",), 10 ** 300),
    ("check_partial_trace_duality", ("d2",), 10 ** 300),
    ("check_hansen_pedersen", ("d2",), 10 ** 300), ("check_state_version", ("d1",), 10 ** 300),
    ("check_petz", ("map", "in_dim"), 10 ** 300), ("check_petz", ("map", "out_dim"), 65),
    ("check_petz", ("algebra", "block_dims"), [10 ** 300]),
], ids=["cfl_d1", "main_tracial_d2", "duality_d2", "hansen_pedersen_d2", "state_d1",
        "petz_in_dim", "petz_out_dim", "petz_block_dims"])
def test_cli_replay_refuses_a_dimension_above_the_bound_in_a_short_message(
        tmp_path, capsys, check, path, value):
    # without a bound these exited 2 too, but printed every digit of 10**300
    # (345 to 352 characters)
    rec = _edited_fixture_record(check, path, value)
    assert cli_entry(["replay", "--witness", _write(tmp_path, rec)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{path[-1]} must be from 1 to 64, got" in err and len(err) < 200


def test_campaign_trials_and_dims_are_bounded_before_any_task_is_built(tmp_path):
    most_trials, most_dim = harness_cli.MAX_TRIALS, tensor_ops.MAX_DIM  # read before any build
    assert most_trials >= 5000 and most_dim >= 4  # acceptance 01, the largest campaign dims
    for trials in (most_trials + 1, 10 ** 300):
        with pytest.raises(UsageError) as err:
            build_tasks(small_config(tmp_path, trials=trials))
        assert f"trials must be from 1 to {most_trials}, got" in str(err.value)
        assert len(str(err.value)) < 200
    for dims in ([[2, most_dim + 1]], [[10 ** 300, 2]]):
        with pytest.raises(DimensionError) as err:
            expand_cells(small_config(tmp_path, dims=dims), "check_cfl")
        assert f"must be from 1 to {most_dim}, got" in str(err.value)
        assert len(str(err.value)) < 200


@pytest.mark.parametrize("argv", [
    ["check", "--name", "check_cfl", "--trials", str(10 ** 300)],
    ["check", "--name", "check_cfl", "--d2", str(10 ** 300)],
    ["search", "--target", "petz_drop_f0", "--trials", str(10 ** 300)],
    ["search", "--target", "petz_drop_f0", "--dims", f"2,{10 ** 300}"],
], ids=["check_trials", "check_d2", "search_trials", "search_dims"])
def test_cli_refuses_counts_above_the_bounds_before_any_trial(capsys, argv):
    # read the bounds first: without them the flags would start a run of that size
    assert harness_cli.MAX_TRIALS and tensor_ops.MAX_DIM
    assert cli_entry(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "must be from 1 to" in err and len(err) < 200


def test_cli_replay_refuses_a_huge_float_dimension_in_a_short_message(tmp_path, capsys):
    # 1e300 read as the integer 10**300, and the refusal printed all its digits
    rec = _edited_fixture_record("check_cfl", ("d2",), 1e300)
    assert cli_entry(["replay", "--witness", _write(tmp_path, rec)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "d2 must be an integer, got 1e+300" in err and len(err) < 200


_MATRIX_ENTRY = "must be a vector or matrix of [re, im] pairs of numbers, got the entry"


@pytest.mark.parametrize("check, path", [
    ("check_cfl", ("H", 0, 0, 0)), ("check_cfl", ("rho", 1, 1, 0)),
    ("check_petz", ("map", "kraus", 0, 0, 0, 0)), ("check_vector_jensen", ("xi", 0, 1)),
], ids=["H", "rho", "kraus", "xi"])
def test_cli_replay_refuses_a_matrix_entry_written_as_a_json_string(tmp_path, capsys, check, path):
    # numpy parsed the string as the number it spells: "reproduced": true, exit 0
    entry = _fixture_record(check)["witness"]["inputs"]
    for key in path:
        entry = entry[key]
    rec = _edited_fixture_record(check, path, str(entry))
    assert cli_entry(["replay", "--witness", _write(tmp_path, rec)]) == EXIT_USAGE
    key = next(k for k in path if k != "map")
    assert f"{key} {_MATRIX_ENTRY} {str(entry)!r}" in capsys.readouterr().err


@pytest.mark.parametrize("check, path, pair", [
    ("check_cfl", ("H", 0, 0), [True, 0]),
    ("check_petz", ("map", "kraus", 0, 1, 1), [False, 0.0]),
    ("check_spectral_preorder_lemma", ("map", "action", 0, 0), [True, 0.0]),
], ids=["H", "kraus", "action"])
def test_cli_replay_refuses_a_matrix_entry_written_as_a_json_boolean(
        tmp_path, capsys, check, path, pair):
    # true read as 1.0: the CFL line replayed another matrix, a PASS, exit 1;
    # the other two replayed the recorded matrix, "reproduced": true, exit 0
    rec = _edited_fixture_record(check, path, pair)
    assert cli_entry(["replay", "--witness", _write(tmp_path, rec)]) == EXIT_USAGE
    key = next(k for k in path if k != "map")
    assert f"{key} {_MATRIX_ENTRY} {pair[0]!r}" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("check", ["check_main_tracial", "check_state_version"])
def test_cli_replay_an_overflowing_function_is_a_numeric_error(tmp_path, capsys, check):
    # exp of an eigenvalue near 1e300 ended in an OverflowError traceback, exit 1
    rec = _fixture_record(check)
    assert rec["witness"]["inputs"]["function"]["name"] == "exp"
    rec["witness"]["inputs"]["H"][0][0] = [1e300, 0.0]
    assert cli_entry(["replay", "--witness", _write(tmp_path, rec)]) == EXIT_NUMERIC
    assert "overflows a float" in capsys.readouterr().err


def test_cli_replay_vector_jensen_with_a_mean_outside_the_domain_is_a_usage_error(
        tmp_path, capsys):
    # the fixture's zero map gives the mean 0; -log(0) was a ValueError
    # traceback, exit 1, the code of a violation
    rec = _edited_fixture_record("check_vector_jensen", ("function",),
                                 {"name": "neglog", "params": []})
    assert cli_entry(["replay", "--witness", _write(tmp_path, rec)]) == EXIT_USAGE
    assert "outside the domain (0.0, inf) of function 'neglog'" in capsys.readouterr().err


@pytest.mark.parametrize("width", [0, 1e-13])
def test_a_cluster_width_below_1e_12_is_a_usage_error(tmp_path, capsys, width):
    # both were accepted; at 0 a default-campaign pre-order lemma trial
    # resampled 64 times and ended as a numeric error
    with pytest.raises(UsageError, match="eig_cluster_tol must be at least 1e-12"):
        CampaignConfig.from_dict({"checks": ["check_cfl"],
                                  "tolerances": {"eig_cluster_tol": width}})
    rec = _edited_fixture_record("check_petz", ("tol",), [1e-9, 1e-9, width])
    assert cli_entry(["replay", "--witness", _write(tmp_path, rec)]) == EXIT_USAGE
    assert "eig_cluster_tol must be at least 1e-12" in capsys.readouterr().err


def test_cli_replay_refuses_a_recorded_pass_that_is_not_a_json_boolean(tmp_path, capsys):
    # bool("false") is true, so the recorded FAIL read as a PASS
    rec = dict(_fixture_record("check_petz"), **{"pass": "false"})
    assert cli_entry(["replay", "--witness", _write(tmp_path, rec)]) == EXIT_USAGE
    assert "pass must be a JSON boolean" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("checks", "check_cfl"), ("functions", "square"), ("map_kinds", "zero"),
    ("checks", {"check_cfl": 1}), ("functions", ["square", 2]),
])
def test_config_list_keys_must_be_json_lists_of_strings(key, value):
    # a bare string used to be read as its characters: unknown check 'c'
    with pytest.raises(UsageError, match=f"'{key}' must be a JSON list"):
        CampaignConfig.from_dict({"checks": ["check_cfl"], key: value})


@pytest.mark.parametrize("key", ["trials", "master_seed"])
def test_config_refuses_a_huge_float_as_an_integer(key):
    # 1e300 read as the integer 10**300, a campaign of that many trials
    with pytest.raises(UsageError, match=f"{key} must be an integer, got 1e\\+300"):
        CampaignConfig.from_dict({"checks": ["check_cfl"], key: 1e300})


def test_cli_config_with_string_checks_exits_usage(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"checks": "check_cfl"}))
    assert cli_entry(["campaign", "--config", str(path)]) == EXIT_USAGE
    assert "'checks'" in capsys.readouterr().err
