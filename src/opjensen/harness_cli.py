"""Campaign runner and command-line interface.

Subcommands:
  campaign --config cfg.json [--jobs N] [--out PATH]
  check    --name NAME --d1 2 --d2 2 --function square --seed 7 --trials 100 ...
  search   --target petz_drop_f0 --trials 10 --seed 1 [--dims 2,3] [--out PATH]
  replay   --witness reports.jsonl

Check names, and the config axes each check sweeps, come from the check
registry `jensen_checks.CHECKS`.

Exit codes: 0 all pass, 1 inequality violation in a non-ablation check,
2 usage/config error, 3 numeric error. The OPJENSEN_SEED environment
variable overrides the master seed when set.

Reports are JSON Lines (one report per trial, ordered by trial index,
byte-identical for identical config and seed) plus a CSV summary per
parameter cell.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .convex_catalog import ScalarFunction, parse_function_spec
from .errors import (
    NumericError,
    OpJensenError,
    UnknownFunctionError,
    UsageError,
)
from .jensen_checks import (
    BRANCHES,
    CHECKS,
    ablation_search,
    lookup_check,
    replay_report,
    run_trial,
)
from .linalg_core import ToleranceConfig
from .positive_maps import MAP_KINDS
from .reporting import JSON_SHAPES, CheckReport, read_json
from .tensor_ops import require_trace_weights

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

_SEED_ENV = "OPJENSEN_SEED"


@dataclass
class CampaignConfig:
    checks: list[str]
    trials: int = 100
    dims: list[tuple[int, int]] = field(default_factory=lambda: [(2, 2), (2, 3), (3, 2)])
    functions: list[str] = field(default_factory=lambda: ["square", "abs", "hinge:0"])
    map_kinds: list[str] = field(default_factory=lambda: list(MAP_KINDS))
    weights: list[tuple[float, float]] = field(default_factory=lambda: [(1.0, 1.0)])
    master_seed: int = 0
    tolerances: ToleranceConfig = field(default_factory=ToleranceConfig)
    out_path: str = "campaign_reports.jsonl"

    @classmethod
    def from_dict(cls, obj: dict) -> "CampaignConfig":
        """The config a JSON object describes; a key it leaves out keeps the
        dataclass default."""
        try:
            values = read_json(obj, JSON_SHAPES["config"], "the top level", closed=True)
            if "tolerances" in values:
                values["tolerances"] = ToleranceConfig(**values["tolerances"])
            return cls(**values)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"malformed campaign config: {exc}") from exc

    @classmethod
    def from_file(cls, path: str) -> "CampaignConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read campaign config {path!r}: {exc}") from exc
        return cls.from_dict(obj)


def default_campaign(master_seed: int = 12345, out_path: str = "campaign_reports.jsonl") -> CampaignConfig:
    """The built-in smoke campaign: every check over small dims."""
    return CampaignConfig(
        checks=list(CHECKS),
        trials=40,
        dims=[(2, 2), (2, 3), (3, 2)],
        functions=[
            "square", "abs", "quartic", "exp", "hinge:0",
            "shifted_square:-1", "power:1.5", "inv",
        ],
        map_kinds=list(MAP_KINDS),
        weights=[(1.0, 1.0), (0.3, 2.5)],
        master_seed=master_seed,
        out_path=out_path,
    )


# ---------------------------------------------------------------------------
# Cell expansion
# ---------------------------------------------------------------------------

def _parse_functions(specs: list[str]) -> list[ScalarFunction]:
    try:
        return [parse_function_spec(s) for s in specs]
    except UnknownFunctionError as exc:
        raise UsageError(str(exc)) from exc


def expand_cells(config: CampaignConfig, check_name: str) -> list[dict]:
    """All valid parameter cells for one check, in deterministic order.

    Every listed function, map kind and weight pair is validated, whether or
    not the check sweeps its axis. The cross-product runs over the axes the
    check consumes; cells whose (function, map kind, branch) combination
    violates the check's hypotheses are filtered out.
    """
    spec = lookup_check(check_name)
    axes = spec.axes
    functions = _parse_functions(config.functions)
    dims = config.dims or []
    if not dims:
        raise UsageError("config needs at least one (d1, d2) entry in dims")
    for d1, d2 in dims:
        if d1 < 1 or d2 < 1:
            raise UsageError(f"invalid dims ({d1}, {d2})")
    for k in config.map_kinds:
        if k not in MAP_KINDS:
            raise UsageError(f"unknown map kind {k!r}; valid kinds: {', '.join(MAP_KINDS)}")
    for w in config.weights:
        require_trace_weights(*w)
    functions = functions if "functions" in axes else [None]
    kinds = list(config.map_kinds) if "map_kinds" in axes else [None]
    weights = list(config.weights) if "weights" in axes else [(1.0, 1.0)]
    branches = BRANCHES if "branches" in axes else (None,)
    # The hypotheses a cell fixes read only its function, map kind and branch.
    keep = {(i, kind, branch)
            for (i, f), kind, branch in itertools.product(enumerate(functions), kinds, branches)
            if spec.compatible({"function": f, "map_kind": kind, "branch": branch})}
    cells = []
    for (d1, d2), (i, f), kind, (w1, w2), branch in itertools.product(
            dims, enumerate(functions), kinds, weights, branches):
        if (i, kind, branch) not in keep:
            continue
        cell = {"d1": d1, "d2": d2, "w1": w1, "w2": w2}
        if f is not None:
            cell["function"] = f
        if kind is not None:
            cell["map_kind"] = kind
        if branch is not None:
            cell["branch"] = branch
        cells.append(cell)
    if not cells:
        raise UsageError(
            f"{check_name}: no valid parameter cells after hypothesis filtering; "
            f"check the configured functions/map kinds"
        )
    return cells


def _cell_key(check_name: str, cell: dict) -> tuple:
    f = cell.get("function")
    return (
        check_name,
        cell.get("d1", ""),
        cell.get("d2", ""),
        (f.label if f is not None else "") + ("/" + cell["branch"] if "branch" in cell else ""),
        cell.get("map_kind", ""),
    )


def build_tasks(config: CampaignConfig) -> list[tuple]:
    """Deterministic, globally indexed task list for the whole campaign."""
    if not config.checks:
        raise UsageError("config lists no checks to run")
    if config.trials < 1:
        raise UsageError("trials must be >= 1")
    tasks = []
    index = 0
    for check_name in config.checks:
        cells = expand_cells(config, check_name)
        for t in range(config.trials):
            cell = cells[t % len(cells)]
            tasks.append((check_name, cell, index))
            index += 1
    return tasks


def _run_task(task: tuple, master_seed: int, tol: ToleranceConfig) -> tuple[str, bool, float, int]:
    """One task's trial as (JSON line, passed, gap, resamples), at jobs=1 and
    in pool workers alike (a task pickles as it is; its function goes by
    catalog key)."""
    check_name, cell, index = task
    report = run_trial(check_name, cell, master_seed, index, tol)
    return report.to_json_line(), bool(report.passed), float(report.gap), report.params["resampled"]


@contextlib.contextmanager
def _output(path: str, what: str, mode: str = "w"):
    """An output file open for writing; failing to open or write it is a
    usage error that names the path."""
    try:
        with open(path, mode, encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise UsageError(f"cannot write {what} file {path!r}: {exc}") from exc


def _write_lines(path: str, lines: list[str]) -> None:
    """Write JSON lines to a report file."""
    with _output(path, "report") as fh:
        for line in lines:
            fh.write(line + "\n")


def _csv_path_for(out_path: str) -> str:
    root, ext = os.path.splitext(out_path)
    return (root if ext == ".jsonl" else out_path) + ".csv"


def _write_summary_csv(path: str, tasks: list[tuple], results: list[tuple]) -> None:
    stats: dict[tuple, dict] = {}
    order: list[tuple] = []
    for (check_name, cell, index), (_, passed, gap, _) in zip(tasks, results):
        key = _cell_key(check_name, cell)
        if key not in stats:
            stats[key] = {"trials": 0, "failures": 0, "gaps": []}
            order.append(key)
        st = stats[key]
        st["trials"] += 1
        st["failures"] += 0 if passed else 1
        st["gaps"].append(gap)
    with _output(path, "summary") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "check", "d1", "d2", "function", "map_kind",
            "trials", "failures", "min_gap", "max_gap", "mean_gap",
        ])
        for key in order:
            st = stats[key]
            gaps = st["gaps"]
            writer.writerow([
                *key, st["trials"], st["failures"],
                repr(min(gaps)), repr(max(gaps)), repr(sum(gaps) / len(gaps)),
            ])


def run_campaign(config: CampaignConfig, jobs: int | None = None) -> dict:
    """Execute a campaign and write the JSONL report plus the CSV summary.

    Each trial's randomness is keyed by (master_seed, global trial index), so
    the output is byte-identical for identical (config, seed) regardless of
    how many workers execute it. `jobs=None` uses every CPU this process may
    run on; fewer than one worker, or a negative master seed, is a usage error.
    """
    if jobs is None:
        getaffinity = getattr(os, "sched_getaffinity", None)
        jobs = len(getaffinity(0)) if getaffinity else os.cpu_count() or 1
    elif jobs < 1:
        raise UsageError(f"jobs must be >= 1, got {jobs}")
    if config.master_seed < 0:
        raise UsageError(f"master_seed must be a non-negative integer, got {config.master_seed}")
    tasks = build_tasks(config)
    csv_path = _csv_path_for(config.out_path)
    # Opening both outputs now, in append mode so nothing is truncated yet,
    # refuses an unwritable path before any trial runs.
    for path, what in ((config.out_path, "report"), (csv_path, "summary")):
        with _output(path, what, mode="a"):
            pass
    run = functools.partial(_run_task, master_seed=config.master_seed, tol=config.tolerances)
    # A fork pool starts every worker at once, so never more than there are tasks.
    workers = min(jobs, len(tasks))
    if workers > 1:
        chunk = max(1, len(tasks) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, tasks, chunksize=chunk))
    else:
        results = [run(t) for t in tasks]
    _write_lines(config.out_path, [line for line, *_ in results])
    _write_summary_csv(csv_path, tasks, results)
    passed = sum(1 for _, ok, _, _ in results if ok)
    return {
        "total": len(results),
        "passed": passed,
        "failed": len(results) - passed,
        "resampled": sum(resamples for *_, resamples in results),
        "max_negative_gap": min(gap for _, _, gap, _ in results),
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opjensen",
        description="Numerical verification campaigns for trace Jensen inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_campaign = sub.add_parser("campaign", help="run a configured campaign")
    p_campaign.add_argument("--config", help="JSON campaign config (default: built-in smoke campaign)")
    p_campaign.add_argument("--jobs", type=int, default=None, help="parallel workers")
    p_campaign.add_argument("--out", help="override the report output path")

    p_check = sub.add_parser("check", help="run one check as a mini campaign")
    p_check.add_argument("--name", required=True)
    p_check.add_argument("--d1", type=int, default=2)
    p_check.add_argument("--d2", type=int, default=2)
    p_check.add_argument("--function", default="square", help="catalog name, e.g. hinge:0")
    p_check.add_argument("--map", default="ucp_stinespring", dest="map_kind")
    p_check.add_argument("--w1", type=float, default=1.0)
    p_check.add_argument("--w2", type=float, default=1.0)
    p_check.add_argument("--branch", default=BRANCHES[0], choices=BRANCHES)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--trials", type=int, default=100)
    p_check.add_argument("--tol", type=float, default=1e-9)
    p_check.add_argument("--out", help="write the trial reports to this JSONL path")

    p_search = sub.add_parser("search", help="hypothesis-ablation search")
    p_search.add_argument("--target", required=True)
    p_search.add_argument("--trials", type=int, default=10)
    p_search.add_argument("--seed", type=int, default=0)
    p_search.add_argument("--dims", default="2,3", help="comma-separated dims")
    p_search.add_argument("--out", help="write the worst-gap witness report to this path")

    p_replay = sub.add_parser("replay", help="re-run a serialized failure witness")
    p_replay.add_argument("--witness", required=True, help="report file (JSON or JSONL)")
    return parser


def _env_seed(default: int, source: str) -> int:
    """OPJENSEN_SEED when set, else `default`, which `source` names in errors.
    Seeds key numpy SeedSequences, so a negative one is a usage error."""
    raw = os.environ.get(_SEED_ENV)
    if raw is None:
        seed = default
    else:
        source = _SEED_ENV
        try:
            seed = int(raw)
        except ValueError as exc:
            raise UsageError(f"{_SEED_ENV} must be an integer, got {raw!r}") from exc
    if seed < 0:
        raise UsageError(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _cmd_campaign(args) -> int:
    config = CampaignConfig.from_file(args.config) if args.config else default_campaign()
    config.master_seed = _env_seed(config.master_seed, "master_seed")
    if args.out:
        config.out_path = args.out
    summary = run_campaign(config, jobs=args.jobs)
    print(json.dumps(summary, sort_keys=True))
    print(f"reports: {config.out_path}")
    print(f"summary: {_csv_path_for(config.out_path)}")
    return EXIT_OK if summary["failed"] == 0 else EXIT_VIOLATION


def _cmd_check(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    seed = _env_seed(args.seed, "--seed")
    try:
        tol = ToleranceConfig(atol=args.tol, rtol=args.tol)
    except ValueError as exc:
        raise UsageError(f"--tol: {exc}") from exc
    # The flags are one value per campaign axis, validated like a config.
    config = CampaignConfig(
        checks=[args.name], trials=args.trials, dims=[(args.d1, args.d2)],
        functions=[args.function], map_kinds=[args.map_kind],
        weights=[(args.w1, args.w2)],
    )
    cells = [c for c in expand_cells(config, args.name)
             if c.get("branch", args.branch) == args.branch]
    if not cells:
        raise UsageError(
            f"{args.name} with function {args.function!r} on the {args.branch} branch "
            f"violates the check's hypotheses"
        )
    reports = [run_trial(args.name, cells[0], seed, t, tol) for t in range(args.trials)]
    failed = [r for r in reports if not r.passed]
    if args.out:
        _write_lines(args.out, [r.to_json_line() for r in reports])
    gaps = [r.gap for r in reports]
    print(json.dumps({
        "check": args.name, "trials": len(reports), "failures": len(failed),
        "min_gap": min(gaps), "max_gap": max(gaps),
    }, sort_keys=True))
    return EXIT_OK if not failed else EXIT_VIOLATION


def _cmd_search(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    try:
        dims = [int(d) for d in args.dims.split(",") if d.strip()]
    except ValueError as exc:
        raise UsageError(f"--dims must be comma-separated integers, got {args.dims!r}") from exc
    seed = _env_seed(args.seed, "--seed")
    result = ablation_search(args.target, args.trials, dims, seed)
    payload = {
        "target": result.target,
        "trials": result.trials,
        "max_violation": result.max_violation,
        "violation_found": result.found_violation,
    }
    print(json.dumps(payload, sort_keys=True))
    if result.witness is not None:
        line = result.witness.to_json_line()
        if args.out:
            _write_lines(args.out, [line])
            print(f"witness: {args.out}")
        else:
            print(line)
    return EXIT_OK


def _cmd_replay(args) -> int:
    try:
        with open(args.witness, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read witness file {args.witness!r}: {exc}") from exc
    # The whole file as one JSON report, else one report a line, read up to
    # the first that carries a witness.
    try:
        records = [json.loads(text)]
    except json.JSONDecodeError:
        records = (json.loads(ln) for ln in text.splitlines() if ln.strip())
    try:
        original = next((r for r in records if isinstance(r, dict) and r.get("witness")), None)
    except json.JSONDecodeError as exc:
        raise UsageError(f"witness file is not JSON/JSONL: {exc}") from exc
    if original is None:
        raise UsageError("no report with a witness found in the file")
    replayed = replay_report(original)
    recorded = CheckReport.from_dict(original)  # replay_report has read it already
    # The verdict, not only the numbers: the sides and gap to 1e-12 at scale 1
    # or more, tol to 1e-12 relative, pass, and an indicator check's failures.
    reproduced = all(
        abs(a - b) <= 1e-12 * max(floor, abs(a), abs(b)) for a, b, floor in (
            (replayed.lhs, recorded.lhs, 1.0), (replayed.rhs, recorded.rhs, 1.0),
            (replayed.gap, recorded.gap, 1.0), (replayed.tol, recorded.tol, 0.0))
    ) and (replayed.passed, replayed.params.get("failed")) == (
        recorded.passed, recorded.params.get("failed"))
    print(json.dumps({
        "check": replayed.check_name,
        "lhs": replayed.lhs, "rhs": replayed.rhs, "gap": replayed.gap,
        "recorded_gap": recorded.gap, "pass": replayed.passed, "recorded_pass": recorded.passed,
        "reproduced": reproduced,
    }, sort_keys=True))
    return EXIT_OK if reproduced else EXIT_VIOLATION


def cli_entry(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "search":
            return _cmd_search(args)
        if args.command == "replay":
            return _cmd_replay(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OpJensenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(cli_entry())


if __name__ == "__main__":
    main()
