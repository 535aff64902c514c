"""Print sha256 digests of fixed opjensen report outputs.

Run `python tools/report_digests.py` in two checkouts and compare the
printed lines to show that a change leaves the report bytes as they were:

  * `default_campaign(master_seed=s)` for s in 42 and 7, at jobs 1 and 2,
    the JSONL reports and the CSV summary;
  * the acceptance-01 CFL campaign axes with 225 trials, master seed 101,
    at jobs 2;
  * next to each campaign, its verdicts: the sha256 of one `P` or `F` per
    report, in report order. A change that moves report bytes on purpose
    (new rounding, say) shows with an unchanged verdicts digest that no
    trial's pass/fail flipped;
  * the ablation lines: for each of `ABLATION_TARGETS`,
    `ablation_search(target, 12, [2, 3, 4], 1)`, written as the witness's
    `to_json_line()`, or `repr(max_violation)` when there is no witness,
    joined by newlines;
  * the cells: for each check of `CHECKS`, the `_cell_key` and the weights
    of every cell `expand_cells` keeps from a config over `CELL_FUNCTIONS`,
    every map kind and the weights (1, 1) and (0.3, 2.5), one cell a line.
    It shows that the cells a campaign runs, which the check registry's
    hypotheses filter, are as they were.
  * the witness fixture: for each line of `tests/data/witnesses.jsonl`, the
    witness of its replay (its inputs decoded and encoded again by the
    check's codec rows), written with sorted keys, one line each. A change
    that moves the witness wire format shows here.

The package is imported from the `src/` directory next to this script.
LAPACK/BLAS results, and so the digests themselves, are not promised to be
identical across CPUs, only from run to run on one machine. What must hold
everywhere is that a campaign's reports do not depend on `--jobs`: when a
`default_campaign` digest at jobs=2 differs from the one at jobs=1, the tool
names that line on stderr and exits 1, after printing every line.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from opjensen.harness_cli import (  # noqa: E402
    CampaignConfig,
    _cell_key,
    _csv_path_for,
    default_campaign,
    expand_cells,
    run_campaign,
)
from opjensen.jensen_checks import (  # noqa: E402
    ABLATION_TARGETS,
    CHECKS,
    ablation_search,
    replay_report,
)
from opjensen.positive_maps import MAP_KINDS  # noqa: E402

CELL_FUNCTIONS = [
    "square", "abs", "quartic", "exp", "hinge:0", "shifted_square:-1", "shifted_square:1",
    "entropy", "inv", "neglog", "power:1.5", "power:3", "linear:2", "const:-1", "const:1",
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha256(fh.read())


def _verdicts_sha256(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        verdicts = "".join("P" if json.loads(line)["pass"] else "F" for line in fh if line.strip())
    return _sha256(verdicts.encode("ascii"))


def _campaign(label: str, config: CampaignConfig, jobs: int, out_dir: str) -> dict[str, str]:
    """Run a campaign, print its digest lines and return them by kind."""
    config.out_path = os.path.join(out_dir, "reports.jsonl")
    run_campaign(config, jobs=jobs)
    digests = {
        "jsonl": _file_sha256(config.out_path),
        "csv": _file_sha256(_csv_path_for(config.out_path)),
        "verdicts": _verdicts_sha256(config.out_path),
    }
    for kind, digest in digests.items():
        print(f"{label} jobs={jobs} {kind:<8} {digest}")
    return digests


def _cfl_campaign() -> CampaignConfig:
    return CampaignConfig(
        checks=["check_cfl"],
        trials=225,
        dims=[(d1, d2) for d1 in (2, 3, 4) for d2 in (2, 3, 4)],
        functions=["square", "abs", "quartic", "exp", "hinge:0"],
        master_seed=101,
    )


def _ablation_lines() -> str:
    lines = []
    for target in ABLATION_TARGETS:
        result = ablation_search(target, 12, [2, 3, 4], 1)
        if result.witness is not None:
            lines.append(result.witness.to_json_line())
        else:
            lines.append(repr(result.max_violation))
    return "\n".join(lines)


def _cell_lines() -> str:
    config = CampaignConfig(checks=list(CHECKS), functions=CELL_FUNCTIONS,
                            map_kinds=list(MAP_KINDS), weights=[(1.0, 1.0), (0.3, 2.5)])
    return "\n".join(f"{_cell_key(name, cell)!r} {cell['w1']!r} {cell['w2']!r}"
                     for name in CHECKS for cell in expand_cells(config, name))


def _witness_fixture_lines() -> str:
    with open(os.path.join(ROOT, "tests", "data", "witnesses.jsonl"), encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return "\n".join(json.dumps(replay_report(rec).witness, sort_keys=True, separators=(",", ":"))
                     for rec in records)


def main() -> int:
    differ = []
    with tempfile.TemporaryDirectory() as out_dir:
        for seed in (42, 7):
            label = f"default_campaign seed={seed}"
            serial, parallel = [_campaign(label, default_campaign(master_seed=seed), jobs, out_dir)
                                for jobs in (1, 2)]
            differ += [f"{label} {kind}" for kind in serial if serial[kind] != parallel[kind]]
        _campaign("cfl_campaign seed=101", _cfl_campaign(), 2, out_dir)
    print(f"ablation_lines {_sha256(_ablation_lines().encode('utf-8'))}")
    print(f"cells {_sha256(_cell_lines().encode('utf-8'))}")
    print(f"witness_fixture {_sha256(_witness_fixture_lines().encode('utf-8'))}")
    for line in differ:
        print(f"jobs=1 and jobs=2 digests differ: {line}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
