"""The benchmark's workloads, driven through opjensen's public functions.

Each workload runs one *repetition* at a time from a master seed: the same
repetition at `jobs=1` and at `jobs=nproc` must produce the same bytes.

* cfl_sweep: the acceptance-01 campaign (check_cfl over dims (2..4)x(2..4)
  with five convex functions). The eigensolver does most of the work, at
  matrix sizes up to 16; positive_maps and spectral_tools never run.
* smoke_mix: the built-in smoke campaign (`default_campaign()`: all nine
  checks, every map kind, two weight pairs), scaled up by repeating it with
  fresh master seeds. Trials are small (d <= 6), so per-call Python overhead
  and the positive-map and spectral paths weigh more; the only workload
  running the main-tracial, duality, state-version and Hansen-Pedersen
  checks.
* ablation_replay: every hypothesis-ablation target over dims 2, 3, 4; each
  search's witness is written with `to_json_line`, read back with
  `json.loads` and re-run with `replay_report`. The only workload where
  checks fail, so the only one that encodes and decodes witnesses.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import opjensen
from opjensen import harness_cli, jensen_checks

REPLAY_REL = 1e-12


def derive_seed(*entropy: int) -> int:
    """A 32-bit seed derived from an integer tuple (e.g. run seed, repetition)."""
    return int(np.random.SeedSequence([int(e) for e in entropy]).generate_state(1)[0])


@dataclass
class RepOutput:
    trials: int
    elapsed: float
    data: bytes  # what must be identical across jobs
    jsonl_bytes: int  # report/witness JSONL bytes written
    failures: list[tuple[int, str]] = field(default_factory=list)  # (operations, message)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REPLAY_REL * max(1.0, abs(a), abs(b))


class CampaignWorkload:
    """A campaign run through `run_campaign`, parallel through its own pool."""

    def __init__(self, name: str, make_config, replays_per_check: int, traced_reps: int):
        self.name = name
        self._make_config = make_config
        self.replays_per_check = replays_per_check
        self.traced_reps = traced_reps

    def config(self, master_seed: int, out_path: str, trials: int | None = None):
        cfg = self._make_config(master_seed, out_path)
        if trials is not None:
            cfg.trials = trials
        return cfg

    def setup(self, master_seed: int) -> int:
        return len(harness_cli.build_tasks(self.config(master_seed, os.devnull)))

    @contextmanager
    def open(self, nproc: int):
        yield self

    def warm(self, out_dir: str, nproc: int) -> None:
        """One small campaign per jobs setting, so first-call costs are not timed."""
        for jobs in (1, nproc):
            cfg = self.config(0, os.path.join(out_dir, f"{self.name}-warm.jsonl"), trials=8)
            opjensen.run_campaign(cfg, jobs=jobs)

    def run(self, master_seed: int, jobs: int, out_dir: str) -> RepOutput:
        path = os.path.join(out_dir, f"{self.name}-j{jobs}.jsonl")
        cfg = self.config(master_seed, path)
        start = time.perf_counter()
        summary = opjensen.run_campaign(cfg, jobs=jobs)
        elapsed = time.perf_counter() - start
        with open(path, "rb") as fh:
            data = fh.read()
        out = RepOutput(summary["total"], elapsed, data, len(data))
        if summary["failed"]:
            out.failures.append(
                (summary["failed"], f"{self.name}: {summary['failed']} FAIL verdicts (seed {master_seed})"))
        return out

    def replays(self, master_seed: int, output: RepOutput, rng: np.random.Generator):
        """Re-derive sampled reports from (master seed, trial index) alone.

        Per check, `replays_per_check` of the cells it ran, spread evenly
        over its cell list, are replayed, each in a random full cycle of the
        round-robin, so the mix of cells is the same in every repetition.
        Yields (milliseconds, reproduced, message).
        """
        cfg = self.config(master_seed, os.devnull)
        tasks = harness_cli.build_tasks(cfg)
        lines = output.data.decode("utf-8").splitlines()
        offset = 0
        for check_name in cfg.checks:
            span = min(cfg.trials, len(harness_cli.expand_cells(cfg, check_name)))
            k = min(span, self.replays_per_check)
            cycle = int(rng.integers(cfg.trials // span))
            for j in range(k):
                index = offset + cycle * span + (j * span) // k
                _, cell, trial_index = tasks[index]
                start = time.perf_counter()
                line = opjensen.run_trial(
                    check_name, cell, master_seed, trial_index, cfg.tolerances
                ).to_json_line()
                ms = (time.perf_counter() - start) * 1e3
                ok = line == lines[index]
                yield ms, ok, "" if ok else f"{check_name} trial {trial_index} did not reproduce"
            offset += cfg.trials


def _cfl_config(master_seed: int, out_path: str):
    """The acceptance-01 campaign, five trials per cell per repetition."""
    return opjensen.CampaignConfig(
        checks=["check_cfl"],
        trials=225,
        dims=[(d1, d2) for d1 in (2, 3, 4) for d2 in (2, 3, 4)],
        functions=["square", "abs", "quartic", "exp", "hinge:0"],
        master_seed=master_seed,
        out_path=out_path,
    )


def search_line(spec: tuple) -> str:
    """Run one ablation search; return its target, worst gap and witness line.

    Module-level so that pool workers can unpickle it.
    """
    target, trials, dims, seed = spec
    result = opjensen.ablation_search(target, trials, list(dims), seed)
    line = result.witness.to_json_line() if result.witness is not None else ""
    return f"{target} {seed} {result.max_violation!r} {line}"


class AblationWorkload:
    """Ablation searches, fanned out over a spawn pool for the parallel run."""

    name = "ablation_replay"
    dims = (2, 3, 4)
    trials_per_search = 12
    searches_per_target = 5
    traced_reps = 6

    def __init__(self) -> None:
        self._pool = None

    def searches(self, master_seed: int) -> list[tuple]:
        return [
            (target, self.trials_per_search, self.dims, derive_seed(master_seed, t, j))
            for t, target in enumerate(jensen_checks.ABLATION_TARGETS)
            for j in range(self.searches_per_target)
        ]

    def setup(self, master_seed: int) -> int:
        return len(self.searches(master_seed))

    @contextmanager
    def open(self, nproc: int):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import resource_tracker

        ctx = multiprocessing.get_context("spawn")
        try:
            with ProcessPoolExecutor(max_workers=nproc, mp_context=ctx) as pool:
                self._pool = pool
                yield self
        finally:
            self._pool = None
            # A spawn pool starts a resource-tracker process that would
            # outlive this one for a moment; stop it and wait for it to end.
            resource_tracker._resource_tracker._stop()

    def warm(self, out_dir: str, nproc: int) -> None:
        specs = [(t, 3, self.dims, i) for i, t in enumerate(jensen_checks.ABLATION_TARGETS)]
        list(map(search_line, specs))
        list(self._pool.map(search_line, specs * nproc))

    def run(self, master_seed: int, jobs: int, out_dir: str) -> RepOutput:
        specs = self.searches(master_seed)
        start = time.perf_counter()
        if jobs == 1:
            results = [search_line(s) for s in specs]
        else:
            results = list(self._pool.map(search_line, specs))
        elapsed = time.perf_counter() - start
        witnesses = [r.split(" ", 3)[3] for r in results]
        out = RepOutput(
            trials=len(specs) * self.trials_per_search,
            elapsed=elapsed,
            data="\n".join(results).encode("utf-8"),
            jsonl_bytes=sum(len(w) + 1 for w in witnesses if w),
        )
        for (target, _, dims, seed), line in zip(specs, witnesses):
            if target != "petz_drop_f0":
                continue
            # The zero map with f(0) = 1 gives a gap of exactly -n; the worst
            # search trial is the largest n.
            gap = json.loads(line)["gap"] if line else math.nan
            if gap != -float(max(dims)):
                out.failures.append(
                    (1, f"petz_drop_f0 search seed {seed}: gap {gap!r}, expected {-max(dims)}"))
        return out

    def replays(self, master_seed: int, output: RepOutput, rng: np.random.Generator):
        """Replay every witness from its JSON line; yields (ms, reproduced, message)."""
        for result in output.data.decode("utf-8").splitlines():
            line = result.split(" ", 3)[3]
            if not line:
                continue
            start = time.perf_counter()
            original = json.loads(line)
            replayed = opjensen.replay_report(original)
            ms = (time.perf_counter() - start) * 1e3
            ok = all(_close(a, b) for a, b in (
                (replayed.lhs, original["lhs"]),
                (replayed.rhs, original["rhs"]),
                (replayed.gap, original["gap"]),
            ))
            yield ms, ok, "" if ok else f"witness {result[:60]!r} did not replay to {REPLAY_REL}"


WORKLOADS = {
    "cfl_sweep": lambda: CampaignWorkload("cfl_sweep", _cfl_config, replays_per_check=15, traced_reps=4),
    "smoke_mix": lambda: CampaignWorkload(
        "smoke_mix", opjensen.default_campaign, replays_per_check=4, traced_reps=5),
    "ablation_replay": AblationWorkload,
}
