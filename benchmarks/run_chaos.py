#!/usr/bin/env python
"""Scripted chaos campaign — the CI ``chaos`` leg's executable half.

Usage (repo root)::

    python benchmarks/run_chaos.py                      # full sizing
    python benchmarks/run_chaos.py --smoke              # CI-friendly
    python benchmarks/run_chaos.py --artifacts chaos-artifacts

Two acts, both hard contracts (a violation exits non-zero):

1. **Seeded chaos sweep** — worker kills, hangs, and transient raises
   drawn from a seeded :class:`~repro.faults.FaultPlan` are injected
   into a 50-job pool sweep.  The sweep must complete with no
   sweep-level exception, every job must end with exactly the status
   its fault dictates (kill → ``quarantined``, hang → ``timeout``,
   persistent raise → ``error``, one-shot faults → ``ok`` after
   retry), and every successful payload must be byte-identical to a
   fault-free run's.

2. **Kill-and-resume campaign** — a real ``prophet sweep --campaign``
   subprocess is SIGKILLed mid-flight.  The journal must hold only
   complete, durable checkpoints; the ``--resume`` run must serve every
   journaled point from the checkpoint (``N resumed from campaign
   journal``) and re-execute only the unfinished remainder; and a
   second resume must find nothing left to run at all.

Diagnostics (per-job status tables, journal counts) are written to
``--artifacts`` as ``chaos-diagnostics.json`` alongside a copy of the
killed campaign's journal, so a CI failure can be read off the
uploaded artifact without re-running.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

#: The CLI subprocesses import ``repro`` the same way this script does.
ENV = dict(os.environ,
           PYTHONPATH=os.pathsep.join(
               p for p in (str(ROOT / "src"),
                           os.environ.get("PYTHONPATH")) if p))

from repro.faults import FaultPlan                      # noqa: E402
from repro.samples import build_kernel6_model           # noqa: E402
from repro.sweep import RetryPolicy, make_spec, run_sweep  # noqa: E402
from repro.sweep.campaign import campaigns_dir          # noqa: E402
from repro.util.hashing import canonical_json           # noqa: E402


class ChaosContractViolation(AssertionError):
    """A hard chaos contract failed — the harness exits non-zero."""


def payload_row(result) -> dict:
    return {"predicted_time": result.predicted_time,
            "events": result.events,
            "trace_records": result.trace_records}


def chaos_sweep(state_root: Path, smoke: bool) -> dict:
    """Act 1: seeded faults in a pool sweep, exact statuses, identity."""
    jobs = 10 if smoke else 50
    spec = make_spec(build_kernel6_model(), processes=[2],
                     backends=["interp"], seeds=range(jobs))
    plan = FaultPlan.seeded(
        seed=1305, jobs=jobs,
        kills=1 if smoke else 2, hangs=1 if smoke else 2,
        raises=1 if smoke else 3,
        kill_once=1 if smoke else 2, raise_once=1 if smoke else 3,
        hang_s=30.0, state_dir=str(state_root / "once-markers"))
    start = time.perf_counter()
    chaotic = run_sweep(                      # must not raise — ever
        spec, executor="process", max_workers=2, job_timeout=3.0,
        retry_policy=RetryPolicy(max_retries=2, base_delay_s=0.05,
                                 max_delay_s=0.25),
        fault_plan=plan)
    chaotic_wall = time.perf_counter() - start
    clean = run_sweep(spec)

    expected = {i: "quarantined"
                for i in plan.indices("kill", once=False)}
    expected.update({i: "timeout" for i in plan.indices("hang")})
    expected.update({i: "error"
                     for i in plan.indices("raise", once=False)})
    table, mismatches = [], []
    for result in chaotic:
        want = expected.get(result.job.index, "ok")
        table.append({"job": result.job.index, "expected": want,
                      "status": result.status,
                      "attempts": result.attempts,
                      "error": result.error})
        if result.status != want:
            mismatches.append(
                f"job {result.job.index}: expected {want}, got "
                f"{result.status} ({result.error})")

    clean_rows = {r.job.index: payload_row(r) for r in clean}
    identity_breaks = [
        f"job {r.job.index}: payload differs from the fault-free run"
        for r in chaotic if r.ok and
        canonical_json(payload_row(r)) !=
        canonical_json(clean_rows[r.job.index])]

    diag = {
        "jobs": jobs,
        "faults": plan.to_payload()["faults"],
        "wall_s_chaotic": round(chaotic_wall, 3),
        "statuses": table,
        "ok": sum(1 for r in chaotic if r.ok),
        "timeouts": chaotic.timeout_count,
        "quarantined": chaotic.quarantined_count,
        "status_mismatches": mismatches,
        "identity_violations": identity_breaks,
    }
    if mismatches or identity_breaks:
        raise ChaosContractViolation("; ".join(mismatches
                                               + identity_breaks))
    print(f"chaos sweep OK: {jobs} job(s) in {chaotic_wall:.1f}s — "
          f"{diag['ok']} ok, {diag['timeouts']} timeout(s), "
          f"{diag['quarantined']} quarantined, every status exact, "
          f"every ok payload byte-identical to the fault-free run")
    return diag


def sweep_command(cache_dir: Path, smoke: bool) -> list[str]:
    seeds = range(12 if smoke else 50)
    return [sys.executable, "-m", "repro.cli", "sweep",
            "--scenario", "stencil2d",
            "--scenario-param", "nx=384", "--scenario-param",
            "iters=16",
            "--processes", "8,16", "--backends", "interp",
            "--seeds", ",".join(str(s) for s in seeds),
            "--cache-dir", str(cache_dir), "--no-table"]


def journal_entries(path: Path) -> set[str]:
    """The distinct point keys a campaign journal holds.

    The journal is sealed JSON lines — a header, an optional
    fingerprint line, then one ``{"key", "status"}`` record per point
    (the last record for a key wins).  A live campaign may be caught
    mid-append, so a torn or unparseable last line is skipped.
    """
    if not path.is_file():
        return set()
    lines = path.read_text(encoding="utf-8").splitlines()
    keys: set[str] = set()
    for number, line in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if number == len(lines) - 1:
                break
            raise ChaosContractViolation(
                f"journal line {number + 1} is unreadable: {exc}") from exc
        if isinstance(record, dict) and "key" in record:
            keys.add(record["key"])
    return keys


def kill_and_resume(artifacts: Path, workdir: Path,
                    smoke: bool) -> dict:
    """Act 2: SIGKILL a live campaign, resume, re-run only the rest."""
    cache_dir = workdir / "cache"
    campaign_id = "chaos-ci"
    total = 2 * (12 if smoke else 50)  # processes axis x seeds axis
    journal = campaigns_dir(cache_dir) / f"{campaign_id}.json"
    command = sweep_command(cache_dir, smoke)

    proc = subprocess.Popen(
        command + ["--campaign", campaign_id], cwd=ROOT, env=ENV,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    kill_after = 3 if smoke else 6
    deadline = time.monotonic() + 300
    try:
        while len(journal_entries(journal)) < kill_after:
            if proc.poll() is not None:
                raise ChaosContractViolation(
                    f"campaign finished (rc={proc.returncode}) before "
                    f"{kill_after} checkpoints appeared — nothing left "
                    f"to kill mid-flight")
            if time.monotonic() > deadline:
                raise ChaosContractViolation(
                    "campaign produced no checkpoints within 300s")
            time.sleep(0.025)
    finally:
        proc.kill()  # SIGKILL: no atexit, no cleanup, a real crash
        proc.wait()

    entries = journal_entries(journal)
    journaled = len(entries)
    if not 0 < journaled < total:
        raise ChaosContractViolation(
            f"kill landed outside mid-flight: {journaled} of {total} "
            f"point(s) journaled")
    shutil.copy(journal, artifacts / "killed-campaign-journal.json")

    resumed = subprocess.run(
        command + ["--resume", campaign_id], cwd=ROOT, env=ENV,
        capture_output=True, text=True)
    if resumed.returncode != 0:
        raise ChaosContractViolation(
            f"resume failed (rc={resumed.returncode}): "
            f"{resumed.stderr.strip()[-500:]}")
    marker = f"{journaled} resumed from campaign journal"
    if marker not in resumed.stdout:
        raise ChaosContractViolation(
            f"resume did not serve exactly the {journaled} journaled "
            f"point(s) from the checkpoint; summary was: "
            f"{resumed.stdout.strip().splitlines()[-1:]}")
    healed = journal_entries(journal)
    if len(healed) != total:
        raise ChaosContractViolation(
            f"journal healed to {len(healed)} of {total} point(s)")

    # A second resume has nothing left: all points journaled + cached.
    second = subprocess.run(
        command + ["--resume", campaign_id], cwd=ROOT, env=ENV,
        capture_output=True, text=True)
    if second.returncode != 0 or \
            f"{total} resumed from campaign journal" not in second.stdout:
        raise ChaosContractViolation(
            "second resume re-executed finished work; summary was: "
            f"{second.stdout.strip().splitlines()[-1:]}")

    diag = {"grid_points": total, "journaled_at_kill": journaled,
            "reexecuted_on_resume": total - journaled,
            "resume_summary": resumed.stdout.strip().splitlines()[-1],
            "second_resume_summary":
                second.stdout.strip().splitlines()[-1]}
    print(f"kill-and-resume OK: SIGKILL at {journaled}/{total} "
          f"checkpoint(s); resume served {journaled} from the journal "
          f"and re-executed only the remaining {total - journaled}; "
          f"second resume re-executed nothing")
    return diag


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="run_chaos",
        description="seeded chaos sweep + kill-and-resume campaign")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizing (local quick check)")
    parser.add_argument("--artifacts", metavar="DIR",
                        default="chaos-artifacts",
                        help="diagnostics + journal output directory "
                             "(CI uploads it)")
    args = parser.parse_args(argv)
    artifacts = Path(args.artifacts)
    artifacts.mkdir(parents=True, exist_ok=True)
    diagnostics: dict = {"smoke": args.smoke}
    status = 0
    try:
        with tempfile.TemporaryDirectory() as scratch:
            scratch_dir = Path(scratch)
            diagnostics["chaos_sweep"] = chaos_sweep(
                scratch_dir / "state", args.smoke)
            diagnostics["kill_and_resume"] = kill_and_resume(
                artifacts, scratch_dir / "campaign", args.smoke)
    except ChaosContractViolation as violation:
        diagnostics["violation"] = str(violation)
        print(f"chaos contract violated: {violation}", file=sys.stderr)
        status = 1
    path = artifacts / "chaos-diagnostics.json"
    path.write_text(json.dumps(diagnostics, indent=1, sort_keys=True)
                    + "\n", encoding="utf-8")
    print(f"wrote {path}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
