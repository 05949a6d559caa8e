"""Campaign journals: lifecycle, atomic writes, and sweep resume."""

import json

import pytest

from repro.samples import build_kernel6_model
from repro.sweep import (
    Campaign,
    CampaignError,
    ResultCache,
    campaign_fingerprint,
    make_spec,
    run_sweep,
)
from repro.sweep.cache import TEMP_PREFIX
from repro.sweep.campaign import campaigns_dir
from repro.sweep.grid import expand


def kernel_spec(**kwargs):
    return make_spec(build_kernel6_model(), **kwargs)


class TestJournalLifecycle:
    def test_start_creates_an_empty_journal(self, tmp_path):
        campaign = Campaign.start(tmp_path, "c1")
        assert campaign.completed == 0
        # Format 2 is JSONL: a fresh journal is a single sealed header.
        lines = campaign.path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["campaign"] == "c1"
        assert header["format"] == 2
        assert "sha256" in header
        assert lines[1:] == []

    def test_start_refuses_an_existing_id(self, tmp_path):
        Campaign.start(tmp_path, "c1")
        with pytest.raises(CampaignError, match="already exists"):
            Campaign.start(tmp_path, "c1")

    def test_resume_missing_campaign_fails_loudly(self, tmp_path):
        with pytest.raises(CampaignError, match="no campaign"):
            Campaign.resume(tmp_path, "ghost")

    def test_invalid_id_rejected(self, tmp_path):
        for bad in ("", ".hidden", "a/b", "x" * 101):
            with pytest.raises(CampaignError, match="invalid"):
                Campaign.start(tmp_path, bad)

    def test_record_and_resume_round_trip(self, tmp_path):
        campaign = Campaign.start(tmp_path, "c1")
        campaign.bind("fp")
        campaign.record("k1", "ok")
        campaign.record("k2", "timeout", "TimeoutError: too slow")
        resumed = Campaign.resume(tmp_path, "c1")
        assert resumed.fingerprint == "fp"
        assert resumed.entry("k1") == {"status": "ok"}
        assert resumed.entry("k2") == {"status": "timeout",
                                       "error": "TimeoutError: too slow"}

    def test_record_normalizes_unknown_statuses(self, tmp_path):
        campaign = Campaign.start(tmp_path, "c1")
        campaign.record("k1", "transient", "flaky")
        assert campaign.entry("k1")["status"] == "error"

    def test_record_is_idempotent(self, tmp_path):
        campaign = Campaign.start(tmp_path, "c1")
        campaign.record("k1", "ok")
        before = campaign.path.stat().st_mtime_ns
        campaign.record("k1", "ok")  # identical: no rewrite
        assert campaign.path.stat().st_mtime_ns == before

    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        campaign = Campaign.start(tmp_path, "c1")
        campaign.bind("fp-one")
        resumed = Campaign.resume(tmp_path, "c1")
        with pytest.raises(CampaignError, match="fingerprint mismatch"):
            resumed.bind("fp-two")

    def test_malformed_journal_fails_loudly(self, tmp_path):
        path = campaigns_dir(tmp_path) / "c1.json"
        path.parent.mkdir(parents=True)
        path.write_text("{not json")
        with pytest.raises(CampaignError, match="unreadable"):
            Campaign.resume(tmp_path, "c1")
        path.write_text(json.dumps({"format": 999, "entries": {}}))
        with pytest.raises(CampaignError, match="unknown format"):
            Campaign.resume(tmp_path, "c1")
        path.write_text(json.dumps({
            "format": 1, "campaign": "c1", "fingerprint": None,
            "entries": {"k": {"status": "transient"}}}))
        with pytest.raises(CampaignError, match="malformed"):
            Campaign.resume(tmp_path, "c1")

    def test_orphaned_temp_files_are_reaped(self, tmp_path):
        directory = campaigns_dir(tmp_path)
        directory.mkdir(parents=True)
        orphan = directory / f"{TEMP_PREFIX}dead-writer.json"
        orphan.write_text("{")
        Campaign.start(tmp_path, "c1")
        assert not orphan.exists()

    def test_fingerprint_is_order_independent(self):
        assert campaign_fingerprint(["a", "b"]) == \
            campaign_fingerprint(["b", "a"])
        assert campaign_fingerprint(["a"]) != campaign_fingerprint(["b"])


class TestSweepResume:
    def test_fresh_campaign_journals_every_point(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        campaign = Campaign.start(tmp_path / "cache", "c1")
        spec = kernel_spec(processes=[1, 2],
                           backends=["analytic", "interp"])
        result = run_sweep(spec, cache=cache, campaign=campaign)
        assert len(result) == 4
        assert campaign.completed == 4
        assert all(e["status"] == "ok"
                   for e in campaign.entries.values())

    def test_resume_serves_from_journal_and_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = kernel_spec(processes=[1, 2], backends=["interp"])
        first = run_sweep(spec, cache=cache,
                          campaign=Campaign.start(tmp_path / "cache",
                                                  "c1"))
        resumed = Campaign.resume(tmp_path / "cache", "c1")
        second = run_sweep(spec, cache=cache, campaign=resumed)
        assert second.resumed_count == 2
        assert all(r.resumed and r.cached for r in second)
        assert "resumed from campaign journal" in second.summary()
        # Payloads identical to the first run's.
        for a, b in zip(first, second):
            assert a.predicted_time == b.predicted_time

    def test_journaled_failure_is_final_on_resume(self, tmp_path):
        cache_root = tmp_path / "cache"
        cache = ResultCache(cache_root)
        spec = kernel_spec(processes=[1], backends=["interp"])
        [job] = expand(spec)
        campaign = Campaign.start(cache_root, "c1")
        campaign.bind(campaign_fingerprint([job.cache_key()]))
        campaign.record(job.cache_key(), "quarantined",
                        "BrokenProcessPool: poison")
        result = run_sweep(spec, cache=cache,
                           campaign=Campaign.resume(cache_root, "c1"))
        [outcome] = result
        assert outcome.status == "quarantined"
        assert outcome.resumed
        assert "poison" in outcome.error

    def test_journaled_ok_with_vanished_cache_entry_reruns(self,
                                                           tmp_path):
        cache_root = tmp_path / "cache"
        cache = ResultCache(cache_root)
        spec = kernel_spec(processes=[1], backends=["interp"])
        run_sweep(spec, cache=cache,
                  campaign=Campaign.start(cache_root, "c1"))
        cache.clear()  # the durable result is gone — only re-run helps
        result = run_sweep(spec, cache=cache,
                           campaign=Campaign.resume(cache_root, "c1"))
        [outcome] = result
        assert outcome.ok
        assert not outcome.cached   # genuinely re-executed
        assert not outcome.resumed

    def test_resume_with_changed_grid_fails_loudly(self, tmp_path):
        cache_root = tmp_path / "cache"
        cache = ResultCache(cache_root)
        run_sweep(kernel_spec(processes=[1], backends=["interp"]),
                  cache=cache,
                  campaign=Campaign.start(cache_root, "c1"))
        with pytest.raises(CampaignError, match="fingerprint mismatch"):
            run_sweep(kernel_spec(processes=[1, 2],
                                  backends=["interp"]),
                      cache=cache,
                      campaign=Campaign.resume(cache_root, "c1"))

    def test_success_cached_before_it_is_journaled(self, tmp_path):
        """A killed campaign must never journal an ``ok`` whose payload
        is not already durably cached — resume would re-run it."""
        cache_root = tmp_path / "cache"
        cache = ResultCache(cache_root)
        campaign = Campaign.start(cache_root, "c1")
        observed = []
        record = campaign.record

        def spy(key, status, error=None):
            observed.append((status, key in cache))
            return record(key, status, error)

        campaign.record = spy
        run_sweep(kernel_spec(processes=[1, 2], backends=["interp"]),
                  cache=cache, campaign=campaign)
        assert len(observed) >= 2
        assert all(in_cache for status, in_cache in observed
                   if status == "ok")

    def test_mid_flight_interrupt_resumes_only_unfinished(self,
                                                          tmp_path):
        """Simulated crash: journal half the grid, resume, and only the
        other half may execute."""
        cache_root = tmp_path / "cache"
        cache = ResultCache(cache_root)
        spec = kernel_spec(processes=[1, 2],
                           backends=["interp"], seeds=[0, 1])
        jobs = expand(spec)
        # First run journals everything...
        run_sweep(spec, cache=cache,
                  campaign=Campaign.start(cache_root, "c1"))
        # ...then "crash": rewrite the journal with only half recorded.
        campaign = Campaign.resume(cache_root, "c1")
        kept = {job.cache_key() for job in jobs[:2]}
        campaign.entries = {k: v for k, v in campaign.entries.items()
                            if k in kept}
        campaign.flush()
        executed: list[int] = []
        result = run_sweep(
            jobs, cache=cache,
            campaign=Campaign.resume(cache_root, "c1"),
            executor=_RecordingExecutor(executed))
        assert result.resumed_count == 2
        # The cache still serves all four, so nothing re-executes; the
        # journal is healed back to the full grid.
        healed = Campaign.resume(cache_root, "c1")
        assert healed.completed == 4


class _RecordingExecutor:
    """Custom executor that records which indices actually ran."""

    name = "recording"

    def __init__(self, executed: list) -> None:
        self.executed = executed

    def run(self, jobs):
        from repro.sweep.runner import execute_job
        self.executed.extend(job.index for job in jobs)
        return [execute_job(job) for job in jobs]
