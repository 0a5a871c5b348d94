"""CLI tests (fast paths only; heavy sweeps are covered by benches)."""

import io
import json

import pytest

from repro.cli import build_parser, main
from repro.serving import ServingJournal
from repro.serving.spec import RunSpec
from repro.storage.format import encode_record


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def rewrite_header(source, target, edit):
    """Copy a journal to ``target`` with ``edit`` applied to its header
    config, re-framed so the edit is not read as damage."""
    lines = source.read_text().splitlines()
    record = json.loads(lines[0])
    record.pop("crc")
    rec = record.pop("rec")
    edit(record["config"])
    lines[0] = encode_record(record, rec)
    target.write_text("\n".join(lines) + "\n")
    return target


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["stats"])
        assert args.benchmark == "bird"
        assert args.model == "gpt-4o"
        assert args.candidates == 21

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--model", "claude", "stats"])


class TestStats:
    def test_prints_both_suites(self):
        code, text = run_cli("stats")
        assert code == 0
        assert "bird-like" in text
        assert "spider-like" in text


class TestRun:
    def test_answers_first_dev_question(self):
        code, text = run_cli("--candidates", "3", "run")
        assert code == 0
        assert "sql      :" in text
        assert "verdict  :" in text

    def test_unknown_question_id(self):
        code, text = run_cli("--candidates", "3", "run", "--question-id", "nope")
        assert code == 2
        assert "error" in text

    def test_specific_question(self):
        from repro.datasets.bird import build_bird_like

        qid = build_bird_like().dev[1].question_id
        code, text = run_cli("--candidates", "3", "run", "--question-id", qid)
        assert code == 0


class TestEvaluate:
    def test_limited_evaluation(self):
        code, text = run_cli("--candidates", "3", "evaluate", "--limit", "10")
        assert code == 0
        assert "EX " in text or "EX  " in text
        assert "R-VES" in text

    def test_spider_benchmark(self):
        code, text = run_cli(
            "--benchmark", "spider", "--candidates", "3", "evaluate", "--limit", "8"
        )
        assert code == 0
        assert "examples : 8" in text

    def test_parallel_matches_serial(self):
        code_1, serial = run_cli("--candidates", "3", "evaluate", "--limit", "8")
        code_4, parallel = run_cli(
            "--candidates", "3", "evaluate", "--limit", "8", "--workers", "4"
        )
        assert code_1 == code_4 == 0
        assert "workers  : 4" in parallel
        assert "latency  :" in parallel
        # Identical EX/EX_G/EX_R lines regardless of worker count.
        pick = lambda text, tag: next(
            line for line in text.splitlines() if line.startswith(tag)
        )
        for tag in ("EX ", "EX_G", "EX_R"):
            assert pick(serial, tag) == pick(parallel, tag)


class TestEvaluateDeadline:
    def test_tight_deadline_degrades_not_crashes(self):
        code, text = run_cli(
            "--candidates", "3", "evaluate", "--limit", "6",
            "--deadline-ms", "0.001",
        )
        assert code == 0
        assert "examples : 6" in text
        assert "deadline_exceeded" in text  # degradation counts line

    def test_generous_deadline_matches_no_deadline(self):
        code_a, plain = run_cli("--candidates", "3", "evaluate", "--limit", "6")
        code_b, timed = run_cli(
            "--candidates", "3", "evaluate", "--limit", "6",
            "--deadline-ms", "1000000000",
        )
        assert code_a == code_b == 0
        pick = lambda text, tag: next(
            line for line in text.splitlines() if line.startswith(tag)
        )
        for tag in ("EX ", "EX_G", "EX_R"):
            assert pick(plain, tag) == pick(timed, tag)


class TestServeBench:
    def test_closed_loop_reports_stats(self):
        code, text = run_cli(
            "--candidates", "3", "serve-bench",
            "--workers", "2", "--requests", "12", "--distinct", "4",
        )
        assert code == 0
        assert "served   : 12/12" in text
        assert "cache[result" in text
        assert "throughput" in text

    def test_no_cache_flag(self):
        code, text = run_cli(
            "--candidates", "3", "serve-bench",
            "--workers", "2", "--requests", "6", "--distinct", "3", "--no-cache",
        )
        assert code == 0
        assert "0 hits" in text

    def test_async_engine_reports_coalescing(self):
        code, text = run_cli(
            "--candidates", "3", "serve-bench", "--async",
            "--workers", "2", "--requests", "12", "--distinct", "4",
        )
        assert code == 0
        assert "served   : 12/12" in text
        assert "async" in text
        assert "coalesced" in text

    def test_async_report_is_deterministic(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        argv = (
            "--candidates", "3", "serve-bench", "--async",
            "--workers", "2", "--requests", "10", "--distinct", "4",
        )
        code, _ = run_cli(
            *argv, "--journal", str(tmp_path / "a.jsonl"),
            "--report-out", str(first),
        )
        assert code == 0
        code, _ = run_cli(
            *argv, "--journal", str(tmp_path / "b.jsonl"),
            "--report-out", str(second),
        )
        assert code == 0
        # deterministic reports are byte-equal; raw journals are not
        # compared (commit payloads carry real wall-clock stage times)
        assert first.read_bytes() == second.read_bytes()
        assert '"coalesced"' in (tmp_path / "a.jsonl").read_text()

    def test_open_loop_can_shed(self):
        code, text = run_cli(
            "--candidates", "3", "serve-bench",
            "--workers", "1", "--requests", "10", "--distinct", "5",
            "--queue-capacity", "1", "--mode", "open", "--no-cache",
        )
        assert code == 0
        assert "shed" in text

    def test_fault_rate_enables_chaos_and_hedging(self):
        code, text = run_cli(
            "--candidates", "3", "serve-bench",
            "--workers", "2", "--requests", "10", "--distinct", "4",
            "--fault-rate", "0.3",
        )
        assert code == 0
        assert "served   : 10/10" in text  # chaos contained, nothing lost
        assert "llm faults :" in text
        assert "db faults  :" in text
        assert "hedging" in text

    def test_deadline_ms_reports_exceeded_count(self):
        code, text = run_cli(
            "--candidates", "3", "serve-bench",
            "--workers", "2", "--requests", "8", "--distinct", "4",
            "--deadline-ms", "0.001", "--no-cache",
        )
        assert code == 0
        assert "served   : 8/8" in text
        exceeded = next(
            line for line in text.splitlines() if line.startswith("deadlines")
        )
        assert "8 exceeded" in exceeded


class TestServeBenchRobustness:
    def test_backend_pool_reports_replicas(self):
        code, text = run_cli(
            "--candidates", "3", "serve-bench",
            "--workers", "2", "--requests", "8", "--distinct", "4",
            "--backends", "3", "--fault-rate", "0.5",
        )
        assert code == 0
        assert "served   : 8/8" in text
        assert "backends" in text
        assert "replicas" in text

    def test_metrics_out_includes_robustness_collectors(self, tmp_path):
        import json

        metrics_path = tmp_path / "metrics.json"
        code, _ = run_cli(
            "--candidates", "3", "serve-bench",
            "--workers", "1", "--requests", "4", "--distinct", "2",
            "--backends", "2", "--metrics-out", str(metrics_path),
        )
        assert code == 0
        snapshot = json.loads(metrics_path.read_text())
        # collector dicts are flattened into dotted scalar keys; the
        # bulkheads and backends are sections of the serving collector
        serving = snapshot["collected"]["serving"]
        assert serving["bulkheads.rejected_quarantined"] == 0
        assert serving["bulkheads.quarantine_threshold"] == 3
        served = sum(
            count for key, count in serving.items()
            if key.startswith("backends.served.")
        )
        # several LLM calls per served request; conservation is what matters
        assert served == serving["backends.calls"] > 0

    def test_journal_written_and_report_out(self, tmp_path):
        import json

        journal_path = tmp_path / "serve.jsonl"
        report_path = tmp_path / "report.json"
        code, text = run_cli(
            "--candidates", "3", "serve-bench",
            "--workers", "1", "--requests", "6", "--distinct", "3",
            "--journal", str(journal_path), "--report-out", str(report_path),
        )
        assert code == 0
        assert journal_path.exists()
        header = json.loads(journal_path.read_text().splitlines()[0])
        assert header["type"] == "header"
        report = json.loads(report_path.read_text())
        assert report["count"] == 6
        assert "ex" in report

    def test_health_shed_flag_accepted(self):
        code, text = run_cli(
            "--candidates", "3", "serve-bench",
            "--workers", "1", "--requests", "4", "--distinct", "2",
            "--health-shed",
        )
        assert code == 0
        assert "served   : 4/4" in text  # healthy run sheds nothing

    def test_storage_enospc_browns_out_but_serves_everything(self, tmp_path):
        journal_path = tmp_path / "serve.jsonl"
        metrics_path = tmp_path / "metrics.json"
        code, text = run_cli(
            "--candidates", "3", "serve-bench",
            "--workers", "1", "--requests", "5", "--distinct", "3",
            "--journal", str(journal_path),
            "--storage-enospc-after", "2",
            "--metrics-out", str(metrics_path),
        )
        assert code == 0  # the disk filled up; the run did not fail
        assert "served   : 5/5" in text
        assert "DISABLED" in text
        assert "un-journaled" in text
        snapshot = metrics_path.read_text()
        assert "repro_storage_journal_disabled_total" in snapshot
        # the journal keeps its write errors; its collector exports them
        journal = json.loads(snapshot)["collected"]["journal"]
        assert journal["disabled"] is True
        assert any(key.startswith("write_errors.") for key in journal)


class TestServeBenchPartnerFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("--report-out", "report.json"), "--report-out"),
            (("--kill-after", "1"), "--kill-after"),
            (("--storage-enospc-after", "1"), "--storage-enospc-after"),
            (("--kill-worker", "0"), "--kill-worker"),
            (("--report-out", "report.json", "--kill-after", "1",
              "--storage-enospc-after", "1"), "--report-out"),
        ],
        ids=["report-out", "kill-after", "enospc-after", "kill-worker", "all"],
    )
    def test_flag_without_its_partner_is_refused(
        self, argv, flag, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code, text = run_cli(
            "--candidates", "3", "serve-bench",
            "--requests", "4", "--distinct", "2", *argv,
        )
        assert code == 2
        assert text.startswith(f"error: {flag} requires --")
        assert len(text.strip().splitlines()) == 1
        assert not (tmp_path / "report.json").exists()


@pytest.fixture(scope="module")
def plain_journal(tmp_path_factory):
    path = tmp_path_factory.mktemp("plain") / "serve.jsonl"
    code, _ = run_cli(
        "--candidates", "3", "serve-bench",
        "--workers", "1", "--requests", "4", "--distinct", "2",
        "--journal", str(path),
    )
    assert code == 0
    return path


class TestRecoverRefusals:
    def assert_refused(self, journal, phrase):
        code, text = run_cli("recover", "--journal", str(journal))
        assert code == 2
        assert text.startswith("error: ")
        assert phrase in text
        assert len(text.strip().splitlines()) == 1  # no traceback

    def test_skill_profile_differing_from_model(self, plain_journal, tmp_path):
        journal = rewrite_header(
            plain_journal, tmp_path / "j.jsonl",
            lambda config: config.update(skill_profile="gpt-4"),
        )
        self.assert_refused(journal, "skill_profile 'gpt-4' != model 'gpt-4o'")

    def test_edited_tier_mix(self, tmp_path):
        routed = tmp_path / "routed.jsonl"
        code, _ = run_cli(
            "--candidates", "3", "serve-bench", "--routing",
            "--workers", "1", "--requests", "4", "--distinct", "2",
            "--journal", str(routed),
        )
        assert code == 0

        def edit(config):
            mix = config["tier_mix"]
            mix["heavy"] = mix.get("heavy", 0) + 1

        journal = rewrite_header(routed, tmp_path / "j.jsonl", edit)
        self.assert_refused(journal, "routed tier mix diverged")

    def test_header_key_it_cannot_rebuild(self, plain_journal, tmp_path):
        journal = rewrite_header(
            plain_journal, tmp_path / "j.jsonl",
            lambda config: config.update(fault_plan={"timeout": 0.4}),
        )
        self.assert_refused(journal, "fault_plan cannot be rebuilt")


class TestRecoverRebuildsTheRecordedStack:
    def test_header_records_chaos_deadline_hedge_and_backends(self, tmp_path):
        journal_path = tmp_path / "serve.jsonl"
        code, _ = run_cli(
            "--candidates", "3", "serve-bench",
            "--workers", "1", "--requests", "4", "--distinct", "2",
            "--fault-rate", "0.3", "--deadline-ms", "60000",
            "--hedge-ms", "500", "--backends", "2",
            "--journal", str(journal_path),
        )
        assert code == 0
        assert RunSpec.from_header(ServingJournal(journal_path).config) == RunSpec(
            candidates=3, workers=1, requests=4, distinct=2, fault_rate=0.3,
            deadline_ms=60000.0, hedge_ms=500.0, backends=2,
        )

    def test_killed_chaos_run_finishes_once_but_is_not_certifiable(
        self, tmp_path
    ):
        journal_path = tmp_path / "chaos.jsonl"
        code, _ = run_cli(
            "--candidates", "3", "serve-bench",
            "--workers", "1", "--requests", "8", "--distinct", "4",
            "--fault-rate", "0.4", "--journal", str(journal_path),
        )
        assert code == 0
        # cut after the second commit: what a SIGKILL there leaves behind
        lines = journal_path.read_text().splitlines()
        commits = [
            i for i, line in enumerate(lines) if '"type": "committed"' in line
        ]
        journal_path.write_text("\n".join(lines[: commits[1] + 1]) + "\n")
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        code, text = run_cli(
            "recover", "--journal", str(journal_path),
            "--report-out", str(first),
        )
        assert code == 0
        assert "journal  : 2 committed" in text
        assert "recovered: 8/8" in text
        assert "replay   : not certifiable (fault_rate=0.4)" in text
        code, text = run_cli(
            "recover", "--journal", str(journal_path),
            "--report-out", str(second),
        )
        assert code == 0
        assert "8 committed, 0 pending, 0 to finish" in text
        assert first.read_bytes() == second.read_bytes()


class TestRecover:
    def test_recover_matches_uninterrupted_report(self, tmp_path):
        journal_path = tmp_path / "serve.jsonl"
        full_report = tmp_path / "full.json"
        recovered_report = tmp_path / "recovered.json"
        code, _ = run_cli(
            "--candidates", "3", "serve-bench",
            "--workers", "1", "--requests", "6", "--distinct", "3",
            "--journal", str(journal_path), "--report-out", str(full_report),
        )
        assert code == 0
        code, text = run_cli(
            "recover", "--journal", str(journal_path),
            "--report-out", str(recovered_report),
        )
        assert code == 0
        assert "recovered: 6/6" in text
        assert full_report.read_bytes() == recovered_report.read_bytes()

    def test_recover_replays_an_async_journal(self, tmp_path):
        """Coalesced follower commits replay to the same report a full
        async run wrote — the crash-consistency contract extends to the
        async engine's journal grammar."""
        journal_path = tmp_path / "async.jsonl"
        full_report = tmp_path / "full.json"
        recovered_report = tmp_path / "recovered.json"
        code, _ = run_cli(
            "--candidates", "3", "serve-bench", "--async",
            "--workers", "2", "--requests", "8", "--distinct", "3",
            "--journal", str(journal_path), "--report-out", str(full_report),
        )
        assert code == 0
        assert '"coalesced"' in journal_path.read_text()
        code, text = run_cli(
            "recover", "--journal", str(journal_path),
            "--report-out", str(recovered_report),
        )
        assert code == 0
        assert "recovered: 8/8" in text
        assert full_report.read_bytes() == recovered_report.read_bytes()

    def test_recover_resumes_a_truncated_journal(self, tmp_path):
        journal_path = tmp_path / "serve.jsonl"
        full_report = tmp_path / "full.json"
        recovered_report = tmp_path / "recovered.json"
        code, _ = run_cli(
            "--candidates", "3", "serve-bench",
            "--workers", "1", "--requests", "6", "--distinct", "3",
            "--journal", str(journal_path), "--report-out", str(full_report),
        )
        assert code == 0
        # chop the journal mid-run: keep the header, a few records and a
        # torn half-line, exactly what a SIGKILL leaves behind
        lines = journal_path.read_text().splitlines()
        journal_path.write_text(
            "\n".join(lines[:5]) + "\n" + lines[5][: len(lines[5]) // 2]
        )
        code, text = run_cli(
            "recover", "--journal", str(journal_path),
            "--report-out", str(recovered_report),
        )
        assert code == 0
        assert "recovered: 6/6" in text
        assert full_report.read_bytes() == recovered_report.read_bytes()

    def test_recover_requires_a_header(self, tmp_path):
        journal_path = tmp_path / "no-header.jsonl"
        journal_path.write_text("")
        code, text = run_cli("recover", "--journal", str(journal_path))
        assert code == 2
        assert "no header" in text

    def test_recover_dry_run_prints_counts_without_replaying(self, tmp_path):
        journal_path = tmp_path / "serve.jsonl"
        code, _ = run_cli(
            "--candidates", "3", "serve-bench",
            "--workers", "1", "--requests", "4", "--distinct", "2",
            "--journal", str(journal_path),
        )
        assert code == 0
        # chop from the last commit onward (also dropping the seal) so
        # there is something pending
        lines = journal_path.read_text().splitlines()
        last_commit = max(
            i for i, line in enumerate(lines)
            if '"type": "committed"' in line
        )
        journal_path.write_text("\n".join(lines[:last_commit]) + "\n")
        code, text = run_cli(
            "recover", "--journal", str(journal_path), "--dry-run",
        )
        assert code == 0
        assert "total: 3 committed, 1 pending, 0 corrupt lines" in text
        assert "recovered:" not in text  # counts only, nothing replayed

    def test_recover_corrupt_journal_fails_with_one_typed_line(
        self, tmp_path
    ):
        journal_path = tmp_path / "serve.jsonl"
        code, _ = run_cli(
            "--candidates", "3", "serve-bench",
            "--workers", "1", "--requests", "4", "--distinct", "2",
            "--journal", str(journal_path),
        )
        assert code == 0
        lines = journal_path.read_text().splitlines()
        lines[2] = lines[2][:12] + "##" + lines[2][14:]  # interior damage
        journal_path.write_text("\n".join(lines) + "\n")
        code, text = run_cli("recover", "--journal", str(journal_path))
        assert code == 2
        assert text.startswith("error: ")
        assert "fsck" in text  # points the operator at the repair tool
        assert len(text.strip().splitlines()) == 1  # no traceback


class TestFsck:
    def seeded_journal(self, tmp_path):
        journal_path = tmp_path / "serve.jsonl"
        code, _ = run_cli(
            "--candidates", "3", "serve-bench",
            "--workers", "1", "--requests", "4", "--distinct", "2",
            "--journal", str(journal_path),
        )
        assert code == 0
        return journal_path

    def test_clean_journal_passes(self, tmp_path):
        journal_path = self.seeded_journal(tmp_path)
        code, text = run_cli("fsck", "--journal", str(journal_path))
        assert code == 0
        assert "fsck: clean" in text
        assert "4 committed" in text

    def test_torn_tail_flagged_as_safe(self, tmp_path):
        journal_path = self.seeded_journal(tmp_path)
        lines = journal_path.read_text().splitlines()
        journal_path.write_text(
            "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        )
        code, text = run_cli("fsck", "--journal", str(journal_path))
        assert code == 1
        assert "torn tail (safe to truncate)" in text

    def test_detect_repair_then_clean(self, tmp_path):
        journal_path = self.seeded_journal(tmp_path)
        lines = journal_path.read_text().splitlines()
        lines[2] = lines[2][:12] + "##" + lines[2][14:]
        journal_path.write_text("\n".join(lines) + "\n")

        code, text = run_cli("fsck", "--journal", str(journal_path))
        assert code == 1
        assert "CORRUPT" in text
        assert "--repair" in text

        code, text = run_cli(
            "fsck", "--journal", str(journal_path), "--repair",
        )
        assert code == 0
        assert "repaired" in text
        assert "quarantined" in text

        code, text = run_cli("fsck", "--journal", str(journal_path))
        assert code == 0
        assert "fsck: clean" in text
        # and the repaired journal still recovers (the damaged record is
        # simply pending again)
        code, text = run_cli("recover", "--journal", str(journal_path))
        assert code == 0
        assert "recovered: 4/4" in text

    def test_missing_journal_is_a_typed_error(self, tmp_path):
        code, text = run_cli(
            "fsck", "--journal", str(tmp_path / "missing.jsonl"),
        )
        assert code == 2
        assert text.startswith("error: ")


class TestCrashFuzz:
    def test_tiny_campaign_certifies_and_is_deterministic(self, tmp_path):
        argv = (
            "--candidates", "3", "crash-fuzz",
            "--shards", "2", "--requests", "4", "--distinct", "2",
            "--bitflips", "1", "--no-torn", "--no-routing",
        )
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        code, text = run_cli(*argv, "--out", str(first))
        assert code == 0
        assert "CERTIFIED" in text
        assert "FAIL" not in text
        code, _ = run_cli(*argv, "--out", str(second))
        assert code == 0
        assert first.read_bytes() == second.read_bytes()


class TestServeBenchCluster:
    def test_shards_require_a_journal_directory(self):
        code, text = run_cli("serve-bench", "--shards", "2")
        assert code == 2
        assert "--journal" in text

    def test_cluster_flags_reject_unsupported_modes(self, tmp_path):
        code, text = run_cli(
            "serve-bench", "--shards", "2", "--journal", str(tmp_path),
            "--fault-rate", "0.2",
        )
        assert code == 2
        assert "--fault-rate" in text

    def test_cluster_refuses_async(self, tmp_path):
        code, text = run_cli(
            "serve-bench", "--shards", "2", "--journal", str(tmp_path),
            "--async",
        )
        assert code == 2
        assert "--async" in text

    def test_kill_worker_run_recovers_to_single_process_report(self, tmp_path):
        # The PR's acceptance criterion end to end, through the CLI: a
        # 3-shard run with worker 1 SIGKILLed mid-run completes, and the
        # directory-recovered merged report is byte-identical to the
        # undisturbed single-process run of the same seed.
        reference = tmp_path / "reference.json"
        code, _ = run_cli(
            "--candidates", "3", "serve-bench",
            "--workers", "1", "--requests", "8", "--distinct", "6",
            "--pool", "spread",
            "--journal", str(tmp_path / "single.jsonl"),
            "--report-out", str(reference),
        )
        assert code == 0
        shard_dir = tmp_path / "segments"
        recovered = tmp_path / "recovered.json"
        code, text = run_cli(
            "--candidates", "3", "serve-bench",
            "--shards", "3", "--kill-worker", "1", "--restart-budget", "1",
            "--requests", "8", "--distinct", "6", "--pool", "spread",
            "--journal", str(shard_dir),
        )
        assert code == 0
        assert "1 deaths, 1 restarts" in text
        assert "14 dispatched" not in text  # sanity: 8-request workload
        code, text = run_cli(
            "recover", "--journal", str(shard_dir),
            "--report-out", str(recovered),
        )
        assert code == 0
        assert "segments : 3" in text
        assert "recovered: 8/8" in text
        assert reference.read_bytes() == recovered.read_bytes()


class TestTrace:
    def test_renders_span_tree_and_stage_costs(self):
        code, text = run_cli("--candidates", "3", "trace")
        assert code == 0
        assert "trace " in text
        for stage in ("preprocessing", "extraction", "generation", "refinement"):
            assert stage in text
        assert "stage costs:" in text
        assert "tokens=" in text

    def test_json_export(self):
        import json

        code, text = run_cli("--candidates", "3", "trace", "--json")
        assert code == 0
        payload = json.loads(text)
        assert payload["spans"]["name"] == "request"
        children = {c["name"] for c in payload["spans"]["children"]}
        assert {"preprocessing", "extraction", "generation", "refinement"} <= children

    def test_unknown_question_id(self):
        code, text = run_cli("--candidates", "3", "trace", "--question-id", "nope")
        assert code == 2
        assert "error" in text

    def test_fault_rate_surfaces_events(self):
        code, text = run_cli(
            "--candidates", "3", "trace", "--fault-rate", "0.25",
        )
        assert code == 0
        assert "trace " in text  # chaos contained: trace still renders


class TestMetrics:
    def test_text_render_lists_serving_counters(self):
        code, text = run_cli(
            "--candidates", "3", "metrics", "--requests", "6", "--distinct", "3",
        )
        assert code == 0
        assert "repro_serving_requests_total" in text
        assert "serving." in text  # collector-flattened legacy stats

    def test_json_snapshot_shape(self):
        import json

        code, text = run_cli(
            "--candidates", "3", "metrics", "--requests", "6", "--distinct", "3",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(text)
        assert "repro_serving_requests_total" in payload["metrics"]
        assert "serving" in payload["collected"]

    def test_jsonl_one_sample_per_line(self):
        import json

        code, text = run_cli(
            "--candidates", "3", "metrics", "--requests", "6", "--distinct", "3",
            "--format", "jsonl",
        )
        assert code == 0
        lines = [json.loads(line) for line in text.strip().splitlines()]
        assert lines
        for line in lines:
            assert set(line) == {"metric", "type", "labels", "value"}


class TestEvaluateStageCosts:
    def test_evaluate_reports_per_stage_costs(self):
        code, text = run_cli("--candidates", "3", "evaluate", "--limit", "6")
        assert code == 0
        assert "stage costs (per request):" in text
        for stage in ("extraction", "generation", "refinement"):
            assert stage in text
