"""Routed journal replay: tier-faithful records, byte-identical recovery."""

import json

import pytest

from repro.core.config import PipelineConfig
from repro.core.pipeline import OpenSearchSQL
from repro.llm.simulated import SimulatedLLM
from repro.llm.skills import GPT_4O
from repro.routing import TieredPipeline
from repro.evaluation import assemble_report
from repro.serving import ServingJournal, recover_run


def _tiered(tiny_benchmark):
    llm = SimulatedLLM(GPT_4O, seed=0)
    base = OpenSearchSQL(tiny_benchmark, llm, PipelineConfig(n_candidates=5))
    return TieredPipeline(base)


@pytest.fixture(scope="module")
def workload(tiny_benchmark):
    dev = tiny_benchmark.dev
    # Repeats exercise the cached-commit path alongside fresh serves.
    return list(dev[:4]) + [dev[0], dev[2]]


class TestJournalPayload:
    def test_commit_round_trips_routing_info(self, tiny_benchmark, tmp_path):
        tiered = _tiered(tiny_benchmark)
        example = tiny_benchmark.dev[0]
        result = tiered.answer(example)
        journal = ServingJournal(tmp_path / "j.jsonl")
        seq = journal.accept(example)
        journal.commit(seq, "ok", result=result)

        record = ServingJournal(tmp_path / "j.jsonl").committed(seq)
        decoded, _cost = ServingJournal.decode_result(record)
        assert decoded.routing is not None
        assert decoded.routing.to_dict() == result.routing.to_dict()
        assert decoded.final_sql == result.final_sql

    def test_unrouted_commit_bytes_are_unchanged(self, tiny_pipeline,
                                                 tiny_benchmark, tmp_path):
        """Plain results must journal exactly as before routing existed —
        no ``routing`` key, so historical journals stay byte-compatible."""
        example = tiny_benchmark.dev[0]
        result = tiny_pipeline.answer(example)
        journal = ServingJournal(tmp_path / "j.jsonl")
        journal.commit(journal.accept(example), "ok", result=result)
        lines = (tmp_path / "j.jsonl").read_text().splitlines()
        committed = json.loads(lines[-1])
        assert "routing" not in committed["result"]


class TestRecovery:
    def _report_doc(self, journal_path, tiny_benchmark, workload):
        tiered = _tiered(tiny_benchmark)
        journal = ServingJournal(journal_path)
        journal.write_header({"test": "routed-recovery"})
        outcomes = recover_run(journal, tiered, workload)
        report = assemble_report(outcomes, workload, tiny_benchmark, name="routed")
        return report.deterministic_dict()

    def test_killed_run_recovers_byte_identically(self, tiny_benchmark,
                                                  workload, tmp_path):
        full_path = tmp_path / "full.jsonl"
        reference = self._report_doc(full_path, tiny_benchmark, workload)

        # Chop the journal after its third commit — the simulated SIGKILL.
        killed_path = tmp_path / "killed.jsonl"
        commits = 0
        kept = []
        for line in full_path.read_text().splitlines():
            kept.append(line)
            if json.loads(line).get("type") == "committed":
                commits += 1
                if commits == 3:
                    break
        killed_path.write_text("\n".join(kept) + "\n")

        recovered = self._report_doc(killed_path, tiny_benchmark, workload)
        assert json.dumps(recovered, sort_keys=True) == json.dumps(
            reference, sort_keys=True
        )

    def test_report_meta_carries_the_tier_mix(self, tiny_benchmark, workload,
                                              tmp_path):
        doc = self._report_doc(tmp_path / "j.jsonl", tiny_benchmark, workload)
        meta = doc.get("meta", {})
        assert sum(meta.get("tier_mix", {}).values()) == len(workload)

    def test_unrouted_reports_have_no_meta(self, tiny_pipeline, tiny_benchmark,
                                           tmp_path):
        workload = list(tiny_benchmark.dev[:2])
        journal = ServingJournal(tmp_path / "j.jsonl")
        outcomes = recover_run(journal, tiny_pipeline, workload)
        report = assemble_report(outcomes, workload, tiny_benchmark)
        assert "meta" not in report.deterministic_dict()
