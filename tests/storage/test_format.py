"""Journal v2 grammar: CRC framing, rec continuity, tail-vs-interior."""

import json

from repro.storage import (
    AppendLog,
    JournalCorruptionError,
    decode_line,
    encode_record,
    scan_file,
)


def write_journal(path, records, start_rec=0):
    lines = [
        encode_record(record, start_rec + i) for i, record in enumerate(records)
    ]
    path.write_text("\n".join(lines) + "\n")
    return lines


RECORDS = [
    {"type": "header", "version": 2, "config": {"requests": 3}},
    {"type": "accepted", "seq": 0, "question_id": "q1", "db_id": "db"},
    {"type": "committed", "seq": 0, "status": "ok"},
    {"type": "accepted", "seq": 1, "question_id": "q2", "db_id": "db"},
]


class TestFraming:
    def test_roundtrip(self):
        line = encode_record({"type": "accepted", "seq": 7}, rec=3)
        record, reason = decode_line(line)
        assert reason is None
        assert record["seq"] == 7
        assert record["rec"] == 3
        assert "crc" not in record

    def test_any_flipped_bit_is_caught(self):
        line = encode_record({"type": "committed", "seq": 1, "status": "ok"}, 0)
        for i in range(len(line)):
            flipped = line[:i] + chr(ord(line[i]) ^ 1) + line[i + 1:]
            record, reason = decode_line(flipped)
            # every corruption is either unparseable or a crc mismatch —
            # never a silently-accepted different record
            assert record is None or record == decode_line(line)[0], i

    def test_v1_line_passes_unverified(self):
        record, reason = decode_line(json.dumps({"type": "accepted", "seq": 2}))
        assert reason is None
        assert record == {"type": "accepted", "seq": 2}

    def test_crc_covers_rec(self):
        # the same body framed at a different position must not verify
        line = encode_record({"type": "accepted", "seq": 0}, rec=1)
        moved = json.loads(line)
        moved["rec"] = 2
        _, reason = decode_line(json.dumps(moved, sort_keys=True))
        assert reason == "crc-mismatch"


class TestScan:
    def test_clean_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, RECORDS)
        scan = scan_file(path)
        assert scan.records == 4
        assert scan.v2_records == 4
        assert scan.header_version == 2
        assert scan.accepted == {0, 1}
        assert scan.committed == {0}
        assert scan.pending == {1}
        assert not scan.issues
        assert scan.good_bytes == path.stat().st_size
        assert scan.next_rec == 4

    def test_torn_tail_is_classified_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = write_journal(path, RECORDS)
        data = "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        path.write_text(data)
        scan = scan_file(path)
        assert scan.torn_tail
        assert not scan.interior_issues
        # truncating at good_bytes drops exactly the torn line
        assert data[: scan.good_bytes] == "\n".join(lines[:-1]) + "\n"

    def test_interior_damage_is_not_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = write_journal(path, RECORDS)
        lines[1] = lines[1][:10] + "XX" + lines[1][12:]
        path.write_text("\n".join(lines) + "\n")
        scan = scan_file(path)
        assert not scan.torn_tail
        assert len(scan.interior_issues) == 1
        assert scan.interior_issues[0].line == 2

    def test_two_damaged_trailing_lines_are_interior(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = write_journal(path, RECORDS)
        lines[-2] = lines[-2][: len(lines[-2]) // 2]
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        path.write_text("\n".join(lines) + "\n")
        scan = scan_file(path)
        # one tear is a crash; two damaged lines cannot be
        assert not scan.torn_tail
        assert len(scan.interior_issues) == 2

    def test_vanished_line_is_a_rec_gap(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = write_journal(path, RECORDS)
        del lines[2]  # a whole committed line vanished, neighbours intact
        path.write_text("\n".join(lines) + "\n")
        scan = scan_file(path)
        assert [i.reason for i in scan.issues] == ["rec-gap"]
        assert not scan.torn_tail
        assert 0 not in scan.committed

    def test_rec_resyncs_after_damage(self, tmp_path):
        # a damaged line explains any rec discontinuity after it: only
        # ONE issue is reported, not a cascading rec-gap per line
        path = tmp_path / "j.jsonl"
        lines = write_journal(path, RECORDS)
        lines[1] = "garbage"
        path.write_text("\n".join(lines) + "\n")
        scan = scan_file(path)
        assert len(scan.issues) == 1
        assert scan.issues[0].reason == "unparseable"
        assert scan.records == 3

    def test_seal_and_epoch(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(
            path, RECORDS + [{"type": "seal", "epoch": 2, "committed": 1}]
        )
        scan = scan_file(path)
        assert scan.sealed
        assert scan.seals == 1
        assert scan.epoch == 2

    def test_records_after_seal_unseal_the_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(
            path,
            RECORDS[:3]
            + [{"type": "seal", "epoch": 1, "committed": 1}]
            + [RECORDS[3]],
        )
        scan = scan_file(path)
        assert not scan.sealed  # last record is not a seal
        assert scan.epoch == 1

    def test_mixed_v1_v2_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        v2 = [encode_record(RECORDS[0], 0), encode_record(RECORDS[1], 1)]
        v1 = [json.dumps({"type": "committed", "seq": 0, "status": "ok"})]
        path.write_text("\n".join(v2 + v1 + [encode_record(RECORDS[3], 3)]) + "\n")
        scan = scan_file(path)
        assert scan.v1_records == 1
        assert scan.v2_records == 3
        assert not scan.issues  # the v1 record consumed rec slot 2

    def test_loss_scope_is_json_ready(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = write_journal(path, RECORDS)
        lines[1] = "garbage"
        path.write_text("\n".join(lines) + "\n")
        scope = scan_file(path).loss_scope()
        json.dumps(scope)  # must serialize
        assert scope["interior_damage"] == 1
        assert scope["committed"] == 1


class TestCorruptionError:
    def test_message_is_one_line_and_actionable(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = write_journal(path, RECORDS)
        lines[1] = "garbage"
        path.write_text("\n".join(lines) + "\n")
        error = JournalCorruptionError(path, scan_file(path))
        message = str(error)
        assert "\n" not in message
        assert "fsck" in message
        assert "1 damaged line(s)" in message
        assert error.scan.records == 3


class TestAppendLog:
    def test_fsync_cadence(self, tmp_path):
        syncs = []

        def opener(path, mode):
            handle = open(path, mode, encoding="utf-8")
            handle.sync = lambda: syncs.append(path)
            return handle

        log = AppendLog(tmp_path / "log.jsonl", fsync_every_n=3, opener=opener)
        for record in RECORDS[:3]:
            log.append(record)
        assert len(syncs) == 1  # every third append
        log.append(RECORDS[3], sync=True)
        assert len(syncs) == 2
        log.sync()  # nothing pending since the last fsync
        assert len(syncs) == 2
        log.append(RECORDS[0])
        log.sync()
        assert len(syncs) == 3
        assert [r["rec"] for r in scan_file(log.path).parsed] == [0, 1, 2, 3, 4]
