import dataclasses
import threading

import pytest

from bellpath import bell_stats as bs
from bellpath import harness
from bellpath.hv_models import ClockModel, MerminModel, Setting

I0, I1, I2 = Setting.index(0), Setting.index(1), Setting.index(2)


def start_wing(wing_id, model, policy, quit_after=None):
    """Run a wing in a daemon thread; returns its (host, port)."""
    endpoint = {}
    ready = threading.Event()

    def announce(line):
        _, _, _, host, port = line.split()
        endpoint["addr"] = (host, int(port))
        ready.set()

    thread = threading.Thread(
        target=harness.wing_serve,
        args=(wing_id, model, policy),
        kwargs={"port": 0, "quit_after": quit_after, "announce": announce},
        daemon=True,
    )
    thread.start()
    assert ready.wait(10)
    return endpoint["addr"]


# -- wire format -----------------------------------------------------------------


def test_wire_message_round_trip():
    msg = harness.WireMessage("lambda", 3, "A", {"lambda": "0.25"})
    back = harness.WireMessage.from_line(msg.to_line())
    assert back == msg


def test_wire_message_rejects_bad_shapes():
    with pytest.raises(harness.WireError):
        harness.WireMessage.from_line("not json")
    with pytest.raises(harness.WireError):
        harness.WireMessage.from_line('{"type":"x","v":1,"trial":0,"wing":"A"}')
    with pytest.raises(harness.WireError):
        harness.WireMessage.from_line(
            '{"type":"x","v":1,"trial":0,"wing":"A","payload":{},"extra":1}')
    for trial, v in (('"x"', "1"), ("null", "1"), ("[0]", "1"), ("true", "1"), ("0", "1.5")):
        with pytest.raises(harness.WireError):
            harness.WireMessage.from_line(
                f'{{"type":"x","v":{v},"trial":{trial},"wing":"A","payload":{{}}}}')


def test_lambda_text_round_trip_is_exact():
    clock = ClockModel()
    lam = clock.sample_lambda(123)
    assert clock.lambda_from_text(clock.lambda_text(lam)) == lam
    mermin = MerminModel.uniform()
    k = mermin.sample_lambda(5)
    assert mermin.lambda_from_text(mermin.lambda_text(k)) == k


def test_run_log_file_round_trip(tmp_path):
    model = ClockModel()
    log = harness.simulate_run(model, harness.FixedPolicy(I0), harness.FixedPolicy(I1), 5, seed=3)
    path = tmp_path / "run.log"
    log.write(path)
    back = harness.RunLog.read(path)
    assert back.incomplete == log.incomplete
    assert [e.message for e in back.entries] == [e.message for e in log.entries]
    assert back.meta["model"] == "clock"


# -- policies ---------------------------------------------------------------------


def test_policies_are_reproducible():
    fixed = harness.FixedPolicy(I2)
    assert fixed.setting(0) == fixed.setting(99) == I2
    rand = harness.RandomPolicy((I0, I1, I2), seed=7)
    seq1 = [rand.setting(t) for t in range(50)]
    seq2 = [harness.RandomPolicy((I0, I1, I2), seed=7).setting(t) for t in range(50)]
    assert seq1 == seq2
    assert len({s.text for s in seq1}) == 3


# -- in-process twin ---------------------------------------------------------------


def test_simulated_run_audits_clean_and_merges_like_estimate():
    model = ClockModel()
    log = harness.simulate_run(model, harness.FixedPolicy(I0), harness.FixedPolicy(I1), 400, seed=11)
    report = harness.audit_log(log)
    assert report.ok
    assert report.n_trials_seen == 400
    cells = harness.merge_statistics(log)
    assert len(cells) == 1
    cell = cells[0]
    est = bs.estimate_E(model, I0, I1, 400, seed=11)
    assert cell.estimate.mean == est.mean
    assert cell.estimate.stderr == est.stderr
    assert not cell.partial


def test_empty_run_is_valid():
    model = ClockModel()
    log = harness.simulate_run(model, harness.FixedPolicy(I0), harness.FixedPolicy(I0), 0, seed=0)
    assert harness.audit_log(log).ok
    assert harness.merge_statistics(log) == []


def test_point_mass_run_is_fully_determined():
    model = MerminModel.point_mass("RRG")
    log = harness.simulate_run(model, harness.FixedPolicy(I0), harness.FixedPolicy(I0), 100, seed=1)
    cells = harness.merge_statistics(log)
    assert cells[0].estimate.mean == 1.0
    exact = bs.exact_E(model, I0, I0)
    assert cells[0].estimate.mean == exact.mean


# -- distributed over loopback -------------------------------------------------------


def test_distributed_run_matches_in_process():
    model = ClockModel()
    addr_a = start_wing("A", model, harness.FixedPolicy(I0))
    addr_b = start_wing("B", model, harness.FixedPolicy(I1))
    log = harness.source_run(model, 300, seed=17, endpoint_a=addr_a, endpoint_b=addr_b)
    assert not log.incomplete
    assert harness.audit_log(log).ok
    sim = harness.simulate_run(model, harness.FixedPolicy(I0), harness.FixedPolicy(I1), 300, seed=17)
    got = harness.merge_statistics(log)
    want = harness.merge_statistics(sim)
    assert [dataclasses.astuple(c) for c in got] == [dataclasses.astuple(c) for c in want]


def test_distributed_random_policies_match_simulation():
    model = MerminModel.uniform()
    pol_a = harness.RandomPolicy((I0, I1, I2), seed=100)
    pol_b = harness.RandomPolicy((I0, I1, I2), seed=200)
    addr_a = start_wing("A", model, pol_a)
    addr_b = start_wing("B", model, pol_b)
    log = harness.source_run(model, 200, seed=5, endpoint_a=addr_a, endpoint_b=addr_b)
    assert harness.audit_log(log).ok
    sim = harness.simulate_run(model, pol_a, pol_b, 200, seed=5)
    assert log.meta == sim.meta
    assert [(e.direction, e.message) for e in log.entries] == \
        [(e.direction, e.message) for e in sim.entries]
    got = {(c.setting_a.text, c.setting_b.text): dataclasses.astuple(c)
           for c in harness.merge_statistics(log)}
    want = {(c.setting_a.text, c.setting_b.text): dataclasses.astuple(c)
            for c in harness.merge_statistics(sim)}
    assert got == want
    assert len(got) == 9


def test_wing_survives_unknown_message_type():
    import json
    import socket

    model = ClockModel()
    host, port = start_wing("A", model, harness.FixedPolicy(I0))
    with socket.create_connection((host, port), timeout=10) as sock:
        rfile = sock.makefile("r", encoding="utf-8", newline="\n")
        wfile = sock.makefile("w", encoding="utf-8", newline="\n")

        def send(obj):
            wfile.write(json.dumps(obj) + "\n")
            wfile.flush()

        hello = harness.WireMessage("hello", 0, "A", {
            "role": "source", "model": "clock",
            "b_convention": "anti_aligned", "n_trials": 1})
        send(json.loads(hello.to_line()))
        assert harness.WireMessage.from_line(rfile.readline().strip()).type == "hello"
        # unknown types and malformed messages draw an error reply, but the
        # connection stays up
        for bad in ({"type": "poke", "v": 1, "trial": 0, "wing": "A", "payload": {}},
                    {"type": "lambda", "v": 1, "trial": 0, "wing": "A", "payload": {}},
                    {"type": "lambda", "v": 1, "trial": 0, "wing": "A",
                     "payload": {"lambda": "half past"}},
                    {"type": "lambda", "v": 1, "trial": 0, "wing": "A",
                     "payload": {"lambda": None}},
                    {"type": "lambda", "v": 1, "trial": "zero", "wing": "A",
                     "payload": {"lambda": "0.25"}}):
            send(bad)
            reply = harness.WireMessage.from_line(rfile.readline().strip())
            assert reply.type == "error"
        lam = harness.WireMessage("lambda", 0, "A", {"lambda": "0.25"})
        send(json.loads(lam.to_line()))
        outcome = harness.WireMessage.from_line(rfile.readline().strip())
        assert outcome.type == "outcome"
        send(json.loads(harness.WireMessage("done", 1, "A", {}).to_line()))


def test_single_trial_merge_has_no_stderr():
    model = ClockModel()
    log = harness.simulate_run(model, harness.FixedPolicy(I0), harness.FixedPolicy(I1), 1, seed=6)
    cell = harness.merge_statistics(log)[0]
    assert cell.estimate.n_trials == 1
    assert cell.estimate.stderr is None
    row = harness.merge_csv_rows([cell])[0]
    assert ",," in row  # stderr field is empty


def test_wing_crash_yields_auditable_prefix():
    model = ClockModel()
    addr_a = start_wing("A", model, harness.FixedPolicy(I0))
    addr_b = start_wing("B", model, harness.FixedPolicy(I1), quit_after=40)
    log = harness.source_run(model, 100, seed=23, endpoint_a=addr_a, endpoint_b=addr_b)
    assert log.incomplete
    report = harness.audit_log(log)
    assert report.ok  # the completed prefix carries no violation
    cells = harness.merge_statistics(log)
    assert cells[0].partial
    sim = harness.simulate_run(model, harness.FixedPolicy(I0), harness.FixedPolicy(I1), 40, seed=23)
    want = harness.merge_statistics(sim)[0]
    assert cells[0].estimate.mean == want.estimate.mean
    assert cells[0].estimate.n_trials == want.estimate.n_trials


# -- fault injection through the source loop -----------------------------------------


class FaultyLink:
    """An in-process wing whose reply to one lambda trial is replaced."""

    def __init__(self, wing, model, policy, trial, fault):
        self.inner = harness._LocalLink(wing, model, policy)
        self.trial, self.fault = trial, fault
        self.sent = self.last = None

    def send(self, msg):
        self.sent = msg
        self.inner.send(msg)

    def recv(self):
        reply = self.inner.recv()
        if self.sent.type == "lambda" and self.sent.trial == self.trial:
            reply = self.fault(self.last, reply)
        self.last = reply
        return reply

    def close(self):
        pass


def run_with_fault_on_b(model, n, seed, trial, fault):
    def connect(wing):
        if wing == "A":
            return harness._LocalLink("A", model, harness.FixedPolicy(I0))
        return FaultyLink("B", model, harness.FixedPolicy(I1), trial, fault)

    return harness._run(model, n, seed, connect)


def assert_incomplete_with_clean_prefix(log, model, n_done, seed):
    assert log.incomplete
    assert harness.audit_log(log).ok
    sim = harness.simulate_run(model, harness.FixedPolicy(I0), harness.FixedPolicy(I1),
                               n_done, seed)
    got = [(c.estimate.mean, c.estimate.n_trials) for c in harness.merge_statistics(log)]
    assert got == [(c.estimate.mean, c.estimate.n_trials) for c in harness.merge_statistics(sim)]


def test_duplicate_trial_reply_flags_log_incomplete():
    model = ClockModel()
    # wing B answers trial 6 by repeating its outcome for trial 5
    log = run_with_fault_on_b(model, 20, 31, 6, lambda last, reply: last)
    assert log.entries[-1].message == log.entries[-5].message
    assert_incomplete_with_clean_prefix(log, model, 6, 31)


def test_wing_error_reply_flags_log_incomplete():
    model = ClockModel()
    log = run_with_fault_on_b(model, 20, 31, 9, lambda last, reply: harness.WireMessage(
        "error", reply.trial, "B", {"message": "detector fault"}))
    assert log.entries[-1].message.type == "error"
    assert_incomplete_with_clean_prefix(log, model, 9, 31)


def test_refused_handshake_flags_log_incomplete():
    model = ClockModel()
    other = ClockModel(b_convention="aligned")
    log = harness._run(model, 20, 31, lambda wing: harness._LocalLink(
        wing, model if wing == "A" else other, harness.FixedPolicy(I0)))
    assert [e.message.type for e in log.entries] == ["hello", "hello", "hello", "error"]
    assert log.entries[-1].message.payload == {"message": "model/convention mismatch refused"}
    assert_incomplete_with_clean_prefix(log, model, 0, 31)


# -- negative audits --------------------------------------------------------------------


def clean_log():
    model = ClockModel()
    return harness.simulate_run(model, harness.FixedPolicy(I0), harness.FixedPolicy(I1), 10, seed=2)


def find_entry(log, direction, mtype, wing, trial=None):
    for i, e in enumerate(log.entries):
        if (e.direction == direction and e.message.type == mtype and e.message.wing == wing
                and (trial is None or e.message.trial == trial)):
            return i
    raise AssertionError("entry not found")


def replace_entry(log, idx, message):
    old = log.entries[idx]
    log.entries[idx] = harness.LogEntry(old.timestamp, old.direction, message)


def test_audit_flags_injected_field_at_correct_index():
    log = clean_log()
    idx = find_entry(log, ">", "lambda", "A", trial=3)
    old = log.entries[idx].message
    replace_entry(log, idx, harness.WireMessage(
        "lambda", old.trial, old.wing, dict(old.payload, beta="i1")))
    report = harness.audit_log(log)
    assert not report.ok
    assert any(v.index == idx and v.code == "schema" for v in report.violations)


def test_audit_flags_lambda_mismatch_at_correct_index():
    log = clean_log()
    idx = find_entry(log, ">", "lambda", "B", trial=4)
    old = log.entries[idx].message
    replace_entry(log, idx, harness.WireMessage(
        "lambda", old.trial, old.wing, {"lambda": "0.5"}))
    report = harness.audit_log(log)
    assert not report.ok
    assert any(v.index == idx and v.code == "lambda_mismatch" for v in report.violations)


def test_audit_flags_setting_value_smuggled_to_a_wing():
    log = clean_log()
    idx = find_entry(log, ">", "lambda", "A", trial=5)
    old = log.entries[idx].message
    # wing B reports setting i1; the same text in an A-bound payload is flagged
    replace_entry(log, idx, harness.WireMessage(
        "lambda", old.trial, old.wing, {"lambda": "i1"}))
    report = harness.audit_log(log)
    assert any(v.index == idx and v.code == "content" for v in report.violations)


def test_audit_flags_outcome_in_wrong_direction():
    log = clean_log()
    idx = find_entry(log, ">", "lambda", "A", trial=6)
    replace_entry(log, idx, harness.WireMessage("outcome", 6, "A", {"sign": 1, "setting": "i0"}))
    report = harness.audit_log(log)
    assert any(v.index == idx and v.code == "flow" for v in report.violations)


def test_audit_flags_wrong_protocol_version():
    log = clean_log()
    idx = find_entry(log, ">", "lambda", "A", trial=1)
    old = log.entries[idx].message
    replace_entry(log, idx, harness.WireMessage("lambda", 1, "A", old.payload, v=2))
    report = harness.audit_log(log)
    assert any(v.index == idx and v.code == "schema" for v in report.violations)


def test_audit_report_text_lists_indices():
    log = clean_log()
    idx = find_entry(log, ">", "lambda", "B", trial=7)
    old = log.entries[idx].message
    replace_entry(log, idx, harness.WireMessage("lambda", 7, "B", {"lambda": "0.1"}))
    text = harness.audit_log(log).text()
    assert f"entry {idx}" in text
    assert "lambda_mismatch" in text
