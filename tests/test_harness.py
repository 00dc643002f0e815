import collections
import dataclasses
import json
import math
import re
import socket
import threading
import types
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellpath import bell_stats as bs
from bellpath import cli, harness
from bellpath.hv_models import ClockModel, MerminModel, Setting

I0, I1, I2 = Setting.index(0), Setting.index(1), Setting.index(2)
W = harness.WINDOW
#: v1 run logs written by the v1 harness, with the audit text it gave each
V1_LOGS = Path(__file__).parent / "data" / "v1_logs"


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


# the wire bytes of each message type, pinned: logs and wings of other
# versions must read them unchanged
_GOLDEN_LINES = [
    (harness.WireMessage("hello", 0, "A", {"role": "source", "model": "clock",
                                           "b_convention": "anti_aligned", "n_trials": 3,
                                           "window": 64}),
     '{"type":"hello","v":2,"trial":0,"wing":"A","payload":{"role":"source","model":"clock",'
     '"b_convention":"anti_aligned","n_trials":3,"window":64}}'),
    (harness.WireMessage("hello", 0, "B", {"role": "wing"}),
     '{"type":"hello","v":2,"trial":0,"wing":"B","payload":{"role":"wing"}}'),
    (harness.WireMessage("lambda", 41, "B", {"lambda": "4.1215426508012845"}),
     '{"type":"lambda","v":2,"trial":41,"wing":"B","payload":{"lambda":"4.1215426508012845"}}'),
    (harness.WireMessage("outcome", 41, "A", {"sign": -1, "setting": "a0.5"}),
     '{"type":"outcome","v":2,"trial":41,"wing":"A","payload":{"sign":-1,"setting":"a0.5"}}'),
    (harness.WireMessage("done", 1000, "A", {}),
     '{"type":"done","v":2,"trial":1000,"wing":"A","payload":{}}'),
    (harness.WireMessage("error", 7, "B", {"message": "bad \"λ\" payload"}),
     '{"type":"error","v":2,"trial":7,"wing":"B","payload":{"message":"bad \\"\\u03bb\\" payload"}}'),
]


@pytest.mark.parametrize("msg,line", _GOLDEN_LINES, ids=[m.type for m, _ in _GOLDEN_LINES])
def test_wire_lines_are_pinned(msg, line):
    assert msg.to_line() == line
    assert harness.WireMessage.from_line(line) == msg


def test_protocol_messages_are_written_from_the_template(monkeypatch):
    monkeypatch.setattr(harness, "_ENCODER", None)  # a fallback would raise AttributeError
    for msg, line in _GOLDEN_LINES:
        assert msg.to_line() == line


#: text the encoder escapes: quotes, backslashes, control characters,
#: non-ASCII letters, an astral character and lone surrogates
_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\u2028λ\U0001f600'),
                          st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF)))
_INTS = st.one_of(st.integers(-2**70, 2**70), st.integers())
_SCALARS = st.one_of(_TEXT, _INTS, st.booleans(), st.none(), st.floats())
#: payload values: the protocol's str and int, and every JSON value the
#: template leaves to the encoder (bool, float, None, lists and objects)
_VALUES = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(_TEXT, inner, max_size=3)), max_leaves=8)


class _Text(str):
    pass


_TYPES = st.one_of(st.sampled_from(["hello", "lambda", "outcome", "done", "error"]), _TEXT)
_WINGS = st.one_of(st.sampled_from(harness.WINGS), _TEXT)
_VERSIONS = st.one_of(st.just(harness.PROTOCOL_VERSION), _INTS)
_PLAIN_PAYLOADS = st.dictionaries(_TEXT, st.one_of(_TEXT, _INTS), max_size=4)
#: payloads the encoder writes, not the template: other values and keys
#: (which the encoder converts), a dict subclass, a str subclass, no dict
_OTHER_PAYLOADS = st.one_of(
    st.dictionaries(_TEXT, _VALUES, min_size=1, max_size=4),
    st.dictionaries(st.one_of(_INTS, st.booleans(), st.none(), st.floats()),
                    st.one_of(_TEXT, _INTS), min_size=1, max_size=3),
    st.dictionaries(_TEXT, _TEXT, max_size=3).map(collections.OrderedDict),
    st.dictionaries(_TEXT, _TEXT.map(_Text), min_size=1, max_size=3),
    _VALUES,
)
#: messages of the protocol's own kinds (the template writes these); the
#: same with an other payload; and any field of any JSON kind
_MESSAGES = st.one_of(
    st.builds(harness.WireMessage, _TYPES, _INTS, _WINGS, _PLAIN_PAYLOADS, _VERSIONS),
    st.builds(harness.WireMessage, _TYPES, _INTS, _WINGS, _OTHER_PAYLOADS, _VERSIONS),
    st.builds(harness.WireMessage,
              st.one_of(_TYPES, _TEXT.map(_Text), _SCALARS), st.one_of(_INTS, _SCALARS),
              st.one_of(_WINGS, _SCALARS), st.one_of(_PLAIN_PAYLOADS, _OTHER_PAYLOADS),
              st.one_of(_VERSIONS, _SCALARS)),
)


@settings(max_examples=400, deadline=None)
@given(_MESSAGES)
@example(harness.WireMessage("lambda", 10**4000, "A", {"n": -10**4000, "s": "\\\"\n\u00e9"}))
@example(harness.WireMessage("outcome", True, "A", {"sign": 1, "setting": "i0"}))
@example(harness.WireMessage("outcome", 1, "A", {"sign": True, "setting": "i0"}))
@example(harness.WireMessage("hello", 0, "A", {1: "x", None: 2}))
@example(harness.WireMessage("lambda", 0, "A", {"lambda": math.nan, "x": [1, {"y": None}]}))
def test_to_line_is_the_encoders_text_for_any_message(msg):
    obj = {"type": msg.type, "v": msg.v, "trial": msg.trial, "wing": msg.wing,
           "payload": msg.payload}
    assert msg.to_line() == harness._ENCODER.encode(obj)


def _decoded(line):
    """What from_line makes of ``line``: a message's repr (so NaN equals NaN), or the refusal."""
    try:
        return "accepted", repr(harness.WireMessage.from_line(line))
    except harness.WireError as exc:
        return "refused", str(exc)


_WIRE_LINES = _MESSAGES.map(harness.WireMessage.to_line)
#: wire lines, alone, between whitespace, a BOM or extra data, or cut short; any text
_LINES = st.one_of(
    _WIRE_LINES,
    st.tuples(st.sampled_from(["", " ", "\t", "\n", "\r\n", "\ufeff", "\ufeff "]), _WIRE_LINES,
              st.sampled_from(["", " ", "\t", "\n", "x", "{}", ",", " 1", "]", "\ufeff"])
              ).map("".join),
    st.tuples(_WIRE_LINES, st.integers(0, 120)).map(lambda pair: pair[0][:pair[1]]),
    st.text(),
)


@settings(max_examples=400, deadline=None)
@given(_LINES)
@example("")
@example("NaN")
@example('{"type":"x","v":2,"trial":0,"wing":"A","payload":{"a":NaN,"b":-Infinity}}')
@example(' {"type":"x","v":2,"trial":0,"wing":"A","payload":{}}\n')
@example('\ufeff{"type":"x","v":2,"trial":0,"wing":"A","payload":{}}')
@example('{"type":"x","v":2,"trial":0,"wing":"A","payload":{}}{}')
@example('{"type":"x","v":2,"trial":0,"wing":"A","payload":{}} x')
@example('{"type":"x","v":2,"trial":0,"wing":"A","payload":{"k":1,"k":2}}')
def test_from_line_accepts_and_refuses_as_json_loads_does(line):
    with mock.patch.object(harness, "_json_value", json.loads):
        want = _decoded(line)
    assert _decoded(line) == want


_STAMP = re.compile(r"^\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{6}\+00:00$")


def test_log_stamps_are_utc_microseconds_and_never_decrease():
    before = datetime.now(timezone.utc)
    log = harness.simulate_run(ClockModel(), harness.RandomPolicy([I0, I1], 5),
                               harness.RandomPolicy([I1, I2], 6), 300, seed=3)
    after = datetime.now(timezone.utc)
    stamps = [e.timestamp for e in log.entries]
    assert all(_STAMP.match(s) for s in stamps)
    parsed = [datetime.fromisoformat(s) for s in stamps]
    assert all(p.utcoffset() == timedelta(0) for p in parsed)
    assert parsed == sorted(parsed)
    assert before <= parsed[0] and parsed[-1] <= after


@pytest.mark.parametrize("ns,stamp", [
    (0, "1970-01-01T00:00:00.000000+00:00"),
    (1_700_000_000_999_999_999, "2023-11-14T22:13:20.999999+00:00"),
    (1_700_000_001_000_000_000, "2023-11-14T22:13:21.000000+00:00"),
])
def test_log_stamp_text_is_pinned(monkeypatch, ns, stamp):
    monkeypatch.setattr(harness.time, "time_ns", lambda: ns)
    log = harness.RunLog({})
    log.append(">", harness.WireMessage("done", 0, "A", {}))
    assert log.entries[0].timestamp == stamp


_FIELDS_ERROR = "message fields must be exactly ('type', 'v', 'trial', 'wing', 'payload')"


def _wire_text(trial="0", v="2", payload="{}"):
    return f'{{"type":"x","v":{v},"trial":{trial},"wing":"A","payload":{payload}}}'


#: nested deeper than the decoder recurses
_DEEP = "[" * 100_000 + "]" * 100_000


# each refusal's text, pinned, and which fault is named when several hold
@pytest.mark.parametrize("line, error", [
    ("not json", "not JSON: 'not json'"),
    ("[]", _FIELDS_ERROR),
    ('"x"', _FIELDS_ERROR),
    ("null", _FIELDS_ERROR),
    ("1", _FIELDS_ERROR),
    ('{"type":"x","v":2,"trial":0,"wing":"A"}', _FIELDS_ERROR),
    ('{"type":"x","v":2,"trial":0,"wing":"A","payload":{},"extra":1}', _FIELDS_ERROR),
    (_wire_text(payload="[]"), "payload must be an object"),
    (_wire_text(payload="[]", trial="true"), "payload must be an object"),
    (_wire_text(trial="true"), "trial must be an integer, got True"),
    (_wire_text(trial="1.0"), "trial must be an integer, got 1.0"),
    (_wire_text(trial='"1"'), "trial must be an integer, got '1'"),
    (_wire_text(trial="null"), "trial must be an integer, got None"),
    (_wire_text(trial="[0]"), "trial must be an integer, got [0]"),
    (_wire_text(v="1.5"), "v must be an integer, got 1.5"),
    (_wire_text(v="null"), "v must be an integer, got None"),
    (_wire_text(trial='"1"', v="2.0"), "trial must be an integer, got '1'"),
    ('{"type":["outcome"],"v":2,"trial":0,"wing":"A","payload":{}}',
     "type must be a string, got ['outcome']"),
    ('{"type":7,"v":2,"trial":0,"wing":null,"payload":{}}', "type must be a string, got 7"),
    ('{"type":"x","v":2,"trial":0,"wing":null,"payload":{}}', "wing must be a string, got None"),
    ('{"type":"x","v":2,"trial":0,"wing":["A"],"payload":{}}', "wing must be a string, got ['A']"),
    ('{"type":null,"v":null,"trial":0,"wing":"A","payload":{}}', "v must be an integer, got None"),
    pytest.param(_DEEP, f"nested too deeply to decode: {_DEEP[:80]!r}", id="deep-array"),
    pytest.param(_wire_text(payload=_DEEP),
                 f"nested too deeply to decode: {_wire_text(payload=_DEEP)[:80]!r}", id="deep-payload"),
    pytest.param(_wire_text(trial="9" * 5000),
                 f"number too long to decode: {_wire_text(trial='9' * 5000)[:80]!r}", id="long-trial"),
])
def test_wire_message_refusal_texts_are_pinned(line, error):
    with pytest.raises(harness.WireError) as info:
        harness.WireMessage.from_line(line)
    assert str(info.value) == error


def test_lambda_text_round_trip_is_exact():
    clock = ClockModel()
    lam = clock.sample_lambdas(123, 1)[0]
    assert clock.lambda_from_text(clock.lambda_text(lam)) == lam
    mermin = MerminModel.uniform()
    k = mermin.sample_lambdas(5, 1)[0]
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


@pytest.mark.filterwarnings("error")
def test_a_numpy_integer_policy_seed_draws_as_its_python_int():
    seed = 2**63 - 1  # seed + trial passes the int64 limit
    rand = harness.RandomPolicy((I0, I1, I2), np.int64(seed))
    want = harness.RandomPolicy((I0, I1, I2), seed)
    assert [rand.setting(t) for t in range(50)] == [want.setting(t) for t in range(50)]


@pytest.mark.parametrize("seed", [1.5, np.float64(3.0)])
def test_a_float_policy_seed_is_refused_when_the_policy_is_built(seed):
    with pytest.raises(TypeError):
        harness.RandomPolicy((I0, I1), seed)


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


_UNMEASURABLE = [harness.FixedPolicy(Setting.angle(2.5)),
                 harness.RandomPolicy((I0, Setting.angle(2.5)), 3)]


@pytest.mark.parametrize("policy", _UNMEASURABLE)
def test_simulate_run_refuses_a_setting_its_model_cannot_measure_before_any_trial(
        policy, monkeypatch):
    model = MerminModel.uniform()
    monkeypatch.setattr(model, "sample_lambdas", lambda *args: pytest.fail("a trial ran"))
    with pytest.raises(ValueError, match=r"^wing B cannot measure setting a2\.5: "):
        harness.simulate_run(model, harness.FixedPolicy(I0), policy, 10, seed=1)


@pytest.mark.parametrize("policy", _UNMEASURABLE)
def test_wing_serve_refuses_a_setting_its_model_cannot_measure_before_it_binds(policy):
    with pytest.raises(ValueError, match=r"^wing A cannot measure setting a2\.5: "):
        harness.wing_serve("A", MerminModel.uniform(), policy,
                           announce=lambda line: pytest.fail(f"bound: {line}"))


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


def test_silent_wing_times_out(monkeypatch):
    import time

    # a wing that accepts the connection and never answers
    monkeypatch.setattr(harness, "WING_TIMEOUT_S", 0.3)
    with socket.create_server(("127.0.0.1", 0)) as silent:
        start = time.monotonic()
        log = harness.source_run(ClockModel(), 5, 1, silent.getsockname()[:2],
                                 silent.getsockname()[:2])
        assert time.monotonic() - start < 5.0
    assert log.incomplete
    assert [(e.direction, e.message.type, e.message.wing) for e in log.entries] == \
        [(">", "hello", "A"), (">", "hello", "B")]


def test_wing_survives_unknown_message_type():
    V = harness.PROTOCOL_VERSION
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
        for bad in ({"type": "poke", "v": V, "trial": 0, "wing": "A", "payload": {}},
                    {"type": "lambda", "v": V, "trial": 0, "wing": "A", "payload": {}},
                    {"type": "lambda", "v": V, "trial": 0, "wing": "A",
                     "payload": {"lambda": "half past"}},
                    {"type": "lambda", "v": V, "trial": 0, "wing": "A",
                     "payload": {"lambda": None}},
                    *({"type": "lambda", "v": V, "trial": 0, "wing": "A",
                       "payload": {"lambda": text}} for text in ("nan", "inf", "-inf", "1e400")),
                    {"type": "lambda", "v": V, "trial": "zero", "wing": "A",
                     "payload": {"lambda": "0.25"}}):
            send(bad)
            reply = harness.WireMessage.from_line(rfile.readline().strip())
            assert reply.type == "error"
        lam = harness.WireMessage("lambda", 0, "A", {"lambda": "0.25"})
        send(json.loads(lam.to_line()))
        outcome = harness.WireMessage.from_line(rfile.readline().strip())
        assert outcome.type == "outcome"
        send(json.loads(harness.WireMessage("done", 1, "A", {}).to_line()))


def test_wing_answers_undecodable_bytes_with_an_error():
    host, port = start_wing("A", ClockModel(), harness.FixedPolicy(I0))
    hello = harness.WireMessage("hello", 0, "A", {
        "role": "source", "model": "clock", "b_convention": "anti_aligned", "n_trials": 0,
        "window": W})
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(b"\xff\xfe garbage\n")
        sock.sendall(hello.to_line().encode() + b"\n")
        rfile = sock.makefile("rb")
        first, second = (harness.WireMessage.from_bytes(rfile.readline().rstrip(b"\n"))
                         for _ in range(2))
        sock.sendall(harness.WireMessage("done", 0, "A", {}).to_line().encode() + b"\n")
    assert first.type == "error" and "not UTF-8" in first.payload["message"]
    assert second == harness.WireMessage("hello", 0, "A", {"role": "wing"})


@pytest.mark.parametrize("line", [
    pytest.param(_DEEP, id="deep-array"),
    pytest.param(_wire_text(payload=_DEEP), id="deep-payload"),
    pytest.param(_wire_text(trial="9" * 5000), id="long-trial"),
    pytest.param('{"type":["lambda"],"v":2,"trial":0,"wing":"A","payload":{}}', id="list-type"),
    pytest.param('{"type":"lambda","v":2,"trial":0,"wing":null,"payload":{"lambda":"0.5"}}',
                 id="null-wing"),
])
def test_wing_answers_an_unrepresentable_line_with_an_error_and_keeps_serving(line):
    host, port = start_wing("A", ClockModel(), harness.FixedPolicy(I0))
    hello = harness.WireMessage("hello", 0, "A", {
        "role": "source", "model": "clock", "b_convention": "anti_aligned", "n_trials": 1,
        "window": W})
    lam = harness.WireMessage("lambda", 0, "A", {"lambda": "0.25"})
    with socket.create_connection((host, port), timeout=10) as sock, sock.makefile("rb") as rfile:
        sock.sendall(f"{hello.to_line()}\n{line}\n{lam.to_line()}\n".encode())
        replies = [harness.WireMessage.from_bytes(rfile.readline().rstrip(b"\n")) for _ in range(3)]
        sock.sendall(harness.WireMessage("done", 1, "A", {}).to_line().encode() + b"\n")
    assert [r.type for r in replies] == ["hello", "error", "outcome"]
    assert replies[1].payload["message"] == _refusal(line)
    assert replies[2] == harness.WireMessage("outcome", 0, "A", {"sign": 1, "setting": "i0"})


def _refusal(line):
    with pytest.raises(harness.WireError) as info:
        harness.WireMessage.from_line(line)
    return str(info.value)


def test_two_wings_of_one_name_flag_the_log_incomplete(tmp_path, capsys):
    model = ClockModel()
    addr_a = start_wing("A", model, harness.FixedPolicy(I0))
    addr_b = start_wing("A", model, harness.FixedPolicy(I1))
    log = harness.source_run(model, 10, 3, addr_a, addr_b)
    assert log.incomplete
    assert [(e.direction, e.message.type, e.message.wing) for e in log.entries] == \
        [(">", "hello", "A"), (">", "hello", "B"), ("<", "hello", "A"), ("<", "hello", "A")]
    cfg = tmp_path / "clock.cfg"
    cfg.write_text("model=clock\nb_convention=anti_aligned\n")
    addr_a = start_wing("A", model, harness.FixedPolicy(I0))
    addr_b = start_wing("A", model, harness.FixedPolicy(I1))
    code = cli.main(["source", "--model-config", str(cfg), "--n", "10", "--seed", "3",
                     "--wing-a", "%s:%d" % addr_a, "--wing-b", "%s:%d" % addr_b,
                     "--log", str(tmp_path / "run.log")])
    assert code == cli.EXIT_INCOMPLETE
    assert harness.RunLog.read(tmp_path / "run.log").incomplete


def fake_wing(reply: bytes):
    """A wing that answers the first line it reads with ``reply`` and hangs up."""
    srv = socket.create_server(("127.0.0.1", 0))

    def serve():
        with srv:
            conn, _ = srv.accept()
            with conn, conn.makefile("rb") as rfile:
                rfile.readline()
                conn.sendall(reply)

    threading.Thread(target=serve, daemon=True).start()
    return srv.getsockname()[:2]


def test_undecodable_reply_flags_log_incomplete():
    model = ClockModel()
    addr_a = start_wing("A", model, harness.FixedPolicy(I0))
    log = harness.source_run(model, 10, 3, addr_a, fake_wing(b"\xff\xfe\n"))
    assert log.incomplete
    assert [(e.direction, e.message.type, e.message.wing) for e in log.entries] == \
        [(">", "hello", "A"), (">", "hello", "B"), ("<", "hello", "A")]
    assert harness.audit_log(log).ok


@pytest.mark.parametrize("line, fault", [
    ("nospaces", "not 'timestamp direction message': 'nospaces'"),
    ("2023-11-14T22:13:20.999999+00:00 > {oops", "not JSON: '{oops'"),
])
def test_audit_names_a_malformed_log_line(line, fault, tmp_path, capsys):
    path = tmp_path / "bad.log"
    clean_log().write(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.insert(8, line)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.main(["audit", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path} line 9: {fault}\n"


def test_a_log_is_read_line_by_line_not_as_one_joined_array(tmp_path, capsys):
    # Joined into one JSON array, these two lines decode to two valid
    # messages; each alone is not JSON, and the log must be refused.
    first = '{"type":"lambda","v":2,"trial":0,"wing":"A","payload":{"lambda":"0.5"}},{"type":"lambda","v":2'
    second = '"trial":0,"wing":"B","payload":{"lambda":"0.5"}}'
    assert [harness.WireMessage(**obj) for obj in json.loads(f"[{first},{second}]")] == [
        harness.WireMessage("lambda", 0, wing, {"lambda": "0.5"}) for wing in harness.WINGS]
    stamp = "2023-11-14T22:13:20.999999+00:00"
    path = tmp_path / "joined.log"
    path.write_text(f"# v=2\n{stamp} > {first}\n{stamp} > {second}\n", encoding="utf-8")
    with pytest.raises(harness.WireError) as info:
        harness.RunLog.read(path)
    assert str(info.value) == f"{path} line 2: not JSON: {first!r}"
    assert cli.main(["audit", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path} line 2: not JSON: {first!r}\n"


def test_socket_run_log_is_rebuilt_from_its_messages(tmp_path):
    model = ClockModel()
    addr_a = start_wing("A", model, harness.RandomPolicy((I0, I1), seed=4))
    addr_b = start_wing("B", model, harness.RandomPolicy((I1, I2), seed=5))
    n = W + 10
    log = harness.source_run(model, n, seed=9, endpoint_a=addr_a, endpoint_b=addr_b)
    assert not log.incomplete
    sent = [e for e in log.entries if e.direction == ">"]
    assert len(sent) == 2 * (n + 2)
    written, rebuilt, again = (tmp_path / f"{name}.log" for name in ("run", "rebuilt", "again"))
    log.write(written)
    harness.RunLog(log.meta, [harness.LogEntry(e.timestamp, e.direction, e.message)
                              for e in log.entries], log.incomplete).write(rebuilt)
    assert written.read_bytes() == rebuilt.read_bytes()
    harness.RunLog.read(written).write(again)
    assert again.read_bytes() == written.read_bytes()


def test_single_trial_merge_has_no_stderr():
    model = ClockModel()
    log = harness.simulate_run(model, harness.FixedPolicy(I0), harness.FixedPolicy(I1), 1, seed=6)
    cell = harness.merge_statistics(log)[0]
    assert cell.estimate.n_trials == 1
    assert cell.estimate.stderr is None


def test_wing_crash_yields_auditable_prefix():
    model = ClockModel()
    addr_a = start_wing("A", model, harness.FixedPolicy(I0))
    addr_b = start_wing("B", model, harness.FixedPolicy(I1), quit_after=40)
    log = harness.source_run(model, 100, seed=23, endpoint_a=addr_a, endpoint_b=addr_b)
    assert log.incomplete
    # wing B drops the connection in the middle of window 0
    assert 40 < W
    assert [e.message.trial for e in log.entries if e.message.type == "lambda"] == \
        [t for t in range(W) for _ in "AB"]
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
    """An in-process wing whose outcome for one trial is replaced."""

    def __init__(self, wing, model, policy, trial, fault):
        self.inner = harness._LocalLink(wing, model, policy)
        self.trial, self.fault = trial, fault
        self.last = None

    def send(self, msg):
        self.inner.send(msg)

    def flush(self):
        self.inner.flush()

    def recv(self):
        reply = self.inner.recv()
        if reply.type == "outcome" and reply.trial == self.trial:
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
    assert log.entries[-1].message == log.entries[find_entry(log, "<", "outcome", "B", 5)].message
    assert_incomplete_with_clean_prefix(log, model, 6, 31)


def test_wing_error_reply_flags_log_incomplete():
    model = ClockModel()
    log = run_with_fault_on_b(model, 20, 31, 9, lambda last, reply: harness.WireMessage(
        "error", reply.trial, "B", {"message": "detector fault"}))
    assert log.entries[-1].message.type == "error"
    assert_incomplete_with_clean_prefix(log, model, 9, 31)


#: outcome replies that break the wire schema: a sign other than the integer
#: 1 or -1, a setting other than a Setting's own text (one that does not
#: parse, or another spelling of a setting), a missing key, an extra key
BAD_OUTCOMES = [
    {"sign": 1, "setting": "x"},
    {"sign": 1, "setting": 5},
    {"sign": 1, "setting": "i3"},
    {"sign": -1, "setting": "anan"},
    {"sign": -1, "setting": "a1e400"},
    {"sign": 1, "setting": "i+1"},
    {"sign": 1, "setting": "a0.50"},
    {"sign": 0, "setting": "i1"},
    {"sign": 2, "setting": "i1"},
    {"sign": True, "setting": "i1"},
    {"sign": 1.0, "setting": "i1"},
    {"sign": "1", "setting": "i1"},
    {"sign": None, "setting": "i1"},
    {"setting": "i1"},
    {"sign": 1},
    {"sign": 1, "setting": "i1", "extra": "i0"},
]


@pytest.mark.parametrize("payload", BAD_OUTCOMES)
def test_outcome_breaking_the_schema_flags_log_incomplete(payload):
    model = ClockModel()
    log = run_with_fault_on_b(model, 20, 31, 9, lambda last, reply: harness.WireMessage(
        "outcome", reply.trial, "B", payload))
    assert log.incomplete
    assert log.entries[-1].message.payload == payload
    # the run stops at the bad reply, which the audit names at its index
    report = harness.audit_log(log)
    assert [(v.index, v.code) for v in report.violations] == [(len(log.entries) - 1, "schema")]
    sim = harness.simulate_run(model, harness.FixedPolicy(I0), harness.FixedPolicy(I1), 9, 31)
    cells = harness.merge_statistics(log)
    assert [c.estimate for c in cells] == [c.estimate for c in harness.merge_statistics(sim)]
    assert all(c.partial for c in cells)


@pytest.mark.parametrize("payload", BAD_OUTCOMES)
def test_merge_skips_a_hand_edited_outcome_breaking_the_schema(payload, tmp_path):
    log = clean_log()
    want = harness.merge_statistics(log)[0]
    idx = find_entry(log, "<", "outcome", "B", trial=4)
    a_sign = log.entries[find_entry(log, "<", "outcome", "A", trial=4)].message.payload["sign"]
    b_sign = log.entries[idx].message.payload["sign"]
    replace_entry(log, idx, harness.WireMessage("outcome", 4, "B", payload))
    log.write(tmp_path / "edited.log")
    back = harness.RunLog.read(tmp_path / "edited.log")
    assert not back.incomplete
    assert any(v.index == idx and v.code == "schema" for v in harness.audit_log(back).violations)
    (cell,) = harness.merge_statistics(back)
    assert cell.partial
    assert cell.estimate.n_trials == want.estimate.n_trials - 1
    assert cell.estimate.sum_products == want.estimate.sum_products - a_sign * b_sign
    n, total = cell.estimate.n_trials, cell.estimate.sum_products
    assert cell.p_agree == (n + total) // 2 / n


class SettingTextAfter:
    """Measures at i1, but from trial ``trial`` on reports ``text`` as its setting."""

    def __init__(self, trial, text):
        self.trial, self.text = trial, text

    def setting(self, trial):
        if trial < self.trial:
            return I1
        return types.SimpleNamespace(radians=I1.radians, text=self.text)


@pytest.mark.parametrize("text", ["x", 5, "i3", "anan", "a1e400", "i+1"])
def test_source_command_stops_at_an_unusable_outcome_setting(text, tmp_path, capsys):
    cfg = tmp_path / "clock.cfg"
    cfg.write_text("model=clock\nb_convention=anti_aligned\n")
    addr_a = start_wing("A", ClockModel(), harness.FixedPolicy(I0))
    addr_b = start_wing("B", ClockModel(), SettingTextAfter(7, text))
    log_path = tmp_path / "bad.log"
    code = cli.main(["source", "--model-config", str(cfg), "--n", "20", "--seed", "3",
                     "--wing-a", "%s:%d" % addr_a, "--wing-b", "%s:%d" % addr_b,
                     "--log", str(log_path)])
    header, row = capsys.readouterr().out.splitlines()
    assert code == 3
    assert row.startswith("i0,i1,") and row.split(",")[4] == "7"
    assert cli.main(["audit", str(log_path)]) == 2
    assert f"[schema] setting {text!r}" in capsys.readouterr().out


def test_merge_agreement_counts_equal_signs():
    log = harness.simulate_run(ClockModel(), harness.RandomPolicy([I0, I1, I2], 4),
                               harness.RandomPolicy([I0, I1, I2], 5), 300, seed=8)
    signs = {}
    for e in log.entries:
        if e.direction == "<" and e.message.type == "outcome":
            signs.setdefault(e.message.trial, {})[e.message.wing] = (
                e.message.payload["sign"], e.message.payload["setting"])
    for cell in harness.merge_statistics(log):
        pairs = [(w["A"][0], w["B"][0]) for w in signs.values()
                 if (w["A"][1], w["B"][1]) == (cell.setting_a.text, cell.setting_b.text)]
        assert cell.estimate.n_trials == len(pairs)
        assert cell.p_agree == sum(a == b for a, b in pairs) / len(pairs)


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
    replace_entry(log, idx, harness.WireMessage("lambda", 1, "A", old.payload, v=1))
    report = harness.audit_log(log)
    assert any(v.index == idx and v.code == "schema" for v in report.violations)


def test_contradicting_duplicate_outcome_is_caught():
    log = clean_log()
    idx = find_entry(log, "<", "outcome", "B", trial=4)
    old = log.entries[idx]
    flipped = dict(old.message.payload, sign=-old.message.payload["sign"])
    log.entries.insert(idx + 1, harness.LogEntry(
        old.timestamp, "<", harness.WireMessage("outcome", 4, "B", flipped)))
    report = harness.audit_log(log)
    assert [(v.index, v.code) for v in report.violations] == [(idx + 1, "duplicate_outcome")]
    cells = harness.merge_statistics(log)
    assert cells[0].partial
    want = harness.merge_statistics(clean_log())[0]
    assert cells[0].estimate.n_trials == want.estimate.n_trials - 1
    sign = old.message.payload["sign"]
    a_sign = log.entries[find_entry(log, "<", "outcome", "A", trial=4)].message.payload["sign"]
    assert cells[0].estimate.sum_products == want.estimate.sum_products - a_sign * sign
    # an identical repeat stays accepted and changes nothing
    log = clean_log()
    log.entries.insert(idx + 1, log.entries[idx])
    assert harness.audit_log(log).ok
    assert harness.merge_statistics(log) == [want]


def test_audit_report_text_lists_indices():
    log = clean_log()
    idx = find_entry(log, ">", "lambda", "B", trial=7)
    old = log.entries[idx].message
    replace_entry(log, idx, harness.WireMessage("lambda", 7, "B", {"lambda": "0.1"}))
    text = harness.audit_log(log).text()
    assert f"entry {idx}" in text
    assert "lambda_mismatch" in text


# -- windows of trials -------------------------------------------------------------------


def window_log(n=2 * W + 10, seed=12):
    return harness.simulate_run(ClockModel(), harness.RandomPolicy([I0, I1, I2], 4),
                                harness.RandomPolicy([I0, I1, I2], 5), n, seed)


def test_messages_of_a_window_travel_together():
    n = W + 3
    log = window_log(n)
    want = [(">", "hello", 0)] * 2 + [("<", "hello", 0)] * 2
    for window in (range(W), range(W, n)):
        want += [(">", "lambda", t) for t in window for _ in "AB"]
        want += [("<", "outcome", t) for t in window for _ in "AB"]
    want += [(">", "done", n)] * 2
    assert [(e.direction, e.message.type, e.message.trial) for e in log.entries] == want
    assert [e.message.wing for e in log.entries] == ["A", "B"] * (len(want) // 2)
    assert log.meta["v"] == 2 and {e.message.v for e in log.entries} == {2}
    assert [e.message.payload["window"] for e in log.entries[:2]] == [W, W]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3 * W + 5), st.integers(0, 2**40), st.integers(0, 2**40))
@example(0, 1, 2)
@example(1, 3, 4)
@example(W - 1, 5, 6)
@example(W, 7, 8)
@example(W + 1, 9, 10)
@example(3 * W + 5, 11, 12)
def test_windowed_runs_audit_clean(n, seed, policy_seed):
    log = harness.simulate_run(ClockModel(), harness.RandomPolicy([I0, I1, I2], policy_seed),
                               harness.RandomPolicy([I0, I1, I2], policy_seed + 1), n, seed)
    report = harness.audit_log(log)
    assert report.ok and report.n_trials_seen == n and not report.incomplete


@pytest.mark.parametrize("w", [0, 1])
def test_lambda_of_the_next_window_before_an_outcome_is_flagged(w):
    base = window_log()
    last = max(i for i, e in enumerate(base.entries)
               if e.direction == "<" and e.message.trial // W == w)
    early = [i for i, e in enumerate(base.entries)
             if e.message.type == "lambda" and e.message.trial // W == w + 1]
    assert len(early) == (2 * W if w == 0 else 20)
    for i in early:
        log = dataclasses.replace(base, entries=list(base.entries))
        log.entries.insert(last, log.entries.pop(i))
        codes = [(v.index, v.code) for v in harness.audit_log(log).violations]
        assert (last, "lockstep") in codes


def test_audit_holds_the_log_to_the_window_its_hellos_name():
    def with_window(window):
        log = window_log()
        for idx in (0, 1):
            old = log.entries[idx].message
            replace_entry(log, idx, harness.WireMessage(
                "hello", 0, old.wing, dict(old.payload, window=window)))
        return harness.audit_log(log)

    assert with_window(2 * W).ok
    for window in (1, W // 2):
        report = with_window(window)
        assert report.violations and {v.code for v in report.violations} == {"lockstep"}


@pytest.mark.parametrize("window_a, window_b, flagged", [
    (None, None, "AB"), (None, W, "A"), (W, None, "B"), (0, 0, "AB"), ("64", "64", "AB"),
    (W, "64", "B"), (-1, W, "A"), (True, True, "AB"), (1.5, 1.5, "AB"), (W, 32, "B"),
    (32, W, "B"),
])
def test_bad_hello_window_is_a_schema_violation(window_a, window_b, flagged):
    log = window_log()
    hellos = {}
    for wing, window in (("A", window_a), ("B", window_b)):
        idx = hellos[wing] = find_entry(log, ">", "hello", wing)
        payload = {k: v for k, v in log.entries[idx].message.payload.items() if k != "window"}
        if window is not None:
            payload["window"] = window
        replace_entry(log, idx, harness.WireMessage("hello", 0, wing, payload))
    report = harness.audit_log(log)
    assert {v.index for v in report.violations if v.code == "schema"} == \
        {hellos[wing] for wing in flagged}


def test_mixed_protocol_versions_are_flagged():
    log = window_log()
    idx = find_entry(log, "<", "outcome", "B", trial=W + 2)
    old = log.entries[idx].message
    replace_entry(log, idx, harness.WireMessage("outcome", old.trial, "B", old.payload, v=1))
    assert [(v.index, v.code) for v in harness.audit_log(log).violations] == [(idx, "schema")]
    # the first message names the log's version, which must be 1 or 2
    log = window_log(3)
    log.entries[:] = [harness.LogEntry(e.timestamp, e.direction,
                                       dataclasses.replace(e.message, v=3)) for e in log.entries]
    report = harness.audit_log(log)
    assert [(v.index, v.code) for v in report.violations] == \
        [(i, "schema") for i in range(len(log.entries))]


V1_TEXTS = json.loads((V1_LOGS / "audit_texts.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(V1_TEXTS))
def test_v1_logs_audit_as_they_did_under_v1(name):
    log = harness.RunLog.read(V1_LOGS / f"{name}.log")
    assert log.meta["v"] == "1"
    assert harness.audit_log(log).text() == V1_TEXTS[name]


class CountingSocket:
    """A socket that counts the writes and reads made through it."""

    def __init__(self, sock):
        self.sock, self.writes, self.reads = sock, 0, 0

    def sendall(self, data):
        self.writes += 1
        return self.sock.sendall(data)

    def send(self, data):
        self.writes += 1
        return self.sock.send(data)

    def recv(self, size):
        self.reads += 1
        return self.sock.recv(size)

    def __getattr__(self, name):
        return getattr(self.sock, name)


def test_source_writes_each_window_to_a_wing_at_once(monkeypatch):
    model = ClockModel()
    endpoints = {"A": start_wing("A", model, harness.RandomPolicy([I0, I1], 1)),
                 "B": start_wing("B", model, harness.RandomPolicy([I1, I2], 2))}
    socks, decoded = {}, []
    connect, from_bytes = socket.create_connection, harness.WireMessage.from_bytes

    def counting_connect(endpoint, *args, **kwargs):
        wing = "A" if endpoint == endpoints["A"] else "B"
        socks[wing] = CountingSocket(connect(endpoint, *args, **kwargs))
        return socks[wing]

    def counting_from_bytes(raw):
        msg = from_bytes(raw)
        if threading.current_thread() is threading.main_thread():  # the source, not a wing
            decoded.append(msg)
        return msg

    monkeypatch.setattr(harness.socket, "create_connection", counting_connect)
    monkeypatch.setattr(harness.WireMessage, "from_bytes", staticmethod(counting_from_bytes))
    n = 200
    log = harness.source_run(model, n, 8, endpoints["A"], endpoints["B"])
    assert not log.incomplete and harness.audit_log(log).ok
    received = [e.message for e in log.entries if e.direction == "<"]
    assert decoded == received and len(received) == 2 * (n + 1)
    for sock in socks.values():
        # hello, one write per window, done
        assert sock.writes <= math.ceil(n / W) + 2
        assert sock.reads <= n + 1


def test_a_window_of_lines_stays_far_below_the_socket_buffers():
    trial = 10**15 - 1  # a trial number beyond any run
    clock, mermin = ClockModel(), MerminModel.uniform()
    lambdas = [clock.lambda_text(math.ulp(0.0)), clock.lambda_text(math.nextafter(2 * math.pi, 0)),
               *(mermin.lambda_text(k) for k in range(8))]
    assert max(map(len, lambdas)) == len("4.9406564584124654e-324")
    lines = [harness.WireMessage("lambda", trial, "A", {"lambda": text}) for text in lambdas]
    lines.append(harness.WireMessage("outcome", trial, "A", {
        "sign": -1, "setting": Setting.angle(-math.ulp(0.0)).text}))
    longest = max(len(msg.to_line()) + 1 for msg in lines)
    assert W * longest < 16 * 1024
