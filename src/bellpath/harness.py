"""Process-separated Bell runs over a line-delimited wire protocol.

A run involves three roles: a source/coordinator and two measurement wings.
Per trial the source draws one hidden-variable value, sends the identical
serialization to both wings, and collects one outcome from each.  A wing
chooses its setting locally, after the hidden variable arrives, and replies
with (sign, local setting).  The wire schema has no field that could carry
a remote wing's setting toward a wing, so no-signaling holds by
construction; the audit makes that checkable from the log alone.

Wire format: one JSON object per line with exactly the fields
``type, v, trial, wing, payload`` and protocol version v=2 everywhere.
Message types are hello, lambda, outcome, done, error.  Real-valued hidden
variables travel as decimal text with 17 significant digits (exact
round-trip); instruction sets as 3-character strings.

Trials run in windows of ``WINDOW`` (named in the source's hello): the
source writes the lambda lines of a whole window to each wing at once, then
reads the outcomes in trial order, and sends no lambda of the next window
before every outcome of this one has arrived.  A wing answers each line in
turn, whatever the window, and writes the replies to all the lines it holds
at once.

``simulate_run`` runs the same source loop against the same wing protocol,
with the wings called in process instead of over sockets.

The source's log records every message with an ISO-8601 timestamp and a
direction marker (``>`` sent, ``<`` received).  Every message is logged as
its canonical encoding ``WireMessage.to_line``, which is the text the
source and the wings write to the wire, so a sent line is logged as sent.
Messages and log entries are slotted records, not frozen ones: a run builds
several per trial in every process that handles them, and nothing changes
one once the run has logged it.
Merged statistics are computed from the log after the run, the way a real
experiment would, and reproduce the in-process estimators bit for bit under
the same seed schedule.  ``audit_log`` also reads logs of protocol v1, which
ran one trial at a time.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import operator
import socket
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import TYPE_CHECKING

from . import rng
from .hv_models import LhvModel, Setting

if TYPE_CHECKING:
    from .bell_stats import CorrelationEstimate

PROTOCOL_VERSION = 2
WINGS = ("A", "B")

#: Trials the source keeps in flight to each wing.  The source writes a
#: window's lambda lines to both wings before it reads a reply, and each wing
#: writes its replies before the source reads them, so a window must fit in
#: the socket buffers: WINDOW times the longest lambda line (under 120 bytes,
#: about 5 KB for a clock angle at any trial number below 10**15; outcome lines
#: are as short) stays far below a loopback socket buffer (over 200 KB on
#: Linux).  A pinned protocol constant, not a setting: the audit reads it from
#: the source's hello.
WINDOW = 64

#: Bytes asked of the socket per read; a whole window of lines fits in one.
_RECV_BYTES = 1 << 16

#: Seconds the source waits to connect to a wing and for each of its replies;
#: a wing that stays silent longer ends the run with the log flagged incomplete.
WING_TIMEOUT_S = 30.0

_FIELDS = ("type", "v", "trial", "wing", "payload")
_FIELD_SET = frozenset(_FIELDS)

# payload key sets per (direction, type); direction is the source's view
_SCHEMA_SENT = {
    "hello": {"role", "model", "b_convention", "n_trials", "window"},
    "lambda": {"lambda"},
    "done": set(),
}
_SCHEMA_RECEIVED = {
    "hello": {"role"},
    "outcome": {"sign", "setting"},
    "error": {"message"},
}
# a v1 source ran one trial at a time and named no window
_SCHEMA_SENT_V1 = dict(_SCHEMA_SENT, hello=_SCHEMA_SENT["hello"] - {"window"})
_AUDITED_VERSIONS = (1, 2)


@functools.lru_cache(maxsize=256)
def _parsed_setting(text: str) -> Setting | None:
    """The Setting whose own text is ``text``, or None.

    A text that does not parse is refused, and so is one that parses to a
    setting written otherwise (``i+1``, ``a0.50``): merged cells are keyed
    by the text, so two spellings would split one cell.  A run repeats a
    few texts, so each is parsed once.
    """
    try:
        setting = Setting.from_text(text)
    except ValueError:
        return None
    return setting if setting.text == text else None


def _outcome_fault(payload: dict) -> str | None:
    """What breaks the outcome payload rule, or None: the keys are exactly
    sign and setting, the sign is the integer 1 or -1, and the setting is
    a setting's own text (``Setting.text``)."""
    expected = _SCHEMA_RECEIVED["outcome"]
    if payload.keys() != expected:
        return f"outcome payload keys {sorted(payload)} != {sorted(expected)}"
    sign = payload["sign"]
    if type(sign) is not int or sign not in (1, -1):
        return f"sign {sign!r}"
    setting = payload["setting"]
    if type(setting) is not str or _parsed_setting(setting) is None:
        return f"setting {setting!r}"
    return None


# json.dumps builds a new encoder per call when given separators; one is enough
_ENCODER = json.JSONEncoder(separators=(",", ":"))
# the decoder json.loads uses, with its own defaults; scan_once reads one value
_SCAN_ONCE = json.JSONDecoder().scan_once


def _json_value(line: str):
    """``json.loads(line)``: its value, or its exception.

    The scanner reads a line that is one JSON value from its first character
    to its last; any other line (leading or trailing whitespace, a BOM,
    extra data, no JSON at all) goes to ``json.loads``, which accepts or
    refuses it with its own message.
    """
    try:
        obj, end = _SCAN_ONCE(line, 0)
    except (StopIteration, json.JSONDecodeError):
        end = None
    return obj if end == len(line) else json.loads(line)


class WireError(ValueError):
    """Malformed or out-of-protocol message."""


@dataclass(slots=True)
class WireMessage:
    type: str
    trial: int
    wing: str
    payload: dict
    v: int = PROTOCOL_VERSION

    def to_line(self) -> str:
        """The compact JSON of the five fields in wire order, ``_ENCODER``'s text.

        A message of the protocol's own kinds (str type and wing, int v and
        trial, a dict payload of str keys and str or int values) is written
        from one template: strings quoted as ``_ENCODER`` quotes them
        (``encode_basestring_ascii``), an int as ``int.__repr__`` writes it,
        which is how an f-string formats an exact int.  Any other message
        (a bool, float, None or nested value, a subclass, a non-str key) goes
        to ``_ENCODER`` itself.
        """
        mtype, v, trial, wing, payload = self.type, self.v, self.trial, self.wing, self.payload
        if (type(mtype) is str and type(wing) is str and type(v) is int
                and type(trial) is int and type(payload) is dict):
            items = []
            for key, value in payload.items():
                if type(key) is not str:
                    break
                if type(value) is str:
                    items.append(f"{_quote(key)}:{_quote(value)}")
                elif type(value) is int:
                    items.append(f"{_quote(key)}:{value}")
                else:
                    break
            else:
                body = ",".join(items)
                return (f'{{"type":{_quote(mtype)},"v":{v},"trial":{trial},'
                        f'"wing":{_quote(wing)},"payload":{{{body}}}}}')
        return _ENCODER.encode({"type": mtype, "v": v, "trial": trial,
                                "wing": wing, "payload": payload})

    @staticmethod
    def from_line(line: str) -> "WireMessage":
        try:
            obj = _json_value(line)
        except json.JSONDecodeError as exc:
            raise WireError(f"not JSON: {line!r}") from exc
        except RecursionError as exc:
            raise WireError(f"nested too deeply to decode: {line[:80]!r}") from exc
        except ValueError as exc:  # an integer of more digits than int() converts
            raise WireError(f"number too long to decode: {line[:80]!r}") from exc
        if type(obj) is not dict or obj.keys() != _FIELD_SET:
            raise WireError(f"message fields must be exactly {_FIELDS}")
        payload, trial, v = obj["payload"], obj["trial"], obj["v"]
        mtype, wing = obj["type"], obj["wing"]
        if type(payload) is not dict:
            raise WireError("payload must be an object")
        if type(trial) is not int:
            raise WireError(f"trial must be an integer, got {trial!r}")
        if type(v) is not int:
            raise WireError(f"v must be an integer, got {v!r}")
        if type(mtype) is not str:
            raise WireError(f"type must be a string, got {mtype!r}")
        if type(wing) is not str:
            raise WireError(f"wing must be a string, got {wing!r}")
        return WireMessage(mtype, trial, wing, payload, v)

    @staticmethod
    def from_bytes(raw: bytes) -> "WireMessage":
        """The message of one wire line as read from a socket, newline removed."""
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"not UTF-8: {raw[:80]!r}") from exc
        return WireMessage.from_line(line)


def _wire_bytes(lines: list[str]) -> bytes:
    """The bytes of some wire lines, each ended by a newline, for one write."""
    return ("\n".join(lines) + "\n").encode("utf-8")


def _wire_lines(sock: socket.socket):
    """Per read from ``sock``, the list of wire lines it completed, until the
    peer closes."""
    tail = b""
    while chunk := sock.recv(_RECV_BYTES):
        *lines, tail = (tail + chunk).split(b"\n")
        yield lines


@dataclass(slots=True)
class LogEntry:
    timestamp: str
    direction: str  # ">" sent by source, "<" received by source
    message: WireMessage


@functools.lru_cache(maxsize=1)
def _utc_second(second: int) -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(second))


@dataclass
class RunLog:
    meta: dict
    entries: list[LogEntry] = field(default_factory=list)
    incomplete: bool = False

    def append(self, direction: str, message: WireMessage):
        # The text of datetime.now(timezone.utc).isoformat(timespec="microseconds"),
        # microseconds truncated, with the date and time of day formatted once
        # per second rather than once per message.
        second, ns = divmod(time.time_ns(), 1_000_000_000)
        stamp = f"{_utc_second(second)}.{ns // 1000:06d}+00:00"
        self.entries.append(LogEntry(stamp, direction, message))

    def write(self, path):
        """Write the log, each message as ``to_line`` encodes it."""
        lines = [f"# {k}={v}" for k, v in self.meta.items()]
        lines.append(f"# incomplete={str(self.incomplete).lower()}")
        lines.extend(f"{e.timestamp} {e.direction} {e.message.to_line()}" for e in self.entries)
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @staticmethod
    def read(path) -> "RunLog":
        meta: dict = {}
        entries: list[LogEntry] = []
        incomplete = False
        for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            if not raw.strip():
                continue
            if raw.startswith("#"):
                key, _, value = raw[1:].strip().partition("=")
                if key == "incomplete":
                    incomplete = value == "true"
                else:
                    meta[key] = value
                continue
            parts = raw.split(" ", 2)
            try:
                if len(parts) != 3:
                    raise WireError(f"not 'timestamp direction message': {raw[:80]!r}")
                entries.append(LogEntry(parts[0], parts[1], WireMessage.from_line(parts[2])))
            except WireError as exc:
                raise WireError(f"{path} line {lineno}: {exc}") from None
        return RunLog(meta, entries, incomplete)


# -- setting policies ---------------------------------------------------------

class FixedPolicy:
    """The wing always measures at one setting, its only choice."""

    def __init__(self, setting: Setting):
        self.choices = (setting,)

    def setting(self, trial: int) -> Setting:
        return self.choices[0]


class RandomPolicy:
    """Per-trial uniform draw from a choice list, seeded wing-locally."""

    def __init__(self, choices, seed: int):
        self.choices = tuple(choices)
        if not self.choices:
            raise ValueError("need at least one choice")
        self.seed = operator.index(seed)  # seed + trial must not overflow a numpy integer

    def setting(self, trial: int) -> Setting:
        u = rng.uniform(self.seed + trial)
        return self.choices[min(int(u * len(self.choices)), len(self.choices) - 1)]


def _check_choices(wing_id: str, model: LhvModel, policy) -> None:
    """Refuse a policy choice the model cannot measure, before any trial.

    A policy is any object with ``setting(trial)``; one that lists no
    ``choices`` has nothing to check here.
    """
    for setting in getattr(policy, "choices", ()):
        try:
            model.check_setting(setting)
        except ValueError as exc:
            raise ValueError(f"wing {wing_id} cannot measure setting {setting.text}: {exc}") \
                from None


# -- wing ----------------------------------------------------------------------

def _wing_reply(wing_id: str, model: LhvModel, policy, msg: WireMessage):
    """The wing protocol: one message in, ``(reply or None, keep_serving)`` out.

    ``wing_serve`` runs it behind a socket and ``simulate_run`` calls it in
    process.  A malformed message draws an ``error`` reply and the wing keeps
    serving; a foreign protocol version or model ends the session.
    """
    def reply(mtype: str, payload: dict) -> WireMessage:
        return WireMessage(mtype, msg.trial, wing_id, payload)

    if msg.v != PROTOCOL_VERSION:
        return reply("error", {"message": f"protocol version {msg.v} refused"}), False
    if msg.type == "hello":
        if msg.payload.get("model") != model.name or \
                msg.payload.get("b_convention") != model.b_convention:
            return reply("error", {"message": "model/convention mismatch refused"}), False
        return reply("hello", {"role": "wing"}), True
    if msg.type == "lambda":
        try:
            lam = model.lambda_from_text(msg.payload["lambda"])
        except (KeyError, ValueError, TypeError) as exc:
            return reply("error", {"message": f"bad lambda payload: {exc!r}"}), True
        setting = policy.setting(msg.trial)
        outcome = model.outcome_a if wing_id == "A" else model.outcome_b
        return reply("outcome", {"sign": int(outcome(lam, setting)), "setting": setting.text}), True
    if msg.type == "done":
        return None, False
    return reply("error", {"message": f"unknown message type {msg.type!r}"}), True


def wing_serve(
    wing_id: str,
    model: LhvModel,
    policy,
    host: str = "127.0.0.1",
    port: int = 0,
    quit_after: int | None = None,
    announce=None,
) -> None:
    """Serve one run: answer lambda messages with outcomes until done.

    Binds host:port (port 0 picks a free one) and reports the bound
    endpoint through ``announce`` before accepting.  Each read answers every
    complete line it brought, in order, and writes those replies at once.
    ``quit_after`` drops the connection abruptly after that many outcomes,
    for crash testing.  A policy choice the model cannot measure raises
    ValueError before the wing binds.
    """
    if wing_id not in WINGS:
        raise ValueError(f"wing_id must be one of {WINGS}")
    _check_choices(wing_id, model, policy)
    with socket.create_server((host, port)) as srv:
        bound = srv.getsockname()
        if announce is not None:
            announce(f"WING {wing_id} LISTENING {bound[0]} {bound[1]}")
        conn, _ = srv.accept()
    served = 0
    with conn:
        for lines in _wire_lines(conn):
            replies, serving, crashed = [], True, False
            for raw in lines:
                try:
                    msg = WireMessage.from_bytes(raw)
                except WireError as exc:
                    reply, serving = WireMessage("error", 0, wing_id, {"message": str(exc)}), True
                else:
                    reply, serving = _wing_reply(wing_id, model, policy, msg)
                if reply is not None:
                    replies.append(reply.to_line())
                    if reply.type == "outcome":
                        served += 1
                        crashed = quit_after is not None and served >= quit_after
                if crashed or not serving:
                    break
            if replies:
                conn.sendall(_wire_bytes(replies))
            if crashed:
                conn.shutdown(socket.SHUT_RDWR)  # simulated crash
            if crashed or not serving:
                break


# -- source --------------------------------------------------------------------

class _WingLink:
    """A wing over a socket: sent lines queue until ``flush`` writes them at
    once, and each read may bring several replies."""

    def __init__(self, wing: str, endpoint: tuple[str, int]):
        self.wing = wing
        self.sock = socket.create_connection(endpoint, timeout=WING_TIMEOUT_S)
        self.queued: list[str] = []
        self.lines = itertools.chain.from_iterable(_wire_lines(self.sock))

    def send(self, msg: WireMessage) -> None:
        self.queued.append(msg.to_line())

    def flush(self):
        if self.queued:
            self.sock.sendall(_wire_bytes(self.queued))
            self.queued = []

    def recv(self) -> WireMessage:
        raw = next(self.lines, None)
        if raw is None:
            raise ConnectionError(f"wing {self.wing} disconnected")
        return WireMessage.from_bytes(raw)

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


class _LocalLink:
    """A wing in process: each message goes straight to ``_wing_reply``, and
    its reply queues until the source reads it."""

    def __init__(self, wing: str, model: LhvModel, policy):
        self.wing, self.model, self.policy = wing, model, policy
        self.replies: collections.deque[WireMessage] = collections.deque()

    def send(self, msg: WireMessage) -> None:
        reply, _ = _wing_reply(self.wing, self.model, self.policy, msg)
        if reply is not None:
            self.replies.append(reply)

    def flush(self):
        pass

    def recv(self) -> WireMessage:
        if not self.replies:
            raise ConnectionError(f"wing {self.wing} sent no reply")
        return self.replies.popleft()

    def close(self):
        pass


def _run(model: LhvModel, n_trials: int, seed: int, connect) -> RunLog:
    """The source's side of one run over the links ``connect(wing)`` opens."""
    log = RunLog({"v": PROTOCOL_VERSION, "model": model.name,
                  "b_convention": model.b_convention, "n_trials": n_trials, "seed": seed})
    links = {}

    def send_all(mtype: str, trial: int, payload: dict):
        for wing, link in links.items():
            # one payload per message, so editing a log entry cannot alter its twin
            msg = WireMessage(mtype, trial, wing, dict(payload))
            link.send(msg)
            log.append(">", msg)

    def flush_all():
        for link in links.values():
            link.flush()

    def recv_all(mtype: str, trial: int):
        for wing, link in links.items():
            reply = link.recv()
            log.append("<", reply)
            if reply.type == "error":
                raise ConnectionError(f"wing {wing} error: {reply.payload.get('message')}")
            if (reply.type != mtype or reply.trial != trial or reply.v != PROTOCOL_VERSION
                    or reply.wing != wing):
                raise ConnectionError(f"wing {wing} broke lockstep: {reply.to_line()}")
            if mtype == "outcome" and (fault := _outcome_fault(reply.payload)):
                raise WireError(f"wing {wing} broke the outcome schema: {fault}")

    try:
        for wing in WINGS:
            links[wing] = connect(wing)
        send_all("hello", 0, {"role": "source", "model": model.name,
                              "b_convention": model.b_convention, "n_trials": n_trials,
                              "window": WINDOW})
        flush_all()
        recv_all("hello", 0)
        lams = model.sample_lambdas(seed, n_trials).tolist()
        for start in range(0, n_trials, WINDOW):
            window = range(start, min(start + WINDOW, n_trials))
            for t in window:
                send_all("lambda", t, {"lambda": model.lambda_text(lams[t])})
            flush_all()
            for t in window:
                recv_all("outcome", t)
        send_all("done", n_trials, {})
        flush_all()
    except (ConnectionError, OSError, WireError):
        log.incomplete = True
    finally:
        for link in links.values():
            link.close()
    return log


def source_run(
    model: LhvModel,
    n_trials: int,
    seed: int,
    endpoint_a: tuple[str, int],
    endpoint_b: tuple[str, int],
) -> RunLog:
    """Coordinate one distributed run and return its message log.

    Trial t's hidden variable comes from the stream of seed + t, the same
    schedule the in-process estimators use.  Trials run in windows of
    ``WINDOW``: each window's lambdas go to a wing in one write, and both
    outcomes of every trial of a window are logged before the next window
    starts.  A wing failure, or a reply that is not a wire line, aborts the
    run and flags the log incomplete; the completed prefix is still
    auditable and mergeable.
    """
    endpoints = {"A": endpoint_a, "B": endpoint_b}
    return _run(model, n_trials, seed, lambda wing: _WingLink(wing, endpoints[wing]))


def simulate_run(model: LhvModel, policy_a, policy_b, n_trials: int, seed: int) -> RunLog:
    """In-process twin of source_run + two wings, no sockets.

    The same source loop drives the same wing protocol, so the log equals a
    distributed run's message for message under the same configuration.  A
    policy choice the model cannot measure raises ValueError before any trial.
    """
    policies = {"A": policy_a, "B": policy_b}
    for wing, policy in policies.items():
        _check_choices(wing, model, policy)
    return _run(model, n_trials, seed, lambda wing: _LocalLink(wing, model, policies[wing]))


# -- audit -----------------------------------------------------------------------

AUDIT_HEADER = (
    "no-signaling audit: verifies from message content alone that the run "
    "needed no channel carrying a remote setting: the wire schema admits no "
    "such field, identical hidden-variable payloads went to both wings, and "
    "outcomes preceded any cross-wing aggregation. The audit does not "
    "examine timing side channels, and it certifies this run's messages "
    "only, not the impossibility of other channels."
)


@dataclass(frozen=True)
class Violation:
    index: int  # entry index in the log
    code: str
    detail: str


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    violations: tuple[Violation, ...]
    n_trials_seen: int
    incomplete: bool

    def text(self) -> str:
        lines = [AUDIT_HEADER, ""]
        lines.append(f"trials seen: {self.n_trials_seen}")
        lines.append(f"log complete: {str(not self.incomplete).lower()}")
        if self.ok:
            lines.append("violations: none")
        else:
            lines.append(f"violations: {len(self.violations)}")
            for v in self.violations:
                lines.append(f"  entry {v.index}: [{v.code}] {v.detail}")
        return "\n".join(lines) + "\n"


def _payload_leaves(payload) -> list:
    out = []
    stack = [payload]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, (list, tuple)):
            stack.extend(node)
        else:
            out.append(node)
    return out


def audit_log(log: RunLog) -> AuditReport:
    """Check a run log for any sign of cross-wing setting flow.

    Three layers: (1) schema, every message carries the log's protocol
    version (its first message's, 1 or 2) and has exactly the protocol
    fields and the payload keys its (direction, type) allows, and in a v2 log
    both source hellos name one positive integer window W; (2) the genetic
    hypothesis, identical lambda text to both wings per trial, dense trial
    ids, both outcomes of every trial of a window of W before any lambda of
    the next window (W = 1 in a v1 log: each trial's outcomes before the next
    trial's lambdas), at most one outcome per trial and wing (an identical
    repeat is allowed); (3) content, no payload value delivered to a wing
    equals a setting the other wing reported.
    """
    violations: list[Violation] = []
    lam_text: dict[int, dict[str, tuple[int, str]]] = {}
    outcome_seen: dict[int, dict[str, dict]] = {}
    settings_used: dict[str, set[str]] = {"A": set(), "B": set()}
    max_lambda_trial = {"A": -1, "B": -1}
    n_trials_seen = 0
    version = log.entries[0].message.v if log.entries else PROTOCOL_VERSION
    sent_schema = _SCHEMA_SENT_V1 if version == 1 else _SCHEMA_SENT
    # the window both hellos agree on; until then, or in a v1 log, one trial
    hello_windows: dict[str, int] = {}
    window = 1
    complete_windows: set[int] = set()  # windows with both outcomes of every trial

    for idx, entry in enumerate(log.entries):
        msg = entry.message
        if msg.v != version or msg.v not in _AUDITED_VERSIONS:
            violations.append(Violation(idx, "schema", f"protocol version {msg.v}"))
        if msg.wing not in WINGS:
            violations.append(Violation(idx, "schema", f"unknown wing {msg.wing!r}"))
            continue
        schema = sent_schema if entry.direction == ">" else _SCHEMA_RECEIVED
        if msg.type not in schema:
            violations.append(Violation(
                idx, "flow", f"{msg.type!r} message may not travel direction {entry.direction!r}"))
            continue
        expected = schema[msg.type]
        if msg.payload.keys() != expected:
            violations.append(Violation(
                idx, "schema",
                f"{msg.type} payload keys {sorted(msg.payload)} != {sorted(expected)}"))
            continue
        if entry.direction == ">" and msg.type == "hello" and "window" in expected:
            w, agreed = msg.payload["window"], set(hello_windows.values())
            if type(w) is not int or w < 1:
                violations.append(Violation(
                    idx, "schema", f"hello window {w!r} is not a positive integer"))
            elif agreed and w not in agreed:
                violations.append(Violation(
                    idx, "schema", f"hello window {w} differs from the other hello's {agreed.pop()}"))
            else:
                hello_windows[msg.wing] = w
                if len(hello_windows) == len(WINGS) and w != window:
                    window = w
                    complete_windows.clear()
        if entry.direction == "<" and msg.type == "outcome":
            if fault := _outcome_fault(msg.payload):
                violations.append(Violation(idx, "schema", fault))
            settings_used[msg.wing].add(str(msg.payload["setting"]))
            first = outcome_seen.setdefault(msg.trial, {}).setdefault(msg.wing, msg.payload)
            if first != msg.payload:
                violations.append(Violation(
                    idx, "duplicate_outcome",
                    f"trial {msg.trial}: second wing-{msg.wing} outcome differs from the first"))
        if entry.direction == ">" and msg.type == "lambda":
            t = msg.trial
            if t != max_lambda_trial[msg.wing] + 1:
                violations.append(Violation(
                    idx, "trial_order",
                    f"wing {msg.wing} lambda trial {t} after {max_lambda_trial[msg.wing]}"))
            max_lambda_trial[msg.wing] = max(max_lambda_trial[msg.wing], t)
            lam_text.setdefault(t, {})[msg.wing] = (idx, msg.payload["lambda"])
            previous = t // window - 1
            if previous >= 0 and previous not in complete_windows:
                trials = range(previous * window, (previous + 1) * window)
                missing = next((s for s in trials if len(outcome_seen.get(s, ())) != 2), None)
                if missing is None:
                    complete_windows.add(previous)
                else:
                    violations.append(Violation(
                        idx, "lockstep",
                        f"trial {t} lambda before both outcomes of trial {missing}"))
            n_trials_seen = max(n_trials_seen, t + 1)

    for t, per_wing in sorted(lam_text.items()):
        if set(per_wing) == {"A", "B"}:
            (ia, ta), (ib, tb) = per_wing["A"], per_wing["B"]
            if ta != tb:
                violations.append(Violation(
                    max(ia, ib), "lambda_mismatch",
                    f"trial {t}: wings got different hidden variables"))

    # content scan: wing-bound payload values vs the other wing's settings
    for idx, entry in enumerate(log.entries):
        if entry.direction != ">":
            continue
        other = "B" if entry.message.wing == "A" else "A"
        remote = settings_used[other]
        for leaf in _payload_leaves(entry.message.payload):
            if isinstance(leaf, str) and leaf in remote:
                violations.append(Violation(
                    idx, "content",
                    f"payload value {leaf!r} equals a wing-{other} setting"))

    violations.sort(key=lambda v: v.index)
    return AuditReport(not violations, tuple(violations), n_trials_seen, log.incomplete)


# -- merged statistics -------------------------------------------------------------

@dataclass(frozen=True)
class MergedCell:
    setting_a: Setting
    setting_b: Setting
    estimate: CorrelationEstimate
    p_agree: float
    partial: bool


def merge_statistics(log: RunLog) -> list[MergedCell]:
    """Group completed trials by setting pair and compute E per cell.

    Uses the same integer tallies as the in-process estimators, so for a
    fixed seed schedule the distributed and in-process results are
    identical, not merely statistically compatible.  Trials missing an
    outcome (an incomplete run's tail), holding one that breaks the wire
    schema, or two different outcomes from one wing are skipped and the
    cells flagged partial.
    """
    outcomes: dict[int, dict[str, tuple[int, str]]] = {}
    skipped: set[int] = set()
    for entry in log.entries:
        msg = entry.message
        if entry.direction == "<" and msg.type == "outcome":
            if _outcome_fault(msg.payload):
                skipped.add(msg.trial)
                continue
            got = (msg.payload["sign"], msg.payload["setting"])
            if outcomes.setdefault(msg.trial, {}).setdefault(msg.wing, got) != got:
                skipped.add(msg.trial)
    partial = log.incomplete or bool(skipped)
    cells: dict[tuple[str, str], list[int]] = {}
    for t in sorted(outcomes):
        per_wing = outcomes[t]
        if t in skipped or set(per_wing) != {"A", "B"}:
            partial = True
            continue
        (sa, ta), (sb, tb) = per_wing["A"], per_wing["B"]
        cells.setdefault((ta, tb), []).append(sa * sb)
    from .bell_stats import _estimate_from_tally

    out = []
    for (ta, tb), prods in sorted(cells.items()):
        est = _estimate_from_tally(sum(prods), len(prods))
        out.append(MergedCell(_parsed_setting(ta), _parsed_setting(tb), est, est.p_agree, partial))
    return out

