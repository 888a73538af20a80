"""Open-loop load generator for the ``serve-mixed`` workload.

One process, one ``selectors`` loop, at most ``os.cpu_count()``
connections.  Every frame is encoded before the clock starts; requests
go out on a fixed schedule (evenly spaced at the rung's rate) whether or
not earlier ones have been answered, and each latency is timed from the
request's *due* time, so a stall in the daemon is charged to every
request it delays.  How late the generator itself ran is reported, and
a pass whose generator fell behind is marked invalid instead of scored.
"""

from __future__ import annotations

import json
import selectors
import socket
import time
from dataclasses import dataclass, field

from repro.serve import protocol

# A generator that sends more than this late (p99) was not holding the
# schedule, so its latencies describe the generator, not the daemon.
MAX_LATE_P99_MS = 20.0
# A request unanswered this long after the last due time has failed.
ANSWER_TIMEOUT_S = 10.0


@dataclass
class Request:
    """One pre-encoded request and what came back for it."""

    kind: str  # "score" or "write"
    frame: bytes
    due: float = 0.0  # seconds after the pass start
    latency: float | None = None
    late: float = 0.0
    response: dict | None = None
    tokens: list | None = None  # what was sent, for the library replay
    is_spam: bool = False


@dataclass
class PassResult:
    wall_s: float
    late_p99_ms: float
    backlog_max: int
    backlog_end: int
    errors: int
    valid: bool = True
    notes: list[str] = field(default_factory=list)


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of an unsorted list."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class _Conn:
    def __init__(self, address: tuple[str, int]) -> None:
        self.sock = socket.create_connection(address, timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()
        self.writing = False


def run_pass(
    address: tuple[str, int],
    requests: list[Request],
    rate: float,
    connections: int,
    first_id: int,
    closed_depth: int = 0,
) -> PassResult:
    """Drive ``requests`` against the daemon and collect every reply.

    Open loop (``closed_depth == 0``): request ``i`` is due at
    ``i / rate`` seconds.  Closed loop (``closed_depth > 0``): each
    connection keeps that many requests in flight, and latency is
    timed from the send — used only for the bulk re-scoring pass.
    Request ids are ``first_id + i``; the frames must carry them.
    """
    conns = [_Conn(address) for _ in range(connections)]
    selector = selectors.DefaultSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    header = protocol.HEADER.size
    total = len(requests)
    sent = completed = errors = 0
    backlog_max = 0
    lates: list[float] = []
    open_loop = closed_depth == 0
    if open_loop:
        for index, request in enumerate(requests):
            request.due = index / rate

    def flush(conn: _Conn) -> None:
        if conn.out:
            try:
                count = conn.sock.send(conn.out)
            except BlockingIOError:
                count = 0
            del conn.out[:count]
        want = bool(conn.out)
        if want != conn.writing:
            conn.writing = want
            events = selectors.EVENT_READ | (selectors.EVENT_WRITE if want else 0)
            selector.modify(conn.sock, events, conn)

    def send(index: int, now: float) -> None:
        nonlocal sent
        conn = conns[index % connections]
        request = requests[index]
        if open_loop:
            request.late = now - (start + request.due)
        else:
            request.due = now - start
        lates.append(request.late)
        conn.out += request.frame
        sent += 1
        flush(conn)

    start = time.perf_counter() + 0.02
    deadline = None
    backlog_end = 0
    try:
        if not open_loop:
            now = time.perf_counter()
            start = now
            for index in range(min(total, closed_depth * connections)):
                send(index, now)
        while completed < total:
            now = time.perf_counter()
            if open_loop:
                while sent < total and start + requests[sent].due <= now:
                    send(sent, now)
                outstanding = sent - completed
                backlog_max = max(backlog_max, outstanding)
                timeout = (start + requests[sent].due - now) if sent < total else 0.05
            else:
                timeout = 0.05
            if sent == total and deadline is None:
                deadline = now + ANSWER_TIMEOUT_S
                backlog_end = sent - completed
            if deadline is not None and now > deadline:
                break
            for key, mask in selector.select(max(0.0, timeout)):
                conn = key.data
                if mask & selectors.EVENT_WRITE:
                    flush(conn)
                if not mask & selectors.EVENT_READ:
                    continue
                chunk = conn.sock.recv(1 << 18)
                if not chunk:
                    raise ConnectionError("daemon closed a connection mid-pass")
                conn.inbuf += chunk
                arrived = time.perf_counter()
                while len(conn.inbuf) >= header:
                    (length,) = protocol.HEADER.unpack_from(conn.inbuf)
                    if len(conn.inbuf) < header + length:
                        break
                    reply = json.loads(bytes(conn.inbuf[header : header + length]))
                    del conn.inbuf[: header + length]
                    index = reply["id"] - first_id
                    request = requests[index]
                    request.response = reply
                    request.latency = arrived - (start + request.due)
                    if not reply.get("ok"):
                        errors += 1
                    completed += 1
                    if not open_loop and sent < total:
                        send(sent, arrived)
    finally:
        for conn in conns:
            selector.unregister(conn.sock)
            conn.sock.close()
        selector.close()
    wall = time.perf_counter() - start
    unanswered = total - completed
    result = PassResult(
        wall_s=wall,
        late_p99_ms=quantile(lates, 0.99) * 1000.0,
        backlog_max=backlog_max,
        backlog_end=backlog_end,
        errors=errors + unanswered,
    )
    if open_loop and result.late_p99_ms > MAX_LATE_P99_MS:
        result.valid = False
        result.notes.append(
            f"generator ran late: p99 {result.late_p99_ms:.2f} ms "
            f"> {MAX_LATE_P99_MS} ms"
        )
    return result
