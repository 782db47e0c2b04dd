"""Per-layer tracing by wrapping the package's public functions.

Each wrapper replaces a name where its caller looks it up: the engine
imports the ``paritytree``, ``bitframe`` and ``schedule`` functions by name,
``harness`` imports ``run_session_pair`` and ``apply_noise`` by name,
``Channel.send`` calls the codec through ``channel``'s module globals, and
the engine calls ``binary_search`` through the module.  Nothing under
``src/`` changes; :meth:`Tracer.uninstall` puts every original back.

A span's self time is its duration minus the durations of wrapped calls made
inside it on the same thread.  Wrappers are thread-safe: the threaded
scheduler runs each party on its own thread, and a worker-thread sweep runs
two sessions at once.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

from cascade_sim import binary_search, channel, engine, harness
from cascade_sim.bitframe import BitFrame

SESSION = "engine.session"
RECV = "channel.recv"
SEND = "channel.send"
TRIAL = "harness.run_trial_detailed"
PERMUTATION = "bitframe.permutation"
STEP = "binary_search.step"

# Spans that enclose a session rather than run inside it.
_OUTER = {TRIAL, SESSION, "bitframe.random", "bitframe.apply_noise"}

_UPDATES = ("paritytree.build_tree", "paritytree.set_syndrome", "paritytree.mark_error_leaf",
            "paritytree.mark_compromised")
_QUERIES = ("paritytree.multi_error_frontier", "paritytree.iter_nodes")
_SEARCH = ("binary_search.start", STEP, "binary_search.pending_query")
_SCHEDULE = ("schedule.plan_round", "schedule.should_terminate")
_CODEC = ("channel.encode_message", "channel.decode_message")

# (owner, attribute, span name); generator functions are timed per step.
_TARGETS = (
    (harness, "run_trial_detailed", TRIAL),
    (harness, "run_session_pair", SESSION),
    (harness, "apply_noise", "bitframe.apply_noise"),
    (BitFrame, "random", "bitframe.random"),
    (engine, "round_mapping", "engine.round_mapping"),
    (engine, "frame_fingerprint", "engine.frame_fingerprint"),
    (engine, "gen_lcg_permutation", PERMUTATION),
    (engine, "gen_shuffle_permutation", PERMUTATION),
    (engine, "build_tree", "paritytree.build_tree"),
    (engine, "set_syndrome", "paritytree.set_syndrome"),
    (engine, "mark_error_leaf", "paritytree.mark_error_leaf"),
    (engine, "mark_compromised", "paritytree.mark_compromised"),
    (engine, "multi_error_frontier", "paritytree.multi_error_frontier"),
    (engine, "iter_nodes", "paritytree.iter_nodes"),
    (binary_search, "start", "binary_search.start"),
    (binary_search, "step", STEP),
    (binary_search, "pending_query", "binary_search.pending_query"),
    (engine, "plan_round", "schedule.plan_round"),
    (engine, "should_terminate", "schedule.should_terminate"),
    (channel.Channel, "send", SEND),
    (channel.Channel, "recv", RECV),
    (channel, "encode_message", "channel.encode_message"),
    (channel, "decode_message", "channel.decode_message"),
)
_GENERATORS = {"paritytree.iter_nodes"}


class Tracer:
    """Accumulates span times and layer counters while installed."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list = []
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.steps = {True: 0, False: 0}
        self.inside_session = 0.0  # spans directly under a session, recv excluded
        self.permutation_calls = 0
        self.permutation_distinct = 0
        self._permutation_keys: set = set()
        self.handoff = 0.0
        self._send_end = defaultdict(list)
        self._recv_span = defaultdict(list)

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _TARGETS:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__))
            elif name in _GENERATORS:
                replacement = self._wrap_generator(name, original)
            else:
                replacement = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @staticmethod
    def targets():
        """``(owner, attribute)`` of every name the tracer replaces."""
        return [(owner, attr) for owner, attr, _ in _TARGETS]

    # -- spans ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [name, 0.0]
            stack.append(frame)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                tracer._close(name, started, ended, frame[1], stack, args, kwargs)

        return wrapper

    def _wrap_generator(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def timed():
                while True:
                    stack = tracer._stack()
                    started = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._close(name, started, time.perf_counter(), 0.0, stack, (), {})
                        return
                    tracer._close(name, started, time.perf_counter(), 0.0, stack, (), {})
                    yield item

            return timed()

        return wrapper

    def _close(self, name, started, ended, child_time, stack, args, kwargs) -> None:
        duration = ended - started
        if stack:
            stack[-1][1] += duration
        parent = stack[-1][0] if stack else None
        with self._lock:
            self.total[name] += duration
            self.self_time[name] += duration - child_time
            self.calls[name] += 1
            if name != RECV and (parent == SESSION or (parent is None and name not in _OUTER)):
                self.inside_session += duration
            if name == STEP:
                self.steps[bool(kwargs.get("from_reuse", False))] += 1
            elif name == PERMUTATION:
                self.permutation_calls += 1
                self._permutation_keys.add(tuple(args[:3]))
            elif name == SEND:
                self._send_end[args[:2]].append(ended)
            elif name == RECV:
                self._recv_span[args[:2]].append((started, ended))

    def end_operation(self) -> None:
        """Close the per-operation windows: distinct permutations and hand-offs.

        A message's hand-off is the time from the end of its ``send`` to the
        return of the ``recv`` that took it (from the ``recv`` call, if that
        came later).  Lanes are keyed by ``(channel, direction)``; the k-th
        message received on a lane is the k-th one sent on it.
        """
        with self._lock:
            self.permutation_distinct += len(self._permutation_keys)
            self._permutation_keys.clear()
            for lane, spans in self._recv_span.items():
                for (started, ended), sent in zip(spans, self._send_end[lane]):
                    self.handoff += max(0.0, ended - max(started, sent))
            self._send_end.clear()
            self._recv_span.clear()

    # -- figures ----------------------------------------------------------------

    def metrics(self, sessions: int) -> dict:
        """Per-session layer figures: ``name -> (value, unit)``."""

        def total(*names):
            return sum(self.total[n] for n in names)

        def calls(*names):
            return sum(self.calls[n] for n in names)

        handoff = self.handoff
        wire_steps, reused_steps = self.steps[False], self.steps[True]
        messages = self.calls[SEND]
        seconds = {
            "engine.session_ms": total(SESSION),
            "engine.self_ms": total(SESSION) - self.inside_session - handoff,
            "engine.fingerprint_ms": total("engine.frame_fingerprint"),
            "bitframe.permutation_ms": total(PERMUTATION),
            "bitframe.inputs_ms": total("bitframe.random", "bitframe.apply_noise"),
            "paritytree.update_ms": total(*_UPDATES),
            "paritytree.query_ms": total(*_QUERIES),
            "binary_search.ms": total(*_SEARCH),
            "schedule.ms": total(*_SCHEDULE),
            "channel.codec_ms": total(*_CODEC),
            "channel.send_self_ms": self.self_time[SEND],
            "channel.recv_wait_ms": handoff,
            "harness.check_ms": self.self_time[TRIAL],
        }
        counts = {
            "engine.round_mapping_calls": calls("engine.round_mapping"),
            "paritytree.update_calls": calls(*_UPDATES),
            "binary_search.steps_wire": wire_steps,
            "binary_search.steps_reused": reused_steps,
            "channel.messages": messages,
        }
        ratios = {
            "bitframe.permutation_distinct_share": self.permutation_distinct
            / max(1, self.permutation_calls),
            "binary_search.reuse_share": reused_steps / max(1, wire_steps + reused_steps),
            "channel.codec_calls_per_message": calls(*_CODEC) / max(1, messages),
        }
        out = {name: (value * 1000.0 / sessions, "ms") for name, value in seconds.items()}
        out |= {name: (value / sessions, "count") for name, value in counts.items()}
        out |= {name: (value, "ratio") for name, value in ratios.items()}
        return out
