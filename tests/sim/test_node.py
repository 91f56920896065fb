"""Unit tests for the actor base class: dispatch, timers, crash."""

import dataclasses

import pytest

from repro.errors import ProtocolError
from repro.obs import Observability
from repro.sim.network import Network
from repro.sim.node import Message, Node
from repro.sim.simulator import Simulator
from repro.sim.topology import symmetric_topology


@dataclasses.dataclass
class Ping(Message):
    n: int = 0


@dataclasses.dataclass
class WeirdCamelCase(Message):
    pass


class Server(Node):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pings = []
        self.weird = 0

    def handle_ping(self, msg, src):
        self.pings.append((msg.n, src))

    def handle_weird_camel_case(self, msg, src):
        self.weird += 1


def make_env():
    sim = Simulator()
    network = Network(sim, symmetric_topology(["A", "B"], 10.0))
    a = Server(sim, network, "a", "A")
    b = Server(sim, network, "b", "B")
    return sim, network, a, b


def test_kind_defaults_to_snake_case_class_name():
    assert Ping.kind == "ping"
    assert WeirdCamelCase.kind == "weird_camel_case"


def test_dispatch_to_handler():
    sim, _network, a, b = make_env()
    a.send("b", Ping(n=3))
    sim.run()
    assert b.pings == [(3, "a")]


def test_camel_case_dispatch():
    sim, _network, a, b = make_env()
    a.send("b", WeirdCamelCase())
    sim.run()
    assert b.weird == 1


def test_unknown_message_kind_raises():
    @dataclasses.dataclass
    class Unhandled(Message):
        pass

    sim, _network, a, b = make_env()
    a.send("b", Unhandled())
    with pytest.raises(ProtocolError):
        sim.run()


def test_broadcast_skips_self():
    sim, _network, a, b = make_env()
    a.send = a.send  # no-op; use broadcast
    a.broadcast(["a", "b"], Ping(n=1))
    sim.run()
    assert a.pings == []
    assert b.pings == [(1, "a")]


def test_timer_fires():
    sim, _network, a, _b = make_env()
    fired = []
    a.set_timer(5.0, fired.append, "tick")
    sim.run()
    assert fired == ["tick"]
    assert sim.now == 5.0


def test_timer_suppressed_while_crashed():
    sim, _network, a, _b = make_env()
    fired = []
    a.set_timer(5.0, fired.append, "tick")
    a.crash()
    sim.run()
    assert fired == []


def test_crash_blocks_receive_and_send():
    sim, _network, a, b = make_env()
    b.crash()
    a.send("b", Ping(n=1))
    sim.run()
    assert b.pings == []
    b.recover()
    a.send("b", Ping(n=2))
    sim.run()
    assert b.pings == [(2, "a")]


def test_recover_hook_called():
    sim, _network, a, _b = make_env()
    calls = []
    a.on_recover = lambda: calls.append(True)
    a.crash()
    a.recover()
    assert calls == [True]


def test_crash_recover_traced():
    sim, _network, a, _b = make_env()
    a.obs = Observability()
    a.obs.bind_clock(sim)
    a.crash()
    a.recover()
    assert [(e.kind, e.node) for e in a.obs.journal.events()] == [
        ("node.crash", "a"),
        ("node.recover", "a"),
    ]
