"""Tests for topology construction and routing."""

import pytest

from repro.net import Topology, mbps


def star() -> Topology:
    t = Topology("star")
    for leaf in ["A", "B", "C"]:
        t.duplex_link(leaf, "hub", capacity=mbps(100), latency=0.005)
    return t


def test_add_node_idempotent():
    t = Topology()
    n1 = t.add_node("X", site="lbnl")
    n2 = t.add_node("X")
    assert n1 is n2
    assert n1.site == "lbnl"


def test_duplicate_link_name_rejected():
    t = Topology()
    t.add_link("A", "B", mbps(10), 0.01, name="l")
    with pytest.raises(ValueError):
        t.add_link("A", "B", mbps(10), 0.01, name="l")


def test_link_validation():
    t = Topology()
    with pytest.raises(ValueError):
        t.add_link("A", "B", -1, 0.01)
    with pytest.raises(ValueError):
        t.add_link("A", "B", mbps(10), -0.01)


def test_path_through_hub():
    t = star()
    path = t.path("A", "B")
    assert [l.src.name for l in path] == ["A", "hub"]
    assert [l.dst.name for l in path] == ["hub", "B"]


def test_path_to_self_is_empty():
    t = star()
    assert t.path("A", "A") == []


def test_path_unknown_node_raises():
    t = star()
    with pytest.raises(KeyError):
        t.path("A", "nowhere")


def test_no_path_raises():
    t = Topology()
    t.add_node("A")
    t.add_node("B")
    with pytest.raises(ValueError):
        t.path("A", "B")


def test_min_latency_route_chosen():
    t = Topology()
    t.add_link("A", "B", mbps(10), 0.100, name="slow")
    t.add_link("A", "C", mbps(10), 0.010, name="h1")
    t.add_link("C", "B", mbps(10), 0.010, name="h2")
    path = t.path("A", "B")
    assert [l.name for l in path] == ["h1", "h2"]


def test_latency_and_rtt():
    t = star()
    assert t.latency("A", "B") == pytest.approx(0.010)
    assert t.rtt("A", "B") == pytest.approx(0.020)


def test_bottleneck_capacity():
    t = Topology()
    t.add_link("A", "B", mbps(100), 0.01)
    t.add_link("B", "C", mbps(10), 0.01)
    assert t.bottleneck_capacity("A", "C") == mbps(10)
    assert t.bottleneck_capacity("A", "A") == float("inf")


def test_link_down_and_restore():
    t = star()
    link = next(iter(t.links.values()))
    nominal = link.nominal_capacity
    link.set_down()
    assert not link.is_up
    assert link.capacity == 0
    link.restore()
    assert link.capacity == nominal
    link.restore(capacity=nominal / 2)
    assert link.capacity == nominal / 2


def test_routing_ignores_capacity_changes():
    t = Topology()
    direct = t.add_link("A", "B", mbps(10), 0.010, name="direct")
    t.add_link("A", "C", mbps(10), 0.02, name="d1")
    t.add_link("C", "B", mbps(10), 0.02, name="d2")
    assert [l.name for l in t.path("A", "B")] == ["direct"]
    direct.set_down()
    # The IP layer does not reroute at this timescale.
    assert [l.name for l in t.path("A", "B")] == ["direct"]
