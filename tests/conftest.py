from pathlib import Path

import pytest

import flowmine.transport
from flowmine import GenConfig, generate, parse_flowspec, parse_message_table, parse_trace

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def table():
    return parse_message_table((DATA / "cache_read.msg").read_text())


@pytest.fixture(scope="session")
def flowspec(table):
    return parse_flowspec((DATA / "cache_read.flow").read_text(), table)


@pytest.fixture(scope="session")
def simul_trace(table):
    return parse_trace((DATA / "simul_start.trace").read_text(), table)


@pytest.fixture(scope="session")
def pipelined_trace(table):
    return parse_trace((DATA / "pipelined.trace").read_text(), table)


@pytest.fixture(scope="session")
def mixed_trace(table):
    return parse_trace((DATA / "mixed.trace").read_text(), table)


@pytest.fixture(scope="session")
def hits_trace(table):
    return parse_trace((DATA / "hits.trace").read_text(), table)


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture
def routed(monkeypatch):
    """One entry per max flow that the test runs."""
    calls = []
    real = flowmine.transport._Network.route
    monkeypatch.setattr(flowmine.transport._Network, "route", lambda *a: calls.append(a) or real(*a))
    return calls


@pytest.fixture(scope="session")
def long_tagged_trace(flowspec):
    """About 10^4 pid-tagged messages, as the sliced benchmark mines."""
    return generate(flowspec, GenConfig(instances=1650, seed=1001, simul_prob=0.2, tag="pid"))
