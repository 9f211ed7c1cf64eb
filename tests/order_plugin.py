"""A pytest plugin for ``tests/order_audit.py``: ``--order`` runs the
collected tests reversed or in a seeded shuffle, and ``--outcomes``
writes each test's outcome to a JSON file.

    PYTHONPATH=src:tests python -m pytest -p order_plugin --order shuffle:1 --outcomes out.json

A test's outcome is "failed" if any of its phases failed, else "skipped"
if one was skipped, else "passed"."""

import json
import random

import pytest

RANK = {"passed": 0, "skipped": 1, "failed": 2}


def pytest_addoption(parser):
    group = parser.getgroup("order audit")
    group.addoption("--order", default="default", help="default, reversed or shuffle:SEED")
    group.addoption("--outcomes", default=None, metavar="PATH", help="write {test id: outcome} as JSON to PATH")


def reorder(items: list, order: str) -> None:
    """Put ``items`` in the named order, in place."""
    if order == "reversed":
        items.reverse()
    elif order.startswith("shuffle:") and order[8:].isdigit():
        random.Random(int(order[8:])).shuffle(items)
    elif order != "default":
        raise pytest.UsageError(f"--order {order!r}: expected default, reversed or shuffle:SEED")


def pytest_collection_modifyitems(config, items):
    reorder(items, config.getoption("order"))


class Outcomes:
    def __init__(self, path: str):
        self.path = path
        self.outcomes: dict[str, str] = {}

    def pytest_runtest_logreport(self, report):
        if report.when == "call" or report.outcome != "passed":
            known = self.outcomes.get(report.nodeid, "passed")
            self.outcomes[report.nodeid] = max(known, report.outcome, key=RANK.__getitem__)

    def pytest_sessionfinish(self, session):
        with open(self.path, "w") as out:
            json.dump(self.outcomes, out, indent=0, sort_keys=True)


def pytest_configure(config):
    path = config.getoption("outcomes")
    if path:
        config.pluginmanager.register(Outcomes(path), "order-audit-outcomes")
