"""The order audit of ``tests/order_audit.py`` and its pytest plugin on
small inputs: the orders it runs, and the tests it names.  The full
audit runs Tier-1 five times and each test alone, so it runs as a
script, not here."""

import pytest

import order_audit
import order_plugin


def test_plugin_orders_are_reproducible():
    items = list(range(20))
    order_plugin.reorder(items, "default")
    assert items == list(range(20))
    order_plugin.reorder(items, "reversed")
    assert items == list(range(19, -1, -1))
    once, twice, other = list(range(20)), list(range(20)), list(range(20))
    order_plugin.reorder(once, "shuffle:1")
    order_plugin.reorder(twice, "shuffle:1")
    order_plugin.reorder(other, "shuffle:2")
    assert once == twice != other and sorted(once) == list(range(20))
    for bad in ("sideways", "shuffle:", "shuffle:x"):
        with pytest.raises(pytest.UsageError):
            order_plugin.reorder(items, bad)


def test_audit_names_each_test_whose_outcome_moved():
    default = {"a": "passed", "b": "passed", "c": "skipped"}
    runs = {
        "reversed": {"a": "passed", "b": "failed", "c": "skipped"},
        "alone": {"a": "passed", "c": "skipped", "d": "passed"},
    }
    assert order_audit.differences(default, runs) == {
        "b": {"default": "passed", "reversed": "failed", "alone": "missing"},
        "d": {"default": "missing", "reversed": "missing", "alone": "passed"},
    }
    assert order_audit.differences(default, {"reversed": dict(default)}) == {}
