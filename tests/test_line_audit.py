"""The line audit of ``tests/line_audit.py`` on one small function: run
with one branch taken, it names exactly the statements of the other.
The full audit traces all of Tier-1 and takes about four times as long,
so it runs as a script, not here."""

import inspect

import line_audit


def _sample(flag):
    """A docstring is not a statement."""
    if flag:
        kept = 1
        return kept
    dropped = (
        2
    )
    return dropped


def test_audit_names_the_branch_not_taken():
    path = inspect.getsourcefile(_sample)
    source, start = inspect.getsourcelines(_sample)
    with line_audit.tracing(path) as hits:
        assert _sample(True) == 1
    inside = range(start, start + len(source))
    found = [(line, text) for line, text in line_audit.unreached(path, hits) if line in inside]
    assert found == [(start + 5, "dropped = ("), (start + 8, "return dropped")]
