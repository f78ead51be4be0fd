"""Property test: the pairing model's ``_StubList`` behaves like a ``list``."""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators

_OPERATIONS = st.sampled_from(["len", "get", "pop_at", "pop", "get_then_pop_at"])


def _apply(sequence, operation, index):
    """Run one operation; return its result or the exception type it raised."""
    try:
        if operation == "len":
            return len(sequence)
        if operation == "get":
            return sequence[index]
        if operation == "pop_at":
            return sequence.pop(index)
        if operation == "get_then_pop_at":
            # The pairing model's pattern: look an index up, then pop it.
            return sequence[index], sequence.pop(index)
        return sequence.pop()
    except IndexError:
        return IndexError


@settings(max_examples=300, deadline=None)
@given(
    items=st.lists(st.integers(min_value=0, max_value=20), max_size=40),
    block=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_stub_list_behaves_like_a_list(items, block, data):
    with mock.patch.object(generators, "STUB_BLOCK", block):
        stubs = generators._StubList(list(items))
    reference = list(items)
    for _ in range(data.draw(st.integers(min_value=0, max_value=2 * len(items) + 4))):
        operation = data.draw(_OPERATIONS)
        # One index past either end, so out-of-range errors are exercised too.
        index = data.draw(st.integers(min_value=-len(reference) - 1, max_value=len(reference)))
        assert _apply(stubs, operation, index) == _apply(reference, operation, index)
        assert len(stubs) == len(reference)
        assert bool(stubs) == bool(reference)
        assert [stubs[i] for i in range(len(stubs))] == reference
