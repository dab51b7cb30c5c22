import hashlib
import tracemalloc
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from chainsup import streams
from chainsup.streams import derived_stream


def _whole_repr_id(tokens) -> int:
    """The stream id from one repr of the whole token tuple."""
    h = hashlib.sha256(repr(tokens).encode()).digest()
    return int.from_bytes(h[:8], "little") >> 1


# bytes rich in what repr escapes or quotes
_TRICKY = st.lists(st.sampled_from(b"'\"\\\t\n\r\x00\x1f\x7f\x80\xffa "),
                   max_size=40).map(bytes)
_TOKEN = st.one_of(st.binary(max_size=40), _TRICKY, st.text(max_size=12),
                   st.integers(), st.floats(), st.booleans(), st.none(),
                   st.tuples(st.binary(max_size=4), st.integers()))


@given(tokens=st.lists(_TOKEN, max_size=5).map(tuple),
       chunk=st.sampled_from([1, 2, 3, 7, streams._REPR_CHUNK]),
       seed=st.integers(0, 2 ** 32))
@example(tokens=(b"'\"",), chunk=1, seed=0)   # the whole quotes with '; a chunk with "
@example(tokens=(b"a'b",), chunk=2, seed=0)   # the whole quotes with "
@example(tokens=(), chunk=1, seed=0)
@settings(max_examples=500, deadline=None)
def test_chunked_hash_equals_the_whole_repr(tokens, chunk, seed):
    with mock.patch.object(streams, "_REPR_CHUNK", chunk):
        got = derived_stream(seed, *tokens)
    assert got == streams.RngStream(seed, _whole_repr_id(tokens))


def test_large_bytes_token_hashed_in_bounded_memory():
    # a 64 MiB token; its whole repr and encoding alone took over 400 MiB
    tok = bytes(range(256)) * (1 << 18)
    tracemalloc.start()
    try:
        got = derived_stream(5, "distance_matrix", tok, 3.0, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    # the id of one repr of the whole tuple, recorded
    assert got.stream_id == 4022769584497204580
