"""Property-based integration tests: ORAM == dict, under arbitrary ops."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.horam import build_horam
from repro.oram.base import OpKind, Request, initial_payload
from repro.oram.factory import build_path_oram, build_plain

N = 64  # tiny address space so hypothesis explores collisions

ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["r", "w"]),
        st.integers(min_value=0, max_value=N - 1),
        st.binary(min_size=0, max_size=16),
    ),
    max_size=40,
)


def run_ops(oram, ops):
    """Apply (op, addr, data) against the ORAM and a dict oracle."""
    oracle = {}
    for kind, addr, data in ops:
        if kind == "w":
            oram.write(addr, data)
            oracle[addr] = oram.codec.pad(data)
        else:
            got = oram.read(addr)
            want = oracle.get(addr, oram.codec.pad(initial_payload(addr)))
            assert got == want


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_horam_matches_dict(ops):
    run_ops(build_horam(n_blocks=N, mem_tree_blocks=32, seed=0), ops)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_path_oram_matches_dict(ops):
    run_ops(build_path_oram(n_blocks=N, memory_blocks=16, seed=0), ops)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_plain_store_matches_dict(ops):
    run_ops(build_plain(n_blocks=N, seed=0), ops)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy, ratio=st.sampled_from([2, 4]))
def test_horam_partial_shuffle_matches_dict(ops, ratio):
    oram = build_horam(
        n_blocks=N, mem_tree_blocks=32, seed=0, shuffle_period_ratio=ratio
    )
    run_ops(oram, ops)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    addrs=st.lists(st.integers(min_value=0, max_value=N - 1), min_size=1, max_size=30)
)
def test_horam_batch_equals_sync_results(addrs):
    """The batch pipeline returns the same payloads as one-by-one access."""
    batch = build_horam(n_blocks=N, mem_tree_blocks=32, seed=3)
    entries = [batch.submit(Request(op=OpKind.READ, addr=a)) for a in addrs]
    batch.drain()
    sync = build_horam(n_blocks=N, mem_tree_blocks=32, seed=3)
    for entry, addr in zip(entries, addrs):
        assert entry.result == sync.read(addr)
