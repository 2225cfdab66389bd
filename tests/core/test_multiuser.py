"""Multi-user front end tests (Section 5.3.2)."""

import pytest

from repro.core.horam import build_horam
from repro.core.multiuser import AccessDenied, MultiUserFrontEnd, UnknownUserError
from repro.oram.base import ORAMError, Request, initial_payload


@pytest.fixture
def front():
    oram = build_horam(n_blocks=512, mem_tree_blocks=128, seed=21)
    front = MultiUserFrontEnd(oram)
    front.register_user(0, allowed=range(0, 256))
    front.register_user(1, allowed=range(256, 512))
    return front


class TestRegistration:
    def test_duplicate_user_rejected(self, front):
        with pytest.raises(ValueError):
            front.register_user(0)

    def test_unknown_user_rejected(self, front):
        with pytest.raises(UnknownUserError):
            front.submit(9, Request.read(1))

    def test_unknown_user_error_is_typed_and_names_the_set(self, front):
        with pytest.raises(UnknownUserError) as exc_info:
            front.submit(9, Request.read(1))
        error = exc_info.value
        assert isinstance(error, ORAMError)
        assert error.user == 9
        assert error.registered == [0, 1]
        assert "9" in str(error) and "[0, 1]" in str(error)

    def test_unknown_user_stats_rejected(self, front):
        with pytest.raises(UnknownUserError) as exc_info:
            front.stats(7)
        assert exc_info.value.user == 7

    def test_users_listed(self, front):
        assert front.users() == [0, 1]


class TestAccessControl:
    def test_acl_enforced(self, front):
        with pytest.raises(AccessDenied):
            front.submit(0, Request.read(300))
        with pytest.raises(AccessDenied):
            front.submit(1, Request.read(0))

    def test_allowed_requests_pass(self, front):
        front.submit(0, Request.read(10))
        front.submit(1, Request.read(300))
        retired = front.pump()
        assert len(retired) == 2


class TestServiceAndFairness:
    def test_all_requests_served_correct(self, front):
        oram = front.oram
        for i in range(30):
            front.submit(0, Request.read(i))
            front.submit(1, Request.read(256 + i))
        retired = front.pump()
        assert len(retired) == 60
        for entry in retired:
            assert entry.result == oram.codec.pad(initial_payload(entry.addr))

    def test_per_user_stats(self, front):
        for i in range(10):
            front.submit(0, Request.read(i))
        front.submit(1, Request.read(256))
        front.pump()
        assert front.stats(0).served == 10
        assert front.stats(1).served == 1
        assert front.stats(0).mean_latency_cycles >= 0

    def test_round_robin_interleaves(self, front):
        # With equal load, service order should alternate users rather
        # than serving user 0's whole queue first.
        for i in range(20):
            front.submit(0, Request.read(i))
        for i in range(20):
            front.submit(1, Request.read(256 + i))
        retired = front.pump()
        first_half_users = {e.request.user for e in retired[:10]}
        assert first_half_users == {0, 1}

    def test_write_isolation_between_users(self, front):
        front.submit(0, Request.write(5, b"user0-data"))
        front.submit(1, Request.read(256 + 5))
        retired = front.pump()
        user1_read = [e for e in retired if e.request.user == 1][0]
        assert user1_read.result == front.oram.codec.pad(initial_payload(261))

    def test_submit_does_not_mutate_caller_request(self, front):
        template = Request.read(10)
        front.submit(0, template)
        assert template.user is None  # untouched default, not re-tagged
        # The same template can be reused for another user without
        # silently re-tagging the first queued entry.
        other = Request.read(300)
        front.submit(1, other)
        retired = front.pump()
        users = sorted(e.request.user for e in retired)
        assert users == [0, 1]

    def test_shared_template_across_users_keeps_both_tags(self, front):
        # One request object templated to both users: each queued entry
        # must keep its own tag (the old in-place tagging re-tagged the
        # earlier entry).
        front.register_user(2)  # unrestricted
        template = Request.read(42)
        front.submit(0, template)
        front.submit(2, template)
        retired = front.pump()
        assert sorted(e.request.user for e in retired) == [0, 2]
        assert front.stats(0).served == 1
        assert front.stats(2).served == 1

    def test_already_tagged_request_is_queued_without_a_copy(self, front):
        tagged = Request.read(10, user=0)
        front.submit(0, tagged)
        retired = front.pump()
        assert [entry.request for entry in retired] == [tagged]
        assert retired[0].request is tagged

    def test_unregistered_and_untagged_retirees_bucketed(self, front):
        # Requests submitted directly to the back end (before/around the
        # front end) retire with an unknown or absent user tag; pump must
        # bucket them instead of crashing stats accounting.
        front.oram.submit(Request.read(40, user=99))  # never registered
        front.oram.submit(Request.read(41))  # untagged (user is None)
        front.submit(0, Request.read(10))
        retired = front.pump()
        assert len(retired) == 3
        assert front.unattributed_retired == 2
        # The untagged direct submission must NOT be attributed to a
        # registered user (0 is registered here).
        assert front.stats(0).served == 1

    def test_unserved_latency_not_counted_in_mean(self, front):
        front.submit(0, Request.read(1))
        front.submit(0, Request.read(2))
        retired = front.pump()
        # Sabotage one entry's latency stamp and re-account it: the mean
        # must ignore the invalid sample rather than dilute it with zeros.
        broken = retired[0]
        broken.served_cycle = -1
        stats_before = front.stats(0)
        samples_before = stats_before.latency_samples
        total_before = stats_before.total_latency_cycles
        front._account([broken])
        stats = front.stats(0)
        assert stats.served == 3  # still counted as served
        assert stats.latency_samples == samples_before  # but not in the mean
        assert stats.total_latency_cycles == total_before

    def test_latency_balance(self, front):
        for i in range(25):
            front.submit(0, Request.read(i % 100))
            front.submit(1, Request.read(256 + (i % 100)))
        front.pump()
        lat0 = front.stats(0).mean_latency_cycles
        lat1 = front.stats(1).mean_latency_cycles
        assert lat0 > 0 and lat1 > 0
        assert max(lat0, lat1) / min(lat0, lat1) < 2.5


# Every stack shape repro.testing.stacks can build that takes a front end.
_SHAPES = {
    "kernel": dict(protocol="horam"),
    "sharded-serial": dict(protocol="sharded", n_shards=2),
    "sharded-parallel": dict(protocol="sharded", n_shards=2, executor="parallel"),
    "supervised-serial": dict(protocol="sharded", n_shards=2, supervised=True),
    "supervised-parallel": dict(
        protocol="sharded", n_shards=2, executor="parallel", supervised=True
    ),
}


class TestFeedQuantum:
    """How much one pump round feeds is the back end's statement."""

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_every_stack_states_at_least_a_window_per_shard(self, shape):
        from repro.testing.stacks import StackSpec, build_stack

        built = build_stack(StackSpec(n_blocks=512, mem_blocks=128, **_SHAPES[shape]))
        try:
            kernel = built.protocol  # the fleet's template config when sharded
            window = kernel.config.window_for(kernel.current_c)
            stated = built.driver.feed_quantum()
            # None is "everything queued": no bound at all.
            assert stated is None or stated >= built.spec.n_shards * window
            whole_drain = built.spec.executor == "parallel" or built.spec.supervised
            assert (stated is None) == whole_drain
        finally:
            built.cleanup()

    def test_single_kernel_feeds_exactly_its_window_each_cycle(self, front):
        oram = front.oram

        def window():
            return max(2, oram.config.window_for(oram.current_c))

        submit, step = oram.submit, oram.step
        fed_per_cycle, windows, fed = [], [window()], [0]

        def counting_submit(request):
            fed[0] += 1
            return submit(request)

        def counting_step():
            fed_per_cycle.append(fed[0])
            fed[0] = 0
            retired = step()
            windows.append(window())  # what the *next* feed will see
            return retired

        oram.submit, oram.step = counting_submit, counting_step
        for i in range(60):
            front.submit(0, Request.read(i))
            front.submit(1, Request.read(256 + i))
        assert len(front.pump()) == 120
        remaining = 120
        for got, want in zip(fed_per_cycle, windows):
            assert got == min(want, remaining)
            remaining -= got
        assert remaining == 0 and len(fed_per_cycle) > 120 // max(windows)

    def test_a_back_end_that_states_nothing_gets_everything_queued(self):
        class Drainer:
            """submit()/drain() only: no step, no feed_quantum."""

            def __init__(self):
                self.batches, self._queued = [], []

            def submit(self, request):
                self._queued.append(request)

            def drain(self):
                from repro.core.rob import RobEntry

                self.batches.append(len(self._queued))
                retired = [RobEntry(request=request) for request in self._queued]
                self._queued = []
                return retired

        backend = Drainer()
        front = MultiUserFrontEnd(backend)
        for user in range(3):
            front.register_user(user)
        for i in range(30):
            front.submit(i % 3, Request.read(i))
        assert len(front.pump()) == 30
        assert backend.batches == [30]
