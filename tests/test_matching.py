"""Unit tests for repro.comm.matching in isolation.

The mailbox matching, wait-for-graph and deadlock-report helpers were
extracted from the runtime so both execution backends share one
matching contract; until now they were only exercised indirectly
through backend conformance tests.
"""

from __future__ import annotations

import dataclasses

from repro.comm.matching import (
    Unmatched,
    WaitInfo,
    deadlock_report,
    find_wait_cycle,
    match_in,
    peek_in,
)


@dataclasses.dataclass
class Msg:
    comm_key: tuple
    source: int
    tag: int
    body: str = ""


WORLD = ("world",)
SUB = ("world", ("split", 0, 1))


def mailbox():
    return [
        Msg(WORLD, source=0, tag=1, body="a"),
        Msg(WORLD, source=1, tag=1, body="b"),
        Msg(WORLD, source=0, tag=2, body="c"),
        Msg(SUB, source=0, tag=1, body="d"),
    ]


class TestMatchIn:
    def test_exact_triple_pops_first_match(self):
        pending = mailbox()
        got = match_in(pending, WORLD, source=0, tag=2)
        assert got.body == "c"
        assert len(pending) == 3
        assert all(m.body != "c" for m in pending)

    def test_arrival_order_wins_among_candidates(self):
        pending = mailbox()
        got = match_in(pending, WORLD, source=0, tag=1)
        assert got.body == "a"  # not "c": tag filtered; not "d": comm

    def test_source_wildcard(self):
        pending = mailbox()
        got = match_in(pending, WORLD, source=-1, tag=1)
        assert got.body == "a"
        got = match_in(pending, WORLD, source=-1, tag=1)
        assert got.body == "b"

    def test_tag_wildcard(self):
        pending = mailbox()
        got = match_in(pending, WORLD, source=1, tag=-1)
        assert got.body == "b"

    def test_double_wildcard_takes_first_in_comm(self):
        pending = mailbox()
        got = match_in(pending, SUB, source=-1, tag=-1)
        assert got.body == "d"

    def test_communicator_isolation(self):
        pending = mailbox()
        assert match_in(pending, ("other",), source=-1, tag=-1) is None
        assert len(pending) == 4  # nothing popped

    def test_no_match_returns_none_and_keeps_mailbox(self):
        pending = mailbox()
        assert match_in(pending, WORLD, source=3, tag=1) is None
        assert match_in(pending, WORLD, source=1, tag=9) is None
        assert len(pending) == 4


class TestPeekIn:
    def test_peek_is_nondestructive(self):
        pending = mailbox()
        assert peek_in(pending, WORLD, source=0, tag=2)
        assert len(pending) == 4

    def test_peek_respects_filters(self):
        pending = mailbox()
        assert not peek_in(pending, WORLD, source=2, tag=-1)
        assert not peek_in(pending, SUB, source=0, tag=9)
        assert peek_in(pending, SUB, source=-1, tag=-1)

    def test_peek_empty(self):
        assert not peek_in([], WORLD, source=-1, tag=-1)


class TestWaitInfo:
    def test_describe_concrete(self):
        w = WaitInfo(WORLD, source=2, tag=7, source_world=5, op=None)
        text = w.describe(3)
        assert "rank 3" in text
        assert "rank 5" in text  # world rank preferred over local
        assert "tag 7" in text

    def test_describe_wildcards_and_collective(self):
        w = WaitInfo(WORLD, source=-1, tag=-1, source_world=None,
                     op="allreduce")
        text = w.describe(0)
        assert "any rank" in text
        assert "any tag" in text
        assert "allreduce" in text

    def test_tuple_round_trip(self):
        w = WaitInfo(SUB, source=1, tag=4, source_world=3, op="gather")
        clone = WaitInfo.from_tuple(w.to_tuple())
        assert clone.comm_key == SUB
        assert clone.source == 1
        assert clone.tag == 4
        assert clone.source_world == 3
        assert clone.op == "gather"


def wait_on(target: int | None) -> WaitInfo:
    return WaitInfo(WORLD, source=target if target is not None else -1,
                    tag=0, source_world=target, op=None)


class TestFindWaitCycle:
    def test_no_cycle_in_chain(self):
        waiting = {0: wait_on(1), 1: wait_on(2)}  # 2 is not blocked
        assert find_wait_cycle(waiting) is None

    def test_self_cycle(self):
        assert find_wait_cycle({3: wait_on(3)}) == [3]

    def test_two_cycle(self):
        cycle = find_wait_cycle({0: wait_on(1), 1: wait_on(0)})
        assert cycle is not None
        assert set(cycle) == {0, 1}

    def test_chain_into_cycle_reports_only_the_cycle(self):
        waiting = {0: wait_on(1), 1: wait_on(2), 2: wait_on(1)}
        cycle = find_wait_cycle(waiting)
        assert set(cycle) == {1, 2}

    def test_wildcard_waiters_are_not_graph_nodes(self):
        waiting = {0: wait_on(None), 1: wait_on(0)}
        assert find_wait_cycle(waiting) is None

    def test_empty(self):
        assert find_wait_cycle({}) is None


class TestDeadlockReport:
    def test_report_lists_every_blocked_rank_and_cycle(self):
        waiting = {0: wait_on(1), 1: wait_on(0)}
        text = deadlock_report(waiting, n_blocked=2,
                               unmatched=[Unmatched(WORLD, 0, 0, 1, 9, 8)])
        assert "2 unfinished rank(s)" in text
        assert "wait-for cycle" in text
        assert "rank 0" in text and "rank 1" in text
        assert "unmatched message: rank 0 -> rank 1 (tag 9, 8 bytes)" in text

    def test_custom_headline(self):
        text = deadlock_report({0: wait_on(None)}, n_blocked=1,
                               headline="all stuck")
        assert text.splitlines()[0] == "all stuck"
        assert "any rank" in text


class TestNearMiss:
    def _report(self, wait: WaitInfo, msg: Unmatched) -> str:
        return deadlock_report({1: wait}, n_blocked=1, unmatched=[msg])

    def test_same_pair_different_tag(self):
        text = self._report(WaitInfo(WORLD, 0, 2, 0, None),
                            Unmatched(WORLD, 0, 0, 1, 7, 8))
        assert ("near miss: rank 1 waits for tag 2; rank 0 sent it tag 7 "
                "(same rank pair, different tag)") in text

    def test_same_tag_different_peer(self):
        text = self._report(WaitInfo(WORLD, 0, 2, 0, None),
                            Unmatched(WORLD, 2, 2, 1, 2, 8))
        assert ("near miss: rank 1 waits for rank 0; rank 2 sent it tag 2 "
                "(same tag, different peer)") in text

    def test_wildcard_source_with_wrong_tag(self):
        text = self._report(WaitInfo(WORLD, -1, 2, None, None),
                            Unmatched(WORLD, 3, 3, 1, 5, 8))
        assert "waits for tag 2; rank 3 sent it tag 5" in text

    def test_no_hint_when_both_differ_or_other_comm(self):
        wait = WaitInfo(WORLD, 0, 2, 0, None)
        assert "near miss" not in self._report(
            wait, Unmatched(WORLD, 2, 2, 1, 7, 8))
        assert "near miss" not in self._report(
            wait, Unmatched(SUB, 0, 0, 1, 7, 8))
        assert "near miss" not in self._report(
            wait, Unmatched(WORLD, 0, 0, 2, 7, 8))  # another rank's inbox
