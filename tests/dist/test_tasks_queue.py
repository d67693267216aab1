"""Task and queue semantics: leasing, expiry, idempotent completion."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.queue import LeaseLost, TaskQueue
from repro.dist.tasks import SearchTask, TaskStatus, partition_space


class TestPartition:
    def test_exact_tiling(self):
        tasks = partition_space(8, 32)
        assert [(t.start_index, t.end_index) for t in tasks] == [
            (0, 32), (32, 64), (64, 96), (96, 128)
        ]

    def test_ragged_tail(self):
        tasks = partition_space(8, 50)
        assert tasks[-1].end_index == 128
        assert sum(t.size for t in tasks) == 128

    @given(st.integers(min_value=3, max_value=14), st.integers(min_value=1, max_value=500))
    @settings(max_examples=100)
    def test_tiling_invariants(self, width, chunk):
        tasks = partition_space(width, chunk)
        total = 1 << (width - 1)
        assert tasks[0].start_index == 0
        assert tasks[-1].end_index == total
        for a, b in zip(tasks, tasks[1:]):
            assert a.end_index == b.start_index
        assert len({t.chunk_id for t in tasks}) == len(tasks)

    def test_rejects_bad_chunk(self):
        with pytest.raises(ValueError):
            partition_space(8, 0)


class TestLeasing:
    def make_queue(self, n=4, lease=10.0):
        return TaskQueue(partition_space(6, 32 // n if n else 32), lease_duration=lease)

    def test_lease_lowest_pending(self):
        q = TaskQueue(partition_space(6, 8), lease_duration=10)
        t = q.lease("w1", now=0.0)
        assert t.chunk_id == 0 and t.status is TaskStatus.LEASED
        t2 = q.lease("w2", now=0.0)
        assert t2.chunk_id == 1

    def test_no_pending_returns_none(self):
        q = TaskQueue(partition_space(6, 32), lease_duration=10)
        q.lease("w1", 0.0)
        assert q.lease("w2", 0.0) is None
        assert q.leased == 1

    def test_expiry_reclaims(self):
        q = TaskQueue(partition_space(6, 32), lease_duration=5.0)
        t = q.lease("w1", 0.0)
        assert q.lease("w2", 4.9) is None       # still held
        t2 = q.lease("w2", 5.1)                  # lease expired
        assert t2.chunk_id == t.chunk_id
        assert t2.owner == "w2"
        assert t2.attempts == 2

    def test_renew_extends(self):
        q = TaskQueue(partition_space(6, 32), lease_duration=5.0)
        t = q.lease("w1", 0.0)
        assert q.renew(t.chunk_id, "w1", 4.0)
        assert q.lease("w2", 6.0) is None  # renewed through 9.0

    def test_renew_after_reassignment_raises(self):
        q = TaskQueue(partition_space(6, 32), lease_duration=5.0)
        t = q.lease("w1", 0.0)
        q.lease("w2", 10.0)  # reassigned
        with pytest.raises(LeaseLost, match="re-leased to w2"):
            q.renew(t.chunk_id, "w1", 11.0)

    def test_renew_after_silent_expiry_raises(self):
        # The old bug: an expired-but-not-yet-reclaimed lease could be
        # silently resurrected by its own heartbeat.  A renew arriving
        # after expiry must reclaim first and report the loss.
        q = TaskQueue(partition_space(6, 32), lease_duration=5.0)
        t = q.lease("w1", 0.0)
        with pytest.raises(LeaseLost, match="expired and was reclaimed"):
            q.renew(t.chunk_id, "w1", 6.0)
        assert t.status is TaskStatus.PENDING  # reclaimed, leasable again

    def test_renew_same_owner_new_epoch_raises(self):
        # Same worker id re-leases the chunk after expiry (parent-held
        # leases, a reconnecting host): a heartbeat against the *old*
        # grant must not extend the new one.
        q = TaskQueue(partition_space(6, 32), lease_duration=5.0)
        t = q.lease("w1", 0.0)
        old_epoch = t.epoch
        t2 = q.lease("w1", 6.0)  # reclaim + re-lease to the same id
        assert t2.chunk_id == t.chunk_id and t2.epoch == old_epoch + 1
        with pytest.raises(LeaseLost, match="stale lease epoch"):
            q.renew(t.chunk_id, "w1", 7.0, epoch=old_epoch)
        assert q.renew(t.chunk_id, "w1", 7.0, epoch=t2.epoch)

    def test_renew_after_completion_raises(self):
        q = TaskQueue(partition_space(6, 32), lease_duration=5.0)
        t = q.lease("w1", 0.0)
        t2 = q.lease("w2", 6.0)
        assert t2.chunk_id == t.chunk_id
        q.complete(t.chunk_id, "w2", 7.0)
        with pytest.raises(LeaseLost, match="already completed"):
            q.renew(t.chunk_id, "w1", 7.5)

    def test_renew_after_quarantine_raises(self):
        q = TaskQueue(
            partition_space(6, 32), lease_duration=5.0, max_attempts=1
        )
        t = q.lease("w1", 0.0)
        q.reclaim(6.0)  # budget of 1 spent -> quarantined
        assert t.status is TaskStatus.QUARANTINED
        with pytest.raises(LeaseLost, match="quarantined"):
            q.renew(t.chunk_id, "w1", 7.0)

    def test_eager_reclaim_sweep(self):
        q = TaskQueue(partition_space(6, 8), lease_duration=5.0)
        q.lease("w1", 0.0)
        q.lease("w1", 0.0)
        expired = []
        q.on_expire = lambda task, now: expired.append(task.chunk_id)
        q.reclaim(6.0)
        assert sorted(expired) == [0, 1]
        assert q.pending == len(q) and q.leased == 0

    def test_duplicate_chunk_ids_rejected(self):
        tasks = [SearchTask(0, 0, 1), SearchTask(0, 1, 2)]
        with pytest.raises(ValueError):
            TaskQueue(tasks)


class TestCompletion:
    def test_first_completion_wins(self):
        q = TaskQueue(partition_space(6, 32), lease_duration=5.0)
        t = q.lease("w1", 0.0)
        assert q.complete(t.chunk_id, "w1", 1.0)
        assert not q.complete(t.chunk_id, "w1", 1.1)   # replay
        assert not q.complete(t.chunk_id, "w2", 1.2)   # other worker
        assert q.done == 1

    def test_late_completion_from_expired_lease_accepted(self):
        # worker w1 went silent, chunk reassigned to w2; w1 wakes up
        # and completes first -- accepted (deterministic computation).
        q = TaskQueue(partition_space(6, 32), lease_duration=5.0)
        t = q.lease("w1", 0.0)
        q.lease("w2", 10.0)
        assert q.complete(t.chunk_id, "w1", 10.5)
        assert q.done == 1

    def test_progress_line(self):
        q = TaskQueue(partition_space(6, 16), lease_duration=5.0)
        q.lease("w1", 0.0)
        assert "1 in flight" in q.progress()
        assert not q.all_done


class TestRetryBudget:
    """max_attempts / backoff / quarantine semantics (new in the
    survival kit; max_attempts=0 above keeps the legacy behaviour)."""

    def make_queue(self, **kw):
        kw.setdefault("lease_duration", 5.0)
        kw.setdefault("max_attempts", 3)
        return TaskQueue(partition_space(6, 8), **kw)

    def test_budget_exhaustion_quarantines(self):
        q = self.make_queue()
        seen = []
        q.on_quarantine = lambda t, now: seen.append(t.chunk_id)
        now = 0.0
        for _ in range(3):  # three leases, three expiries
            t = q.lease("w", now)
            assert t.chunk_id == 0
            now += 10.0  # past the lease
        q.lease("w2", now)  # reclaim triggers the forfeit accounting
        task = q.task(0)
        assert task.status is TaskStatus.QUARANTINED
        assert seen == [0]
        assert q.quarantined_ids == [0]
        assert not q.all_done
        assert "quarantined" in q.progress()

    def test_release_counts_against_budget(self):
        q = self.make_queue(max_attempts=2)
        t = q.lease("w", 0.0)
        assert q.release(t.chunk_id, "w", 1.0)       # voluntary forfeit
        assert not q.release(t.chunk_id, "w", 1.1)   # no longer the owner
        t = q.lease("w", 2.0)
        assert t.attempts == 2
        q.release(t.chunk_id, "w", 3.0)              # budget spent
        assert q.task(t.chunk_id).status is TaskStatus.QUARANTINED

    def test_backoff_delays_next_lease(self):
        q = TaskQueue(partition_space(6, 32), lease_duration=5.0,
                      backoff_base=1.0)  # single-chunk partition
        delays = []
        q.on_backoff = lambda t, d: delays.append(d)
        t = q.lease("w", 0.0)
        q.release(t.chunk_id, "w", 1.0)
        assert len(delays) == 1 and 0.5 <= delays[0] <= 1.5
        assert q.lease("w", 1.0) is None              # still backing off
        assert q.lease("w", 1.0 + delays[0]) is not None
        assert q.next_wakeup(1.0) is not None

    def test_backoff_jitter_is_deterministic(self):
        def delays_for(seed_unused):
            q = self.make_queue(backoff_base=1.0, max_attempts=0)
            out = []
            q.on_backoff = lambda t, d: out.append(d)
            for i in range(2):
                t = q.lease("w", 100.0 * i)
                q.release(t.chunk_id, "w", 100.0 * i + 1)
            return out

        assert delays_for(0) == delays_for(1)

    def test_late_completion_rescues_quarantined_chunk(self):
        """The computation is deterministic: a straggler's answer for
        a quarantined chunk is still *the* answer."""
        q = self.make_queue(max_attempts=1)
        t = q.lease("w", 0.0)
        q.release(t.chunk_id, "w", 1.0)
        assert q.task(t.chunk_id).status is TaskStatus.QUARANTINED
        assert q.complete(t.chunk_id, "w", 2.0)
        assert q.task(t.chunk_id).status is TaskStatus.DONE
        assert q.quarantined == 0

    def test_mark_quarantined_restores_checkpoint_verdict(self):
        q = self.make_queue()
        assert q.mark_quarantined(1)
        assert q.mark_quarantined(1)          # idempotent
        assert q.quarantined_ids == [1]
        t = q.lease("w", 0.0)
        assert t.chunk_id == 0                # quarantined chunk skipped
        q.complete(0, "w", 1.0)
        assert not q.mark_quarantined(0)      # DONE wins over quarantine

    def test_finished_counts_quarantine_but_all_done_does_not(self):
        q = TaskQueue(partition_space(6, 16), lease_duration=5.0,
                      max_attempts=1)
        t = q.lease("w", 0.0)
        q.release(t.chunk_id, "w", 1.0)       # quarantined (budget 1)
        assert not q.finished
        t = q.lease("w", 2.0)
        q.complete(t.chunk_id, "w", 3.0)
        assert q.finished
        assert not q.all_done


class TestExactlyOnceAccounting:
    """Queue edge cases driven through a CampaignRecord, asserting the
    end-to-end exactly-once merge the campaign relies on."""

    def _engine(self):
        from repro.search.exhaustive import SearchConfig, search_chunk
        from repro.search.records import CampaignRecord

        cfg = SearchConfig(width=6, target_hd=4, filter_lengths=(8, 20),
                           confirm_weights=False)
        campaign = CampaignRecord(width=6, data_word_bits=20, target_hd=4)

        def deliver(campaign_, task):
            res = search_chunk(cfg, task.start_index, task.end_index)
            return campaign_.merge_chunk(task.chunk_id, res.records,
                                         res.examined)

        return campaign, deliver

    def test_renew_after_expiry_then_both_complete_once(self):
        campaign, deliver = self._engine()
        q = TaskQueue(partition_space(6, 8), lease_duration=5.0)
        t = q.lease("w1", 0.0)
        # w1's lease silently expires; w2 re-leases the chunk.
        t2 = q.lease("w2", 6.0)
        assert t2.chunk_id == t.chunk_id
        with pytest.raises(LeaseLost):
            q.renew(t.chunk_id, "w1", 6.5)          # w1 must abandon
        # Both deliver anyway (w1 never got the memo): merged once.
        assert q.complete(t.chunk_id, "w2", 7.0) and deliver(campaign, t2)
        assert not q.complete(t.chunk_id, "w1", 7.5)
        assert not deliver(campaign, t)
        assert campaign.chunks_done == {t.chunk_id}
        examined_once = campaign.candidates_examined
        assert examined_once == t.size

    def test_stale_owner_completion_after_release(self):
        campaign, deliver = self._engine()
        q = TaskQueue(partition_space(6, 8), lease_duration=5.0,
                      max_attempts=5)
        t = q.lease("w1", 0.0)
        q.release(t.chunk_id, "w1", 1.0)            # parent saw w1 die
        t2 = q.lease("w2", 2.0)
        assert t2.chunk_id == t.chunk_id and t2.attempts == 2
        # The "dead" worker's completion lands first: accepted once.
        assert q.complete(t.chunk_id, "w1", 2.5) and deliver(campaign, t)
        assert not q.complete(t.chunk_id, "w2", 3.0)
        assert not deliver(campaign, t2)
        assert q.done == 1
        assert campaign.candidates_examined == t.size

    def test_duplicate_complete_merges_once(self):
        campaign, deliver = self._engine()
        q = TaskQueue(partition_space(6, 8), lease_duration=5.0)
        t = q.lease("w1", 0.0)
        first = q.complete(t.chunk_id, "w1", 1.0) and deliver(campaign, t)
        second = q.complete(t.chunk_id, "w1", 1.1) and deliver(campaign, t)
        assert first and not second
        assert len(campaign.chunks_done) == 1
        assert campaign.candidates_examined == t.size


def _recount(q: TaskQueue) -> dict:
    tasks = [q.task(c) for c in range(len(q))]
    return {
        status: sum(t.status is status for t in tasks) for status in TaskStatus
    }


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["lease", "complete", "release", "renew", "reclaim"]),
        st.integers(min_value=0, max_value=11),  # chunk id
        st.sampled_from(["w0", "w1", "w2"]),
        st.floats(min_value=0.0, max_value=4.0),  # clock advance
    ),
    max_size=60,
)


class TestPerStatusBookkeeping:
    """The queue keeps per-status counts and heaps instead of scanning;
    whatever the history, they must agree with a full recount, and
    ``lease`` must still pick the lowest-id leasable chunk."""

    @given(_OPS, st.sampled_from([0, 2, 3]), st.sampled_from([0.0, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_counts_match_a_full_recount(self, ops, max_attempts, backoff):
        q = TaskQueue(
            partition_space(6, 3),  # 11 chunks
            lease_duration=5.0,
            max_attempts=max_attempts,
            backoff_base=backoff,
        )
        now = 0.0
        for op, chunk, worker, advance in ops:
            now += advance
            chunk %= len(q)
            if op == "lease":
                q.reclaim(now)
                leasable = [
                    c for c in range(len(q))
                    if q.task(c).status is TaskStatus.PENDING
                    and q.task(c).not_before <= now
                ]
                t = q.lease(worker, now)
                got = None if t is None else t.chunk_id
                assert got == (leasable[0] if leasable else None)
            elif op == "complete":
                q.complete(chunk, worker, now)
            elif op == "release":
                q.release(chunk, worker, now)
            elif op == "renew":
                try:
                    q.renew(chunk, worker, now)
                except LeaseLost:
                    pass
            else:
                q.reclaim(now)
            counts = _recount(q)
            assert (q.pending, q.leased, q.done, q.quarantined) == (
                counts[TaskStatus.PENDING],
                counts[TaskStatus.LEASED],
                counts[TaskStatus.DONE],
                counts[TaskStatus.QUARANTINED],
            )
            assert q.quarantined_ids == [
                c for c in range(len(q))
                if q.task(c).status is TaskStatus.QUARANTINED
            ]
            assert q.finished == (
                counts[TaskStatus.DONE] + counts[TaskStatus.QUARANTINED]
                == len(q)
            )

    def test_half_a_million_chunks_stay_cheap(self):
        """``finished`` and ``lease`` are O(log chunks): well under a
        millisecond at width 24, where a scan took hundreds."""
        import time

        q = TaskQueue(partition_space(24, 16), lease_duration=5.0)
        assert len(q) == 524_288

        def best_of(fn, n=5):
            times = []
            for _ in range(n):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        assert best_of(lambda: q.finished) < 1e-3
        assert best_of(lambda: q.lease("w", 0.0)) < 1e-3
        assert q.leased == 5
