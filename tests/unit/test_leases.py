"""Tests for repro.sweep.leases and repro.sweep.chaos: the pure
bookkeeping under the fault-tolerant queue backend, driven by a fake
clock — no processes, no sleeping."""

import pytest

from repro.sweep import BackoffPolicy, ChaosError, ChaosPlan, LeaseSupervisor
from repro.sweep.leases import PoisonedCell
from repro.sweep.specs import GridSpec


def cells(n=4):
    spec = GridSpec(window_sizes=tuple(range(1, n + 1)),
                    propagation_caps=(1,), rates=(0.0,))
    return list(spec.cells())[:n]


def supervisor(n=4, lease_timeout=10.0, max_retries=2, **kwargs):
    return LeaseSupervisor(
        cells(n), lease_timeout=lease_timeout, max_retries=max_retries,
        backoff=kwargs.pop("backoff", BackoffPolicy(jitter=0.0)),
        **kwargs,
    )


class TestBackoffPolicy:
    def test_first_attempt_is_immediate(self):
        policy = BackoffPolicy(base=0.1, jitter=0.0)
        assert policy.delay(0, 1) == 0.0

    def test_delays_grow_exponentially_to_the_cap(self):
        policy = BackoffPolicy(base=0.1, multiplier=2.0, cap=0.5, jitter=0.0)
        assert [policy.delay(0, n) for n in (2, 3, 4, 5, 6)] == pytest.approx(
            [0.1, 0.2, 0.4, 0.5, 0.5]
        )

    def test_jitter_is_deterministic_and_bounded(self):
        policy = BackoffPolicy(base=1.0, jitter=0.5, seed=7)
        draws = [policy.delay(cell, 3) for cell in range(50)]
        assert draws == [policy.delay(cell, 3) for cell in range(50)]
        assert all(1.0 <= d <= 3.0 for d in draws)  # 2.0 +/- 50%
        assert len(set(draws)) > 1  # decorrelated across cells

    def test_seed_changes_the_schedule(self):
        a = BackoffPolicy(base=1.0, jitter=0.5, seed=1)
        b = BackoffPolicy(base=1.0, jitter=0.5, seed=2)
        assert [a.delay(c, 2) for c in range(8)] != [
            b.delay(c, 2) for c in range(8)
        ]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=-1.0)
        with pytest.raises(ValueError):
            BackoffPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=2.0)


class TestLeaseSupervisor:
    # The engine hands cells over by falling (NI, NT), not by index.
    @pytest.mark.parametrize("given", [[0, 1, 2], [2, 1, 0]],
                             ids=["index_order", "reversed"])
    def test_happy_path_grants_in_given_order_and_completes(self, given):
        grid = cells(3)
        sup = LeaseSupervisor([grid[i] for i in given], lease_timeout=10.0,
                              max_retries=2)
        granted = []
        while True:
            cell = sup.next_ready(0.0)
            if cell is None:
                break
            sup.grant(cell.index, worker=1, now=0.0)
            granted.append(cell.index)
        assert granted == given
        for index in granted:
            assert sup.complete(index)
        assert sup.done() and sup.outstanding() == 0

    def test_double_grant_is_rejected(self):
        sup = supervisor()
        sup.grant(0, worker=1, now=0.0)
        with pytest.raises(ValueError, match="already leased"):
            sup.grant(0, worker=2, now=0.0)

    def test_heartbeat_renews_and_expiry_fires_without_it(self):
        sup = supervisor(lease_timeout=10.0)
        sup.grant(0, worker=1, now=0.0)
        sup.grant(1, worker=2, now=0.0)
        assert sup.heartbeat(1, now=8.0) == 1
        expired = sup.expired_leases(now=12.0)
        assert [lease.cell_index for lease in expired] == [1]
        assert sup.renewals == 1

    def test_worker_lost_requeues_with_backoff(self):
        sup = supervisor(n=1, backoff=BackoffPolicy(base=2.0, jitter=0.0))
        sup.grant(0, worker=1, now=0.0)
        outcomes = sup.worker_lost(1, now=5.0)
        assert outcomes == [None]  # requeued, not poisoned
        assert sup.retries == 1
        assert sup.next_ready(5.0) is None  # held back by backoff
        assert sup.next_ready_at() == pytest.approx(7.0)
        cell = sup.next_ready(7.5)
        assert cell is not None and cell.index == 0
        lease = sup.grant(0, worker=3, now=7.5)
        assert lease.attempt == 2

    def test_retry_budget_exhaustion_poisons(self):
        sup = supervisor(max_retries=1)
        for attempt in (1, 2):
            sup.grant(0, worker=attempt, now=float(attempt))
            outcomes = sup.worker_lost(attempt, now=float(attempt))
        (poisoned,) = outcomes
        assert isinstance(poisoned, PoisonedCell)
        assert poisoned.cell_index == 0 and poisoned.attempts == 2
        assert poisoned.history == ["lost", "lost"]
        assert 0 in sup.poisoned
        assert sup.outstanding() == len(sup.cells) - 1
        # A poisoned cell never comes back out of the ready queue.
        seen = set()
        while True:
            cell = sup.next_ready(100.0)
            if cell is None:
                break
            seen.add(cell.index)
            sup.grant(cell.index, worker=9, now=100.0)
        assert 0 not in seen

    def test_fail_records_the_error_on_the_poison(self):
        sup = supervisor(max_retries=0)
        sup.grant(2, worker=1, now=0.0)
        poisoned = sup.fail(2, now=0.0, error="ValueError: boom")
        assert isinstance(poisoned, PoisonedCell)
        assert poisoned.error == "ValueError: boom"
        assert poisoned.as_dict() == {
            "index": 2, "attempts": 1, "error": "ValueError: boom",
        }

    def test_straggler_result_unpoisons(self):
        sup = supervisor(max_retries=0)
        sup.grant(0, worker=1, now=0.0)
        sup.worker_lost(1, now=0.0)
        assert 0 in sup.poisoned
        # The "dead" worker's result arrives anyway: prefer the value.
        assert sup.complete(0)
        assert 0 not in sup.poisoned
        assert not sup.complete(0)  # duplicate is ignored

    def test_completed_cell_ignores_late_failures(self):
        sup = supervisor()
        sup.grant(0, worker=1, now=0.0)
        sup.complete(0)
        assert sup.worker_lost(1, now=0.0) == []
        assert sup.fail(0, now=0.0, error="late") is None
        assert sup.retries == 0

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            supervisor(lease_timeout=0.0)
        with pytest.raises(ValueError):
            supervisor(max_retries=-1)


class TestStalledLeases:
    """Stalls are read off the leases: quiet past a report-only timeout,
    once per quiet spell, re-armed by the next renewal."""

    def test_quiet_holder_stalls_once(self):
        sup = supervisor(lease_timeout=10.0)
        sup.grant(1, worker=1, now=0.0)
        assert sup.stalled_leases(now=0.5, timeout=1.0) == []
        stalled = sup.stalled_leases(now=2.0, timeout=1.0)
        assert [(lease.worker, lease.cell_index) for lease in stalled] == [
            (1, 1)
        ]
        assert 2.0 - stalled[0].heard_at == 2.0
        # Still quiet: not re-reported until it is heard from.
        assert sup.stalled_leases(now=3.0, timeout=1.0) == []

    def test_unleased_worker_never_stalls(self):
        sup = supervisor()
        sup.grant(0, worker=1, now=0.0)
        sup.complete(0)  # worker 1 is idle: no lease left to go quiet
        assert sup.stalled_leases(now=10.0, timeout=1.0) == []

    def test_renewal_rearms(self):
        sup = supervisor(lease_timeout=10.0)
        sup.grant(0, worker=1, now=0.0)
        assert sup.stalled_leases(now=2.0, timeout=1.0)
        sup.heartbeat(1, now=2.1)
        assert sup.stalled_leases(now=2.5, timeout=1.0) == []
        stalled = sup.stalled_leases(now=4.0, timeout=1.0)
        assert [lease.cell_index for lease in stalled] == [0]
        assert 4.0 - stalled[0].heard_at == pytest.approx(1.9)


class TestChaosPlan:
    def test_parse_combined_spec(self):
        plan = ChaosPlan.parse("kill-workers:0.2,fail-cells:1", seed=7)
        assert plan.kill_rate == 0.2
        assert plan.fail_rate == 1.0
        assert plan.hang_rate == 0.0
        assert plan.seed == 7 and plan.enabled

    def test_parse_empty_spec_is_disabled(self):
        assert not ChaosPlan.parse(None).enabled
        assert not ChaosPlan.parse("").enabled
        assert ChaosPlan.from_payload(None) is None
        assert ChaosPlan.from_payload(ChaosPlan.parse("").as_payload()) is None

    def test_parse_rejects_bad_specs(self):
        with pytest.raises(ChaosError, match="unknown chaos mode"):
            ChaosPlan.parse("explode-everything:1")
        with pytest.raises(ChaosError, match="bad chaos rate"):
            ChaosPlan.parse("kill-workers:lots")
        with pytest.raises(ChaosError, match="in \\[0, 1\\]"):
            ChaosPlan.parse("kill-workers:1.5")

    def test_decisions_are_deterministic_and_rate_shaped(self):
        plan = ChaosPlan.parse("kill-workers:0.2", seed=7)
        fates = [plan.decision(cell, 1) for cell in range(500)]
        assert fates == [plan.decision(cell, 1) for cell in range(500)]
        kills = sum(1 for fate in fates if fate == "kill")
        assert 50 <= kills <= 150  # ~20% of 500
        # Retried attempts draw independently: a killed attempt's retry
        # usually survives, so grids complete under partial mortality.
        retried = [plan.decision(cell, 2)
                   for cell, fate in enumerate(fates) if fate == "kill"]
        assert any(fate is None for fate in retried)

    def test_deadlier_mode_wins(self):
        plan = ChaosPlan.parse(
            "kill-workers:1,hang-workers:1,fail-cells:1", seed=1
        )
        assert plan.decision(0, 1) == "kill"

    def test_payload_roundtrip(self):
        plan = ChaosPlan.parse("hang-workers:0.3", seed=9)
        assert ChaosPlan.from_payload(plan.as_payload()) == plan
