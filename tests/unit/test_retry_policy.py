"""Property tests: RetryPolicy backoff is a pure function of
(job hash, retry index).

A killed campaign resumes under a fresh supervisor, and a crashed
worker's job retries in a different worker process; if the jittered
backoff schedule depended on which process (or which call order)
computes it, retry timing would be irreproducible across those moves.  Determinism here
is what lets a fault-plan replay produce the same timeline twice.
"""

import hashlib

from repro.engine.supervisor import RetryPolicy


def _hashes(n):
    return [
        hashlib.sha256(f"job-{i}".encode()).hexdigest()[:24]
        for i in range(n)
    ]


class TestDeterminism:
    def test_same_hash_same_schedule_across_fresh_instances(self):
        # A respawned supervisor (a resumed campaign) constructs its
        # own policy object.
        for job_hash in _hashes(50):
            schedule_a = [RetryPolicy().delay(job_hash, r)
                          for r in range(1, 6)]
            schedule_b = [RetryPolicy().delay(job_hash, r)
                          for r in range(1, 6)]
            assert schedule_a == schedule_b

    def test_schedule_independent_of_call_order(self):
        policy = RetryPolicy()
        hashes = _hashes(20)
        forward = {h: [policy.delay(h, r) for r in (1, 2, 3)]
                   for h in hashes}
        fresh = RetryPolicy()
        for job_hash in reversed(hashes):
            for retry in (3, 2, 1):
                assert (fresh.delay(job_hash, retry)
                        == forward[job_hash][retry - 1])

    def test_jitter_varies_by_hash_not_by_time(self):
        policy = RetryPolicy()
        delays = {policy.delay(h, 1) for h in _hashes(50)}
        assert len(delays) > 1  # not in lockstep
        base = policy.backoff_base_s
        for delay in delays:
            assert base <= delay <= base * (1.0 + policy.jitter) + 1e-12


class TestShape:
    def test_exponential_until_cap(self):
        policy = RetryPolicy(backoff_base_s=0.1, backoff_cap_s=0.4,
                             jitter=0.0)
        [job_hash] = _hashes(1)
        delays = [policy.delay(job_hash, r) for r in (1, 2, 3, 4, 5)]
        assert delays == [0.1, 0.2, 0.4, 0.4, 0.4]

    def test_zero_base_means_no_sleep(self):
        policy = RetryPolicy(backoff_base_s=0.0)
        assert policy.delay("abc123", 1) == 0.0

    def test_short_or_empty_hash_does_not_crash(self):
        policy = RetryPolicy()
        assert policy.delay("", 1) >= policy.backoff_base_s
        assert policy.delay("ab", 1) >= policy.backoff_base_s
