"""Tests for the Resource primitive."""

import pytest

from repro.sim import Environment, Resource


class TestResource:
    def test_grants_up_to_capacity(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        r1, r2, r3 = resource.request(), resource.request(), resource.request()
        env.run()
        assert r1.processed and r2.processed
        assert not r3.triggered
        assert resource.count == 2
        assert resource.queue_length == 1

    def test_release_grants_next_fifo(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        r1 = resource.request()
        r2 = resource.request()
        r3 = resource.request()
        env.run()
        r1.release()
        env.run()
        assert r2.processed and not r3.triggered
        r2.release()
        env.run()
        assert r3.processed

    def test_release_idempotent(self):
        env = Environment()
        resource = Resource(env)
        request = resource.request()
        env.run()
        request.release()
        request.release()
        assert resource.count == 0

    def test_cancelling_queued_request(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        _held = resource.request()
        queued = resource.request()
        env.run()
        queued.release()  # withdraw from the queue
        assert resource.queue_length == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Resource(Environment(), capacity=0)

    def test_process_queueing_behaviour(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        log = []

        def worker(env, name, hold):
            request = resource.request()
            yield request
            log.append((env.now, name, "start"))
            yield env.timeout(hold)
            request.release()
            log.append((env.now, name, "done"))

        env.process(worker(env, "a", 2.0))
        env.process(worker(env, "b", 1.0))
        env.run()
        assert log == [
            (0.0, "a", "start"),
            (2.0, "a", "done"),
            (2.0, "b", "start"),
            (3.0, "b", "done"),
        ]

    def test_context_manager_releases(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        log = []

        def worker(env, name):
            with resource.request() as request:
                yield request
                log.append((env.now, name))
                yield env.timeout(1.0)

        env.process(worker(env, "a"))
        env.process(worker(env, "b"))
        env.run()
        assert log == [(0.0, "a"), (1.0, "b")]

