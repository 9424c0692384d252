"""``BatchingQueue`` batch sizing: ``max_batch`` caps every engine call."""

import threading

from repro.dse import SMOKE_SPEC, config_key, normalize_config
from repro.dse.cache import NullCache
from repro.serve.batching import BatchingQueue


class TestMaxBatch:
    def test_no_batch_exceeds_max_batch(self):
        configs = [normalize_config(c) for c in SMOKE_SPEC.configs()[:6]]
        queue = BatchingQueue(cache=NullCache(), window_s=0.3, max_batch=2)
        barrier = threading.Barrier(len(configs))
        infos = [None] * len(configs)

        def client(i):
            barrier.wait()
            _, _, infos[i] = queue.submit(config_key(configs[i]),
                                          configs[i])

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(configs))]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
        finally:
            queue.shutdown()
        assert all(info is not None for info in infos)
        assert all(info["requests"] <= 2 for info in infos), \
            [info["requests"] for info in infos]
        stats = queue.stats()
        assert stats["requests"] == 6
        assert stats["batches"] >= 3
