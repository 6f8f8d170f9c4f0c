"""ScoreCache store/lookup outside the in-parent scoring modules."""


def worker(payload, item):
    cache = payload
    cache.store_batch([item], [0.0], (0, 0))  # lint-expect: worker-cache-access
    cache.clear()  # lint-expect: worker-cache-access
    cache.restore(item)  # lint-expect: worker-cache-access
    cache._holds("space", [item], [0], [0])  # lint-expect: worker-cache-access
    return cache.lookup_batch([item], (0, 0))  # lint-expect: worker-cache-access
