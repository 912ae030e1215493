import pytest

from choqfuse import _threads


@pytest.fixture(params=[1, 4], ids=["1-cpu", "4-cpus"])
def cpus(request, monkeypatch):
    """Run the large-N layer (chunked fusion and evaluation) on 1 or 4 threads."""
    monkeypatch.setattr(_threads, "cpu_count", lambda: request.param)
    return request.param
