"""Suite-wide guards."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_live_child_process():
    """Fail a test that leaves a child process running (an eval worker, say)."""
    yield
    alive = multiprocessing.active_children()
    for proc in alive:
        proc.terminate()
        proc.join()
    if alive:
        pytest.fail(f"test left live child processes: {alive}")
