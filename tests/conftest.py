"""Suite-wide settings: property tests draw a fixed, bounded set of
examples, so every run of the suite checks the same cases; and no test may
leave a process behind."""

import os

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          max_examples=300, database=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def no_stray_processes():
    """Fail a test that ends in a process other than the one it started in
    (a forked worker that returned into the test) or that leaves a child
    process unreaped."""
    pid = os.getpid()
    yield
    if os.getpid() != pid:
        # a forked worker must not go on to run the rest of the suite
        os.write(2, b"test ended in a forked child process\n")
        os._exit(70)
    try:
        child, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child processes at all
        return
    pytest.fail("the test left a child process behind "
                + ("still running" if child == 0 else f"unreaped (pid {child})"))
