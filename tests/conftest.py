"""Checks that hold for every test."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process unreaped, alive or exited,
    such as a solve's forked helper."""
    yield
    if not hasattr(os, "waitpid"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    left = "a child still running" if pid == 0 else f"child {pid} unreaped (status {status})"
    pytest.fail(f"the test left {left}")
