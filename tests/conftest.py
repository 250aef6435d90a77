"""Repo-wide test fixtures and import paths.

Puts the ``tests/`` directory itself on ``sys.path`` so shared test
helpers import as plain (namespace) packages — e.g. the Hypothesis
intensity tiers in :mod:`property.settings` — without sprinkling
``__init__.py`` files through the test tree.
"""

import os
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.dirname(__file__))

# The session's kernel cache is its own, so the suite never writes to
# the real ~/.cache (CI points REPRO_CACHE_DIR at a directory it keeps
# between runs).  Set at import: collection already loads the kernel.
if "REPRO_CACHE_DIR" not in os.environ:
    _session_cache = tempfile.TemporaryDirectory(prefix="repro-test-cache-")
    os.environ["REPRO_CACHE_DIR"] = _session_cache.name


@pytest.fixture
def kernel_cache(tmp_path, monkeypatch):
    """An empty kernel cache directory and a loader that has not run.

    ``REPRO_CACHE_DIR`` points at the returned path (not yet created)
    and ``_ckernel``'s per-process state is reset; both are restored on
    teardown, so the session's own kernel is untouched.
    """
    from repro.sim import _ckernel

    cache = tmp_path / "kernel-cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    monkeypatch.delenv("REPRO_NO_CKERNEL", raising=False)
    monkeypatch.setattr(_ckernel, "_tried", False)
    monkeypatch.setattr(_ckernel, "_lib", None)
    monkeypatch.setattr(_ckernel, "origin", None)
    return cache
