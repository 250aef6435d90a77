"""The on-disk kernel cache: hits, misses and every way an entry or a
directory can be bad.

Each case runs in a fresh process whose every cache candidate
(``REPRO_CACHE_DIR``, ``XDG_CACHE_HOME``, ``HOME``, ``TMPDIR``) points
into ``tmp_path`` — a damaged entry above all: overwriting a library
this process has mapped is a bus error, not a test.  Nothing here
touches the real ``~/.cache``.
"""

import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim import _ckernel

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The ambient compiler command line: CI's sanitizer job runs this file
#: with an instrumented ``$CC``, which must land under its own key.
BASE_CC = os.environ.get("CC", "cc")

pytestmark = pytest.mark.skipif(
    shutil.which(shlex.split(BASE_CC)[0]) is None, reason="no C compiler"
)

_PROBE = """
import ctypes, json, sys, warnings
from repro.sim import _ckernel
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    kernel = _ckernel.get_kernel()
layout = None
if kernel is not None:
    sizes = (ctypes.c_int32 * 2)()
    kernel.ctx_size(sizes)
    layout = list(sizes) == [ctypes.sizeof(_ckernel.Ctx), _ckernel.ST_LEN]
print(json.dumps({
    "how": _ckernel.origin.how,
    "path": _ckernel.origin.path,
    "layout": layout,
    "warnings": [str(w.message) for w in caught],
    "loaded": sorted(
        m for m in ("subprocess", "tempfile") if m in sys.modules
    ),
}))
"""


def _sandbox_env(tmp_path, **overrides):
    """An environment whose four cache candidates all live in
    ``tmp_path``; ``None`` in ``overrides`` unsets a variable."""
    (tmp_path / "tmp").mkdir(exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        ),
        REPRO_CACHE_DIR=str(tmp_path / "cache"),
        XDG_CACHE_HOME=str(tmp_path / "xdg"),
        HOME=str(tmp_path / "home"),
        TMPDIR=str(tmp_path / "tmp"),
    )
    env.pop("REPRO_NO_CKERNEL", None)
    for name, value in overrides.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def _spawn(env):
    return subprocess.Popen(
        [sys.executable, "-c", _PROBE], env=env, cwd=env["TMPDIR"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _report(proc):
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return json.loads(out.splitlines()[-1])


def _probe(env):
    return _report(_spawn(env))


def _entries(directory):
    return sorted(p.name for p in Path(directory).iterdir())


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """One valid entry, built once by a fresh process."""
    report = _probe(_sandbox_env(tmp_path_factory.mktemp("pristine")))
    assert report["how"] == "built"
    built = Path(report["path"])
    key = built.name.split("-")[1]
    assert built.name == f"step_noc-{key}-{_digest(built)}.so"
    return built


@pytest.fixture
def entry(pristine, tmp_path):
    """A copy of the valid entry in this test's own cache, free to be
    damaged: no process has it mapped."""
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    return Path(shutil.copy(pristine, cache))


class TestHitAndMiss:
    def test_second_process_hits_without_a_compiler(self, tmp_path):
        """``$CC`` is a wrapper that logs each invocation: two processes
        with the same ``$CC`` compile once, a third with another ``$CC``
        string builds under its own key."""
        log = tmp_path / "cc.log"
        wrapper = tmp_path / "logging-cc"
        wrapper.write_text(f'#!/bin/sh\necho run >> "{log}"\nexec "$@"\n')
        wrapper.chmod(0o755)
        env = _sandbox_env(tmp_path, CC=f"{wrapper} {BASE_CC}")

        cold = _probe(env)
        assert (cold["how"], cold["layout"], cold["warnings"]) == (
            "built", True, []
        )
        assert (tmp_path / "cache").stat().st_mode & 0o777 == 0o700
        warm = _probe(env)
        assert (warm["how"], warm["layout"], warm["warnings"]) == (
            "cache-hit", True, []
        )
        assert warm["path"] == cold["path"]
        assert warm["loaded"] == []  # the build path's imports
        assert log.read_text().splitlines() == ["run"]

        other = _probe(dict(env, CC=env["CC"] + " -DREPRO_TEST_OTHER_KEY"))
        assert other["how"] == "built" and other["layout"]
        assert other["path"] != cold["path"]
        assert len(log.read_text().splitlines()) == 2
        assert len(_entries(tmp_path / "cache")) == 2

    def test_no_ckernel_touches_no_disk(self, tmp_path):
        env = _sandbox_env(tmp_path, REPRO_NO_CKERNEL="1")
        report = _probe(env)
        assert (report["how"], report["path"]) == ("unavailable", None)
        assert report["warnings"] == [] and report["loaded"] == []
        assert _entries(tmp_path) == ["tmp"]
        assert _entries(tmp_path / "tmp") == []

    def test_racing_cold_processes_both_get_a_kernel(self, tmp_path):
        env = _sandbox_env(tmp_path)
        racers = [_spawn(env), _spawn(env)]
        reports = [_report(proc) for proc in racers]
        for report in reports:
            assert report["how"] in ("built", "cache-hit")
            assert report["layout"] and report["warnings"] == []
        assert reports[0]["path"] == reports[1]["path"]
        assert _entries(tmp_path / "cache") == [
            os.path.basename(reports[0]["path"])
        ]


class TestBadEntries:
    """A damaged or foreign entry costs one rebuild: a working kernel,
    one valid entry afterwards, never a crash or a reference run."""

    def _assert_rebuilt(self, entry):
        """One entry afterwards, under the same key and true to its
        name — so not the damaged one.  (Its digest need not equal the
        pristine build's: ``-g`` records the compiler's directory.)"""
        report = _probe(_sandbox_env(entry.parent.parent))
        (name,) = _entries(entry.parent)
        rebuilt = entry.parent / name
        assert (report["how"], report["path"]) == ("rebuilt", str(rebuilt))
        assert report["layout"] and report["warnings"] == []
        key = entry.name.split("-")[1]
        assert name == f"step_noc-{key}-{_digest(rebuilt)}.so"

    def test_truncated_entry(self, entry):
        data = entry.read_bytes()
        entry.write_bytes(data[: len(data) // 2])
        self._assert_rebuilt(entry)

    @pytest.mark.parametrize("where", ["elf-header", "text", "tail"])
    def test_one_flipped_byte(self, entry, where):
        """Anywhere in the file: the ELF header, a third of the way in
        (``.text`` on the builds seen so far) and the last byte."""
        data = bytearray(entry.read_bytes())
        offset = {
            "elf-header": 0x18,  # e_entry
            "text": len(data) // 3,
            "tail": len(data) - 1,
        }[where]
        data[offset] ^= 0x40
        entry.write_bytes(bytes(data))
        self._assert_rebuilt(entry)

    def test_not_a_library_for_this_machine(self, entry):
        """Bytes that match their name but do not ``dlopen`` — what a
        cache shared with another architecture would hold."""
        key = entry.name.split("-")[1]
        entry.unlink()
        bogus = b"\x7fELF" + bytes(60)
        planted = entry.parent / (
            f"step_noc-{key}-{hashlib.sha256(bogus).hexdigest()}.so"
        )
        planted.write_bytes(bogus)
        self._assert_rebuilt(entry)
        assert not planted.exists()

    def test_stale_layout_is_unlinked_and_rebuilt(self, entry, tmp_path):
        """A valid library whose ``Ctx`` has one more member, under the
        right key and its own digest, trips the layout check."""
        key = entry.name.split("-")[1]
        entry.unlink()
        drifted = _ckernel._SOURCE.replace(
            "} Ctx;", "    int64_t one_more_member;\n} Ctx;"
        )
        assert drifted != _ckernel._SOURCE
        built = tmp_path / "drifted.so"
        subprocess.run(
            [*shlex.split(BASE_CC), *_ckernel._FLAGS, "-o", str(built)],
            input=drifted.encode(), check=True, capture_output=True,
            timeout=120,
        )
        planted = entry.parent / f"step_noc-{key}-{_digest(built)}.so"
        shutil.copy(built, planted)
        self._assert_rebuilt(entry)
        assert not planted.exists()


class TestBadDirectories:
    """A directory someone else could have written, or that this user
    cannot write, is never loaded from: the next candidate is used."""

    def test_read_only_directory_falls_through(self, tmp_path):
        readonly = tmp_path / "cache"
        readonly.mkdir(mode=0o500)
        report = _probe(_sandbox_env(tmp_path))
        assert (report["how"], report["warnings"]) == ("built", [])
        assert os.path.dirname(report["path"]) == str(
            tmp_path / "xdg" / "repro"
        )
        assert _entries(readonly) == []

    def test_group_writable_directory_falls_through(self, tmp_path):
        shared = tmp_path / "cache"
        shared.mkdir()
        shared.chmod(0o770)
        # A valid entry in it is still not loaded.
        good = _probe(_sandbox_env(tmp_path, REPRO_CACHE_DIR=None))
        shutil.copy(good["path"], shared)
        shutil.rmtree(tmp_path / "xdg")
        report = _probe(_sandbox_env(tmp_path))
        assert (report["how"], report["warnings"]) == ("built", [])
        assert os.path.dirname(report["path"]) == str(
            tmp_path / "xdg" / "repro"
        )

    def test_no_usable_directory_builds_in_a_temp_dir(self, tmp_path):
        """All four candidates unusable: the parent commit's behaviour,
        a private temp build — and nothing left behind."""
        (tmp_path / "tmp").mkdir()
        last = tmp_path / "tmp" / f"repro-cache-{os.getuid()}"
        for bad in (tmp_path / "cache", tmp_path / "xdg" / "repro", last):
            bad.mkdir(parents=True)
            bad.chmod(0o777)
        report = _probe(_sandbox_env(tmp_path, HOME="/dev/null"))
        assert (report["how"], report["path"]) == ("temp-build", None)
        assert report["layout"] and report["warnings"] == []
        assert _entries(tmp_path / "tmp") == [last.name]
        assert _entries(last) == []

    def test_unwritable_home(self, tmp_path):
        """``$HOME`` that cannot hold a cache (here: not a directory)
        changes nothing a user sees: the kernel loads, no warning."""
        env = _sandbox_env(
            tmp_path, HOME="/dev/null", REPRO_CACHE_DIR=None,
            XDG_CACHE_HOME=None,
        )
        report = _probe(env)
        assert (report["how"], report["layout"]) == ("built", True)
        assert report["warnings"] == []
        assert os.path.dirname(report["path"]) == str(
            tmp_path / "tmp" / f"repro-cache-{os.getuid()}"
        )
        assert _probe(env)["how"] == "cache-hit"

    def test_unresolvable_home(self, tmp_path, monkeypatch):
        """No ``$HOME`` and no password-database entry leaves ``~``
        unexpanded; that candidate is skipped, not created in the
        working directory."""
        for name in ("HOME", "REPRO_CACHE_DIR", "XDG_CACHE_HOME"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(os.path, "expanduser", lambda path: path)
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        assert _ckernel._cache_dir() == str(
            tmp_path / f"repro-cache-{os.getuid()}"
        )
        assert _entries(tmp_path) == [f"repro-cache-{os.getuid()}"]
