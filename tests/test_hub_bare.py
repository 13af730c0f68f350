"""Bare hosted repositories and the hardened contents boundary.

A hosted repository is refs plus an object store: contents commits are
built by tree surgery on the branch tip, pushes only move refs.  These
tests pin the behaviour that follows from that — a rejected contents write
changes nothing (the three fuzz repros: a non-string ``message``, an
identical re-PUT, a PUT beneath a file), every request gets a documented
status (payload type checks, the last-resort 500 of the HTTP server) — plus
the serving fixes that ride along: the rate limiter's clock, thread-safe
failpoint counting and thin fetches from a hub that is strictly ahead.
"""

from __future__ import annotations

import argparse
import base64
import threading
import time
from pathlib import Path

import pytest

from repro import faults
from repro.cli import serve
from repro.cli.storage import save_repository
from repro.errors import RateLimitExceededError, TransportError
from repro.hub.api import RestApi
from repro.hub.durability import PushJournal, journal_path, replay_journal
from repro.hub.httpd import HttpTransport, HubHttpServer
from repro.hub.ratelimit import RateLimiter
from repro.hub.server import HostingPlatform
from repro.hub.sync import HubRemote
from repro.vcs.repository import Repository
from repro.vcs.transfer import read_bundle
from repro.vcs.treeops import flatten_files

SLUG = "alice/proj"
CONTENTS = f"/repos/{SLUG}/contents"


def _encoded(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


@pytest.fixture
def served(tmp_path: Path):
    """(platform, token, journal path) for a journalled hosted repository."""
    root = tmp_path / "served"
    repo = Repository.init(name="proj", owner="alice")
    repo.write_file("a.txt", "a\n")
    repo.commit("init")
    save_repository(repo, root)
    platform = HostingPlatform()
    platform.host_repository(repo)
    journal = PushJournal(journal_path(root))
    platform.attach_journal(SLUG, journal)
    yield platform, platform.issue_token("alice").value, journal_path(root)
    journal.close()


def _state(platform: HostingPlatform, journal: Path):
    """Everything a rejected request must leave exactly as it was."""
    repo = platform.get_repository(SLUG).repo
    return repo.refs.branches, [r.bundle for r in replay_journal(journal).records]


class TestRejectedContentsWritesChangeNothing:
    """The fuzz repros, over a live socket: typed 4xx, no trace left."""

    def _assert_unchanged_then_clean_commit(self, platform, wire, token, journal, before):
        assert _state(platform, journal) == before
        repo = platform.get_repository(SLUG).repo
        parent = repo.refs.branch_target("main")
        response = wire.put(
            f"{CONTENTS}/c.txt", {"message": "add c", "content": _encoded(b"c\n")}, token=token
        )
        assert response.status == 201, response.json
        commit = repo.store.get_commit(response.json["commit"]["sha"])
        assert commit.parent_oids == (parent,)
        # The next commit holds its parent's files plus c.txt — nothing the
        # rejected request tried to write leaked into it.
        expected = set(flatten_files(repo.store, repo.tree_oid_of(parent))) | {"/c.txt"}
        assert set(flatten_files(repo.store, commit.tree_oid)) == expected
        assert len(replay_journal(journal).records) == len(before[1]) + 1

    def test_non_string_message_is_422(self, served):
        platform, token, journal = served
        before = _state(platform, journal)
        with HubHttpServer(RestApi(platform)) as server:
            wire = HttpTransport(server.url)
            response = wire.put(
                f"{CONTENTS}/b.txt", {"content": "Zm9v", "message": True}, token=token
            )
            assert response.status == 422
            assert "message" in response.json["message"]
            self._assert_unchanged_then_clean_commit(platform, wire, token, journal, before)

    def test_identical_reput_is_422(self, served):
        platform, token, journal = served
        before = _state(platform, journal)
        with HubHttpServer(RestApi(platform)) as server:
            wire = HttpTransport(server.url)
            response = wire.put(
                f"{CONTENTS}/a.txt", {"message": "same", "content": _encoded(b"a\n")}, token=token
            )
            assert response.status == 422
            assert "nothing to commit" in response.json["message"]
            self._assert_unchanged_then_clean_commit(platform, wire, token, journal, before)

    def test_put_beneath_a_file_is_422(self, served):
        platform, token, journal = served
        before = _state(platform, journal)
        with HubHttpServer(RestApi(platform)) as server:
            wire = HttpTransport(server.url)
            response = wire.put(
                f"{CONTENTS}/a.txt/deeper", {"message": "nest", "content": "Zm9v"}, token=token
            )
            assert response.status == 422
            assert "is a file" in response.json["message"]
            self._assert_unchanged_then_clean_commit(platform, wire, token, journal, before)

    @pytest.mark.parametrize("payload", [
        {"message": "m", "content": 42},
        {"message": ["m"], "content": "Zm9v"},
        {"message": "m", "content": "Zm9v", "branch": 7},
        {"message": "m", "content": "Zm9v", "committer": "alice"},
        {"message": "m", "content": "Zm9v", "committer": {"name": 1}},
    ])
    def test_put_payload_types_are_checked(self, served, payload):
        platform, token, journal = served
        before = _state(platform, journal)
        assert RestApi(platform).put(f"{CONTENTS}/b.txt", payload, token=token).status == 422
        assert _state(platform, journal) == before

    @pytest.mark.parametrize("payload", [
        {"message": None},
        {"message": "m", "branch": ["main"]},
        {"message": "m", "committer": 3},
    ])
    def test_delete_payload_types_are_checked(self, served, payload):
        platform, token, journal = served
        before = _state(platform, journal)
        assert RestApi(platform).delete(f"{CONTENTS}/a.txt", payload, token=token).status == 422
        assert _state(platform, journal) == before

    def test_delete_of_a_directory_or_missing_file_is_404(self, served):
        platform, token, journal = served
        api = RestApi(platform)
        assert api.put(f"{CONTENTS}/d/x.txt", {"message": "x", "content": "eA=="}, token=token).ok
        before = _state(platform, journal)
        assert api.delete(f"{CONTENTS}/d", {"message": "rm dir"}, token=token).status == 404
        assert api.delete(f"{CONTENTS}/nope", {"message": "rm"}, token=token).status == 404
        assert _state(platform, journal) == before

    def test_illegal_path_gets_a_documented_status(self, served):
        platform, token, journal = served
        api = RestApi(platform)
        before = _state(platform, journal)
        assert api.get(f"{CONTENTS}/a/../b").status == 404
        put = {"message": "m", "content": "eA=="}
        assert api.put(f"{CONTENTS}/a/../b", put, token=token).status == 422
        assert api.delete(f"{CONTENTS}/a/../b", {"message": "m"}, token=token).status == 404
        assert _state(platform, journal) == before

    def test_delete_of_last_file_drops_its_directory(self, served):
        platform, token, _ = served
        api = RestApi(platform)
        assert api.put(f"{CONTENTS}/d/x.txt", {"message": "x", "content": "eA=="}, token=token).ok
        assert api.delete(f"{CONTENTS}/d/x.txt", {"message": "rm"}, token=token).ok
        repo = platform.get_repository(SLUG).repo
        assert not repo.path_exists_at("main", "/d")
        assert repo.read_file_at("main", "/a.txt") == b"a\n"


class TestConcurrentContentsWrites:
    def test_racing_puts_all_land_in_journal_order(self, served, monkeypatch):
        import repro.hub.server as server_module
        from repro.vcs.transfer import read_bundle as parse

        platform, token, journal = served
        built = []
        original = server_module.rewrite_path

        def slow_rewrite(*args, **kwargs):
            built.append(args[2])
            time.sleep(0.002)  # widen the window between reading the tip and the CAS
            return original(*args, **kwargs)

        monkeypatch.setattr(server_module, "rewrite_path", slow_rewrite)
        api = RestApi(platform)
        statuses = []

        def writer(index):
            payload = {"message": f"w{index}", "content": _encoded(f"{index}\n".encode())}
            statuses.append(api.put(f"{CONTENTS}/w{index}.txt", payload, token=token).status)

        pool = [threading.Thread(target=writer, args=(i,)) for i in range(8)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert statuses == [201] * 8
        assert len(built) > 8  # some commits lost the CAS and were rebuilt
        repo = platform.get_repository(SLUG).repo
        files = flatten_files(repo.store, repo.tree_oid_of("main"))
        assert {f"/w{i}.txt" for i in range(8)} <= set(files)
        # Journal order is ref order: each record builds on the previous tip.
        records = [parse(r.bundle) for r in replay_journal(journal).records]
        chain = [record.branches["main"] for record in records]
        assert chain[-1] == repo.refs.branch_target("main")
        for previous, record in zip(chain, records[1:]):
            assert record.prerequisites == (previous,)


class TestLastResortHandler:
    def test_unexpected_exception_is_one_500(self):
        class Broken:
            def request(self, method, url, token=None, payload=None):
                raise TypeError("a bug in a handler")

        with HubHttpServer(Broken()) as server:
            wire = HttpTransport(server.url)
            response = wire.get("/anything")
            assert response.status == 500
            assert "TypeError" in response.json["message"]
            assert response.json["retryable"] is False
            # The server keeps serving after the bug.
            assert wire.get("/anything").status == 500

    def test_simulated_crash_still_passes_through(self, monkeypatch):
        escaped = []
        monkeypatch.setattr(threading, "excepthook", lambda args: escaped.append(args.exc_type))

        class Crashing:
            def request(self, method, url, token=None, payload=None):
                raise faults.SimulatedCrash("test.site")

        with HubHttpServer(Crashing()) as server:
            with pytest.raises(TransportError):
                HttpTransport(server.url, timeout=5).get("/anything")
            deadline = time.monotonic() + 5
            while not escaped and time.monotonic() < deadline:
                time.sleep(0.01)
        # Unanswered: the crash left the request thread like a process death.
        assert escaped == [faults.SimulatedCrash]


class TestServeRateLimiter:
    def test_quota_window_rolls_with_the_clock(self):
        now = [1000.0]
        limiter = RateLimiter(enabled=True, clock=lambda: now[0])
        limiter.authenticated_limit = 2
        limiter.check("alice")
        limiter.check("alice")
        with pytest.raises(RateLimitExceededError):
            limiter.check("alice")
        now[0] += limiter.window_seconds
        assert limiter.check("alice").used == 1

    def test_serve_builds_its_limiter_with_a_monotonic_clock(self, monkeypatch):
        captured = {}

        class Stop(Exception):
            pass

        def platform(rate_limiter=None):
            captured["limiter"] = rate_limiter
            raise Stop

        monkeypatch.delenv(serve.FAULTS_ENV, raising=False)
        monkeypatch.setattr(serve, "recover_working_copy", lambda directory: (None, None))
        monkeypatch.setattr(serve, "HostingPlatform", platform)
        with pytest.raises(Stop):
            serve.cmd_serve(argparse.Namespace(directory="unused", no_rate_limit=False))
        assert captured["limiter"].enabled
        assert captured["limiter"].clock is time.monotonic


class TestFailpointCountingIsThreadSafe:
    def test_hit_indexed_arm_fires_exactly_once_under_threads(self, monkeypatch):
        class YieldingCounts(dict):
            """Hands the GIL over inside every read-modify-write of a count."""

            def get(self, *args):
                value = super().get(*args)
                time.sleep(0)
                return value

        faults.reset()
        monkeypatch.setattr(faults._REGISTRY, "_hits", YieldingCounts(faults.all_hits()))
        threads, per_thread, fired = 8, 250, []
        guard = threading.Lock()
        with faults.armed("wire.request", "error", at=1000, error=lambda: OSError("x")):
            def worker():
                for _ in range(per_thread):
                    try:
                        faults.fire("wire.request")
                    except OSError:
                        with guard:
                            fired.append(1)

            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
        assert faults.hits("wire.request") == threads * per_thread
        assert len(fired) == 1
        faults.reset()


class TestFetchFromAStrictlyAheadHub:
    def test_fetch_ships_only_the_new_commit(self):
        repo = Repository.init(name="proj", owner="alice")
        for index in range(100):
            repo.write_file(f"dir{index % 10}/f{index}.txt", f"file {index}\n")
        repo.commit("100 files")
        platform = HostingPlatform()
        platform.host_repository(repo)
        token = platform.issue_token("alice").value
        api = RestApi(platform)
        remote = HubRemote(api, SLUG, token=token)
        clone = remote.clone()
        commit = platform.put_file(SLUG, "/dir3/new.txt", b"new\n", message="server", token=token)

        shipped = []
        post = api.post

        def recording_post(url, payload=None, token=None):
            response = post(url, payload, token=token)
            if url.endswith("/git/upload-pack"):
                shipped.append(read_bundle(base64.b64decode(response.json["bundle"])))
            return response

        api.post = recording_post
        remote.fetch(clone)
        # commit + root tree + /dir3 tree + the new blob; nothing older.
        assert [bundle.object_count for bundle in shipped] == [4]
        assert shipped[0].prerequisites == repo.store.get_commit(commit).parent_oids
        assert clone.read_file_at(commit, "/dir3/new.txt") == b"new\n"
