"""The three workloads' client sides, driven over HTTP against ``gitcite serve``.

Each driver is built from the fixture's meta, the server URL and token, and
the run seed; :meth:`Driver.run` drives the server for the stated number of
seconds with at most two client threads (the number of cores the benchmark
was sized for) and returns a :class:`Results`.
The drivers check what they can check on the fly (every GenCite answer);
the acknowledged commits they collect are checked against the drained
server afterwards by ``run.py``.
"""

from __future__ import annotations

import base64
import random
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

from repro.citation.citefile import CITATION_FILE_PATH, dumps_citation_file, loads_citation_file
from repro.citation.manager import CitationManager
from repro.citation.operators import AddCite, DelCite, ModifyCite, apply_operation
from repro.errors import TransportError, ValidationError
from repro.extension.client import ExtensionClient
from repro.hub.httpd import HttpTransport
from repro.hub.retry import RetryingApi, RetryPolicy
from repro.hub.sync import HubRemote
from repro.utils.paths import ROOT as PATH_ROOT
from repro.utils.paths import normalize_path
from repro.vcs.merge import is_ancestor_commit
from repro.vcs.workingcopy import load_repository
from repro.workloads.generator import generate_citation

from spec import WORKLOADS

_CONTENTS_CITEFILE = f"/contents{CITATION_FILE_PATH}"


class Wire:
    """``HttpTransport`` plus the status counts and captures the checks need.

    Per thread it remembers whether the current operation saw a 5xx or a
    transport error (either makes the operation a failure, even when the
    retry layer rode it out) and the last ``citation.cite`` body it read.
    """

    def __init__(self, url: str) -> None:
        self.http = HttpTransport(url, timeout=60)
        self.statuses: Counter = Counter()
        self._lock = threading.Lock()
        self.local = threading.local()

    def request(self, method, url, token=None, payload=None):
        try:
            response = self.http.request(method, url, token=token, payload=payload)
        except TransportError:
            self.local.faulted = True
            with self._lock:
                self.statuses["transport"] += 1
            raise
        with self._lock:
            self.statuses[response.status] += 1
        if response.status >= 500:
            self.local.faulted = True
        if method == "GET" and _CONTENTS_CITEFILE in url and response.ok:
            self.local.citefile = response.json["content"]
        return response

    def get(self, url, token=None):
        return self.request("GET", url, token=token)

    def put(self, url, payload, token=None):
        return self.request("PUT", url, token=token, payload=payload)

    def post(self, url, payload=None, token=None):
        return self.request("POST", url, token=token, payload=payload)

    def delete(self, url, payload=None, token=None):
        return self.request("DELETE", url, token=token, payload=payload)


class Results:
    """Latency samples per operation kind, plus failures and acknowledgements."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.errors: list[str] = []
        #: Commit ids the hub acknowledged (contents commits and pushed tips).
        self.acknowledged: list[str] = []
        self.lag: list[float] = []
        self.rejected_422 = 0
        self.retries = 0
        self.elapsed = 0.0
        self._lock = threading.Lock()

    def record(self, kind: str, seconds: float, ok: bool, error: str | None = None) -> None:
        with self._lock:
            self.attempted += 1
            if ok:
                self.samples[kind].append(seconds)
            else:
                self.failed += 1
                if error and len(self.errors) < 5:
                    self.errors.append(f"{kind}: {error}")

    def completed(self) -> int:
        return sum(len(values) for values in self.samples.values())


class Driver:
    """Shared plumbing: the wire stack, timed operations, GenCite checks."""

    def __init__(self, meta: dict, url: str, token: str, seed: int, seconds: float,
                 run_dir: Path) -> None:
        self.meta = meta
        self.params = WORKLOADS[meta["workload"]]
        self.slug = meta["slug"]
        self.token = token
        self.seed = seed
        self.seconds = seconds
        self.run_dir = run_dir
        self.wire = Wire(url)
        self.api = RetryingApi(
            self.wire, RetryPolicy(max_attempts=3, base_delay=0.05, max_delay=0.5, seed=seed),
            sleep=time.sleep,
        )
        self.results = Results()
        self.files = list(meta["files"])
        self.initial_function = loads_citation_file(
            (Path(meta["path"]) / CITATION_FILE_PATH.lstrip("/")).read_text("utf-8")
        )
        #: ``citation.cite`` bodies (base64, as served) already parsed.
        self._parsed: dict = {}
        self._parsed_lock = threading.Lock()

    def prepare(self) -> None:
        """Client-side set-up that is not part of the server's ``setup_s``."""

    def run(self) -> Results:
        raise NotImplementedError

    def verify_final(self, repo) -> list[str]:
        """Workload-specific checks of the drained server's repository."""
        return []

    def timed(self, kind: str, fn, due: float | None = None):
        """Run one operation; record its latency (from ``due`` when given)."""
        self.wire.local.faulted = False
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - every failure is counted, none escapes
            self.results.record(kind, 0.0, False, f"{type(exc).__name__}: {exc}")
            return None
        end = time.perf_counter()
        ok = not self.wire.local.faulted
        self.results.record(kind, end - (due if due is not None else start), ok,
                            None if ok else "server error or transport fault (retried)")
        return result if ok else None

    def gencite(self, client: ExtensionClient, path: str, expected_function=None) -> object:
        """One GenCite; checked against the ``citation.cite`` it read."""
        view = client.view_node(self.slug, path)
        content = self.wire.local.citefile
        with self._parsed_lock:
            read_function = self._parsed.get(content)
        if read_function is None:
            # Parsed once per distinct file, so the check adds little client
            # CPU; only the latest few versions are kept, so the client heap
            # (and its garbage-collection pauses) stays small.
            read_function = loads_citation_file(base64.b64decode(content).decode("utf-8"))
            with self._parsed_lock:
                self._parsed[content] = read_function
                if len(self._parsed) > 4:
                    del self._parsed[next(iter(self._parsed))]
        canonical = normalize_path(path)
        wanted = [read_function]
        if expected_function is not None:
            wanted.append(expected_function)
        for function in wanted:
            if view.resolved != function.resolve(canonical) or (
                view.explicit_citation != function.get_explicit(canonical)
            ):
                with self.results._lock:
                    self.results.check_failures += 1
                raise AssertionError(f"GenCite of {canonical} disagrees with citation.cite")
        return view

    def finish(self, started: float) -> Results:
        self.results.elapsed = time.perf_counter() - started
        self.results.retries = self.api.retries
        return self.results


# ---------------------------------------------------------------------------
# extension: open-loop browser-extension traffic
# ---------------------------------------------------------------------------


class ExtensionDriver(Driver):
    """Poisson arrivals of GenCite and citation writes, timed from when due.

    The schedule holds exactly ``rate × seconds`` arrivals placed uniformly
    at random in the window (a Poisson process conditioned on its count).
    Writes are applied in schedule order — each waits for the previous one
    to be acknowledged — so the expected final ``citation.cite`` is known.
    """

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        count = round(self.params["rate_per_s"] * self.seconds)
        dues = sorted(rng.uniform(0.0, self.seconds) for _ in range(count))
        self.model = self.initial_function.copy()
        self.ops = []
        writes = 0
        for due in dues:
            if rng.random() < self.params["write_share"]:
                self.ops.append((due, "citewrite", writes, self._next_write(rng)))
                writes += 1
            else:
                self.ops.append((due, "gencite", None, rng.choice(self.files)))

    def _next_write(self, rng: random.Random):
        cited = [p for p in self.model.active_domain() if p != PATH_ROOT]
        roll = rng.random()
        if cited and roll < 0.4:
            operation = ModifyCite(path=rng.choice(cited),
                                   citation=generate_citation(rng, repo_name=self.meta["name"]))
        elif cited and roll < 0.6:
            operation = DelCite(path=rng.choice(cited))
        else:
            uncited = [p for p in self.files if self.model.get_explicit(p) is None]
            operation = AddCite(path=rng.choice(uncited),
                                citation=generate_citation(rng, repo_name=self.meta["name"]))
        apply_operation(self.model, operation)
        return operation

    def run(self) -> Results:
        client = ExtensionClient(self.api, token=self.token)
        cursor = iter(range(len(self.ops)))
        take = threading.Lock()
        turn = threading.Condition()
        next_write = [0]
        started = time.perf_counter()

        def write(operation) -> str:
            if isinstance(operation, AddCite):
                return client.add_citation(self.slug, operation.path, operation.citation)
            if isinstance(operation, ModifyCite):
                return client.modify_citation(self.slug, operation.path, operation.citation)
            return client.delete_citation(self.slug, operation.path)

        def worker() -> None:
            while True:
                with take:
                    index = next(cursor, None)
                if index is None:
                    return
                due_offset, kind, write_index, target = self.ops[index]
                due = started + due_offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                self.results.lag.append(max(0.0, time.perf_counter() - due))
                if kind == "gencite":
                    self.timed(kind, lambda: self.gencite(client, target), due=due)
                    continue
                with turn:
                    turn.wait_for(lambda: next_write[0] == write_index)
                try:
                    sha = self.timed(kind, lambda: write(target), due=due)
                    if sha is not None:
                        self.results.acknowledged.append(sha)
                finally:
                    with turn:
                        next_write[0] += 1
                        turn.notify_all()

        threads = [threading.Thread(target=worker) for _ in range(self.params["clients"])]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return self.finish(started)

    def verify_final(self, repo) -> list[str]:
        final = repo.read_file_at(repo.refs.default_branch, CITATION_FILE_PATH).decode("utf-8")
        if final != dumps_citation_file(self.model):
            return ["final citation.cite differs from the acknowledged writes applied in order"]
        return []


# ---------------------------------------------------------------------------
# push_large: one writer pushing to a big tree, one GenCite reader beside it
# ---------------------------------------------------------------------------


class PushLargeDriver(Driver):
    def prepare(self) -> None:
        # The writer's copy is the saved working copy, loaded, not cloned.
        self.local = load_repository(self.run_dir / "local")

    def run(self) -> Results:
        deadline = time.perf_counter() + self.seconds
        started = time.perf_counter()
        remote = HubRemote(self.api, self.slug, token=self.token)
        low, high = self.params["edits_per_push"]

        def writer() -> None:
            rng = random.Random(f"{self.seed}-writer")
            pushes = 0
            while time.perf_counter() < deadline:
                pushes += 1
                for edit in range(rng.randint(low, high)):
                    path = rng.choice(self.files)
                    old = self.local.read_file(path)
                    at = rng.randrange(len(old) + 1)
                    line = f"push {pushes}.{edit} seed {self.seed}\n".encode()
                    self.local.write_file(path, old[:at] + line + old[at + len(line):])
                tip = self.local.commit(f"push_large edit {pushes}")
                if self.timed("push", lambda: remote.push(self.local)) is not None:
                    self.results.acknowledged.append(tip)

        def reader() -> None:
            rng = random.Random(f"{self.seed}-reader")
            client = ExtensionClient(self.api, token=self.token)
            while time.perf_counter() < deadline:
                path = rng.choice(self.files)
                self.timed("gencite", lambda: self.gencite(client, path, self.initial_function))
                time.sleep(self.params["reader_think_s"])

        threads = [threading.Thread(target=writer), threading.Thread(target=reader)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.local.store.close()
        return self.finish(started)


# ---------------------------------------------------------------------------
# sync_small: two local-tool clients cloning, fetching, merging and pushing
# ---------------------------------------------------------------------------


class SyncSmallDriver(Driver):
    """Two local-tool clients taking turns, one iteration each per turn.

    Turns keep every fetch a fetch of the other client's new commits and
    make each operation's cost independent of how the two clients happen
    to overlap on the server.  A 422 is still handled (fetch, MergeCite,
    push again) should a push ever be rejected.
    """

    def run(self) -> Results:
        deadline = time.perf_counter() + self.seconds
        started = time.perf_counter()
        count = self.params["clients"]
        clients = [self._client(index, count) for index in range(count)]
        while clients and time.perf_counter() < deadline:
            for client in list(clients):
                if time.perf_counter() >= deadline:
                    break
                if not next(client, False):
                    clients.remove(client)
        return self.finish(started)

    def _client(self, index: int, clients: int):
        """One client's loop; each ``next()`` runs one iteration."""
        rng = random.Random(f"{self.seed}-client{index}")
        remote = HubRemote(self.api, self.slug, token=self.token)
        # Disjoint file sets: the clients' merges never conflict on content.
        mine = self.files[index::clients]
        local = manager = None
        iteration = 0
        while True:
            if iteration % self.params["reclone_every"] == 0:
                local = self.timed("clone", remote.clone)
                if local is None:
                    return
                manager = CitationManager(local)
            if not self._catch_up(remote, local, manager):
                return
            self._local_change(rng, manager, mine, iteration)
            if not self._push(remote, local, manager):
                return
            iteration += 1
            yield True

    def _catch_up(self, remote: HubRemote, local, manager) -> bool:
        """Fetch, then fast-forward or MergeCite onto the remote tip.

        A fetch that brought commits other clients pushed is a ``fetch``
        sample; one that found nothing new is a ``fetch_noop``.
        """
        before = len(local.store)
        self.wire.local.faulted = False
        start = time.perf_counter()
        try:
            advert = remote.fetch(local)
        except Exception as exc:  # noqa: BLE001 - counted as a failed fetch
            self.results.record("fetch", 0.0, False, f"{type(exc).__name__}: {exc}")
            return False
        kind = "fetch" if len(local.store) > before else "fetch_noop"
        ok = not self.wire.local.faulted
        self.results.record(kind, time.perf_counter() - start, ok,
                            None if ok else "server error (retried)")
        if not ok:
            return False
        branch = local.refs.default_branch
        theirs = advert.branches[branch]
        ours = local.refs.branch_target(branch)
        if theirs == ours or is_ancestor_commit(local.store, theirs, ours):
            return True
        if is_ancestor_commit(local.store, ours, theirs):
            local.refs.set_branch(branch, theirs)
            local.checkout(branch)
            manager.reload()
        else:
            manager.merge_cite(theirs, message=f"MergeCite {theirs[:7]}")
        return True

    def _local_change(self, rng: random.Random, manager, mine: list[str], iteration: int) -> None:
        path = rng.choice(mine)
        function = manager.citation_function()
        if function.get_explicit(path) is None:
            manager.add_cite(path, generate_citation(rng, repo_name=self.meta["name"]))
        elif rng.random() < 0.5:
            manager.modify_cite(path, generate_citation(rng, repo_name=self.meta["name"]))
        else:
            manager.del_cite(path)
        edited = rng.choice(mine)
        old = manager.repo.read_file(edited)
        line = f"sync edit {iteration} seed {self.seed}\n".encode()
        manager.write_file(edited, old + line)
        manager.commit(f"sync_small change {iteration}")

    def _push(self, remote: HubRemote, local, manager) -> bool:
        """Push; on a 422 (not a fast-forward) fetch, merge and push again."""
        for _ in range(8):
            tip = local.refs.branch_target(local.refs.default_branch)

            def attempt():
                try:
                    remote.push(local)
                except ValidationError:
                    return "rejected"
                return "pushed"

            self.wire.local.faulted = False
            start = time.perf_counter()
            try:
                outcome = attempt()
            except Exception as exc:  # noqa: BLE001 - counted as a failed push
                self.results.record("push", 0.0, False, f"{type(exc).__name__}: {exc}")
                return False
            elapsed = time.perf_counter() - start
            if outcome == "pushed":
                ok = not self.wire.local.faulted
                self.results.record("push", elapsed, ok, None if ok else "server error (retried)")
                if ok:
                    self.results.acknowledged.append(tip)
                return ok
            with self.results._lock:
                self.results.rejected_422 += 1
            if not self._catch_up(remote, local, manager):
                return False
        self.results.record("push", 0.0, False, "still rejected after 8 attempts")
        return False


DRIVERS = {
    "extension": ExtensionDriver,
    "push_large": PushLargeDriver,
    "sync_small": SyncSmallDriver,
}
