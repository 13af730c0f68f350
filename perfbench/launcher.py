"""Start ``gitcite serve`` in this process, optionally with layer tracing.

Usage::

    python3 perfbench/launcher.py [--spans FILE] serve -C DIR --port 0 ...

Everything after the launcher's own options is handed unchanged to the
``gitcite`` entry point, so the served code path is the production one.
With ``--spans`` the public entry points of the hub and VCS layers are
wrapped first (see :func:`install`); recording starts at the first HTTP
request, so start-up recovery is not part of the trace, and the spans are
written to ``FILE`` once the server has drained and saved.
"""

from __future__ import annotations

import json
import sys
import threading
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from tracing import TRACER, bundle_stats, on_call, patch, wrap, write_dump  # noqa: E402

_UPLOAD_PACK = "/git/upload-pack"
_HOSTED = []
#: WorktreeState counters when recording started.
_BASELINE = []


def _worktree_counts() -> tuple[int, int]:
    materialized = hashed = 0
    for repo in _HOSTED:
        materialized += repo.worktree.materialize_count
        hashed += repo.worktree.hash_count
    return materialized, hashed


def _count_storage(backend) -> None:
    """Count objects read from and newly written to one storage layout.

    Only methods the layout defines itself are wrapped: the base class's
    batch methods loop over the single-object ones, which are counted.
    """
    own = vars(backend)
    read, write = backend.read, backend.write

    def counted_read(self, oid):
        TRACER.count("storage.reads")
        return read(self, oid)

    def counted_write(self, oid, type_name, payload):
        added = write(self, oid, type_name, payload)
        TRACER.count("storage.writes", int(added))
        return added

    backend.read, backend.write = counted_read, counted_write
    if "read_many" in own:
        read_many = backend.read_many

        def counted_read_many(self, oids):
            for record in read_many(self, oids):
                TRACER.count("storage.reads")
                yield record

        backend.read_many = counted_read_many
    if "write_many" in own:
        write_many = backend.write_many

        def counted_write_many(self, records):
            added = write_many(self, records)
            TRACER.count("storage.writes", added)
            return added

        backend.write_many = counted_write_many


def install() -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import repro.cli.main  # noqa: F401 - imports every module serve uses
    from repro.hub import api, durability, httpd, lifecycle, server
    from repro.utils import atomicio
    from repro.vcs.repository import Repository
    from repro.vcs.storage import loose, pack
    from repro.vcs.transfer import session

    TRACER.enabled = False

    def on_request(args, kwargs):
        handler = args[0]
        if not TRACER.enabled:
            if handler.path == "/healthz":
                return
            _BASELINE.append(_worktree_counts())
            TRACER.enabled = True
        length = int(handler.headers.get("Content-Length") or 0)
        TRACER.count("httpd.requests")
        TRACER.count("httpd.req_bytes", length)
        if handler.command != "GET" and not handler.path.split("?", 1)[0].endswith(_UPLOAD_PACK):
            TRACER.count("user_bytes", length)

    # The first request past the health probe switches recording on, so
    # the hook runs before the span opens.
    original_dispatch = httpd._HubRequestHandler._dispatch

    def dispatch(self, method):
        on_request((self,), {})
        return TRACER.call("hub.httpd.request", original_dispatch, self, method)

    httpd._HubRequestHandler._dispatch = dispatch

    on_call(httpd._HubRequestHandler, "_send",
            lambda args, kwargs: TRACER.count("httpd.resp_bytes", len(json.dumps(args[2]))))

    in_flight = [0]
    gauge = threading.Lock()
    guarded_request = lifecycle.GuardedApi.request

    def guarded(self, method, url, token=None, payload=None):
        with gauge:
            in_flight[0] += 1
            TRACER.high_water("lifecycle.inflight_max", in_flight[0])
        try:
            response = TRACER.call("hub.lifecycle.guard", guarded_request,
                                   self, method, url, token=token, payload=payload)
        finally:
            with gauge:
                in_flight[0] -= 1
        if response.status == 503:
            TRACER.count("lifecycle.shed")
        return response

    lifecycle.GuardedApi.request = guarded

    def api_status(result, args, kwargs):
        if 400 <= result.status < 500:
            TRACER.count("api.status_4xx")
        elif result.status >= 500:
            TRACER.count("api.status_5xx")

    wrap(api.RestApi, "request", "hub.api.request", after=api_status)

    for name in ("get_file", "put_file", "delete_file", "receive_pack", "git_refs"):
        wrap(server.HostingPlatform, name, f"hub.server.{name}")

    def sent(result, args, kwargs):
        objects, _ = bundle_stats(result)
        TRACER.count("transfer.upload_packs")
        TRACER.count("transfer.objects_sent", objects)
        TRACER.count("transfer.bundle_bytes", len(result))

    wrap(server.HostingPlatform, "upload_pack", "hub.server.upload_pack", after=sent)

    original_host = server.HostingPlatform.host_repository

    def host_repository(self, repo, *args, **kwargs):
        _HOSTED.append(repo)
        return original_host(self, repo, *args, **kwargs)

    server.HostingPlatform.host_repository = host_repository

    def journalled(args, kwargs):
        TRACER.count("journal.appends")
        TRACER.count("journal.bytes", len(args[1]))

    wrap(durability.PushJournal, "append", "hub.durability.append", before=journalled)
    on_call(durability.PushJournal, "_fsync", lambda args, kwargs: TRACER.count("journal.fsyncs"))

    for name in ("checkout", "commit", "read_file_at"):
        wrap(Repository, name, f"vcs.repository.{name}")

    wrap(session, "create_bundle", "vcs.transfer.create_bundle")
    wrap(session, "apply_bundle", "vcs.transfer.apply_bundle")
    wrap(session, "update_refs_from_bundle", "vcs.transfer.update_refs")

    # The delta search: every attempt, and the ones the writers keep (the
    # same acceptance rule the pack and bundle writers apply).
    def counted_delta(encode_delta):
        def attempt(base, target):
            delta = encode_delta(base, target)
            if TRACER.enabled:
                TRACER.count("storage.encode_delta_calls")
                cost = len(zlib.compress(delta)) + pack._DELTA_HEADER_EXTRA
                if cost < pack._DELTA_KEEP_RATIO * len(zlib.compress(target)):
                    TRACER.count("storage.delta_records")
            return delta

        return attempt

    patch(pack, "encode_delta", counted_delta)

    for backend in (pack.PackBackend, loose.LooseFileBackend):
        _count_storage(backend)

    on_call(atomicio.AtomicFile, "write",
            lambda args, kwargs: TRACER.count("storage.write_bytes", len(args[1])))
    on_call(atomicio, "atomic_write_bytes",
            lambda args, kwargs: TRACER.count("storage.write_bytes", len(args[1])))


def main(argv: list[str]) -> int:
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
        install()
    from repro.cli.main import main as gitcite

    status = gitcite(argv)
    if spans is not None:
        materialized, hashed = _worktree_counts()
        first = _BASELINE[0] if _BASELINE else (materialized, hashed)
        TRACER.counters["repository.materialize_count"] = materialized - first[0]
        TRACER.counters["repository.hash_count"] = hashed - first[1]
        write_dump(spans)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
