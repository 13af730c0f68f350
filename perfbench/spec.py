"""What the benchmark runs and what it reports.

``WORKLOADS`` holds every input parameter a workload is generated from;
``END_TO_END`` and ``PER_LAYER`` name the metrics, and each per-layer
metric says which end-to-end metric, on which workload, it should move.
``BENCHMARK.json`` at the repository root carries the same names.
"""

from __future__ import annotations

#: Citation density of every hosted fixture.
CITATION_DENSITY = 0.05

WORKLOADS = {
    "extension": {
        "why": "browser-extension REST traffic: many small GenCite reads and citation writes on ~2k files",
        "fixture_seed": 101,
        "files": 2000,
        # Not pack: on the pack layout the drain checkpoint after ~18
        # citation writes takes ~380 s (difflib delta search between 39 KB
        # citation.cite versions), past the 180 s a run may take.
        "storage": "loose",
        "loop": "open",
        "clients": 2,
        "rate_per_s": 24.0,
        "write_share": 0.15,
        # read = one ExtensionClient.view_node (GenCite);
        # write = one AddCite/ModifyCite/DelCite ending at the contents PUT.
        "read": "gencite",
        "write": "citewrite",
    },
    "push_large": {
        "why": "one-commit pushes to ~8k files beside a GenCite reader: hosted checkout, apply and journal",
        "fixture_seed": 102,
        "files": 8000,
        "storage": "pack",
        "loop": "closed",
        "clients": 2,
        "edits_per_push": (1, 3),
        # The reader pauses this long between GenCites (a closed loop with
        # think time); back to back it saturated the client's GIL, and its
        # medians spread 27% between seeds.
        "reader_think_s": 0.05,
        # read = GenCite from the reader; write = one HubRemote.push.
        "read": "gencite",
        "write": "push",
    },
    "sync_small": {
        # Runnable and reported by report.py, but not declared in
        # BENCHMARK.json: a 20 s run completed only ~5 full-history fetches
        # (~2.7 s each, the zero-haves fetch plus the bundle delta search),
        # and its medians spread 13-23% between five seeds.
        "declared": False,
        "why": "two local-tool clients clone, fetch, MergeCite and push ~150 files: bundles and negotiation",
        "fixture_seed": 103,
        "files": 150,
        "storage": "pack",
        # Closed loop; the two clients take turns (see SyncSmallDriver).
        "loop": "closed, turn-taking",
        "clients": 2,
        "reclone_every": 4,
        # read = one HubRemote.fetch; write = one HubRemote.push.
        "read": "fetch",
        "write": "push",
    },
}

#: (name, unit, better, bound) — bound is the share of the parent's median
#: a metric may worsen by before a change counts as a regression.
END_TO_END = [
    ("read_p50_ms", "ms", "lower", 0.25),
    ("write_p50_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("server_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

#: (name, unit, better, end-to-end metric it should move, on which workload).
PER_LAYER = [
    ("hub.httpd.requests_per_op", "count", "lower", "read_p50_ms (gencite) on extension"),
    ("hub.httpd.connections_per_op", "count", "lower", "read_p50_ms (gencite) on extension"),
    ("hub.httpd.wire_ms", "ms", "lower", "read_p50_ms (gencite) on extension"),
    ("hub.httpd.req_bytes", "bytes", "lower", "read_p50_ms (gencite) on extension"),
    ("hub.httpd.resp_bytes", "bytes", "lower", "read_p50_ms (gencite) on extension"),
    ("hub.lifecycle.shed", "count", "lower", "error rate on extension"),
    ("hub.lifecycle.inflight_max", "count", "lower", "error rate on extension"),
    ("hub.api.self_ms", "ms", "lower", "read_p50_ms (gencite) on extension"),
    ("hub.api.status_4xx", "count", "lower", "error rate on every workload"),
    ("hub.api.status_5xx", "count", "lower", "error rate on every workload"),
    ("hub.server.get_file_ms", "ms", "lower", "read_p50_ms (gencite) on extension"),
    ("hub.server.put_file_ms", "ms", "lower", "write_p50_ms (citewrite) on extension"),
    ("hub.server.delete_file_ms", "ms", "lower", "write_p50_ms (citewrite) on extension"),
    ("hub.server.receive_pack_ms", "ms", "lower", "write_p50_ms (push) on push_large"),
    ("hub.server.upload_pack_ms", "ms", "lower", "read_p50_ms (fetch) and clone_p50_ms on sync_small"),
    ("hub.server.git_refs_ms", "ms", "lower", "read_p50_ms (fetch) and clone_p50_ms on sync_small"),
    ("hub.durability.append_ms", "ms", "lower",
     "write_p50_ms on extension (citewrite) and push_large (push)"),
    ("hub.durability.appends", "count", "lower",
     "write_p50_ms on extension (citewrite) and push_large (push)"),
    ("hub.durability.fsyncs", "count", "lower",
     "write_p50_ms on extension (citewrite) and push_large (push)"),
    ("hub.durability.bytes_per_op", "bytes", "lower",
     "write_p50_ms on extension (citewrite) and push_large (push)"),
    ("vcs.repository.checkout_ms", "ms", "lower",
     "write_p50_ms on push_large (push) and extension (citewrite)"),
    ("vcs.repository.checkout_calls", "count", "lower",
     "write_p50_ms on push_large (push) and extension (citewrite)"),
    ("vcs.repository.commit_ms", "ms", "lower", "write_p50_ms (citewrite) on extension"),
    ("vcs.repository.read_file_at_ms", "ms", "lower", "read_p50_ms (gencite) on extension"),
    ("vcs.repository.materialize_count", "count", "lower", "write_p50_ms (push) on push_large"),
    ("vcs.repository.hash_count", "count", "lower", "write_p50_ms (push) on push_large"),
    ("vcs.transfer.create_bundle_ms", "ms", "lower", "read_p50_ms (fetch) and clone_p50_ms on sync_small"),
    ("vcs.transfer.apply_bundle_ms", "ms", "lower", "write_p50_ms (push) on sync_small; nothing on push_large"),
    ("vcs.transfer.update_refs_ms", "ms", "lower", "write_p50_ms (push) on sync_small"),
    ("vcs.transfer.objects_sent", "count", "lower", "read_p50_ms (fetch) and clone_p50_ms on sync_small"),
    ("vcs.transfer.bundle_bytes", "bytes", "lower", "read_p50_ms (fetch) and clone_p50_ms on sync_small"),
    ("vcs.transfer.fetch_useful_ratio", "ratio", "higher", "read_p50_ms (fetch) on sync_small"),
    ("vcs.storage.encode_delta_calls", "count", "lower",
     "read_p50_ms (fetch) and clone_p50_ms on sync_small; setup_s everywhere"),
    ("vcs.storage.delta_records", "count", "higher", "bundle_bytes on sync_small"),
    ("vcs.storage.delta_kept_ratio", "ratio", "higher",
     "read_p50_ms (fetch) and clone_p50_ms on sync_small"),
    ("vcs.storage.reads", "count", "lower", "setup_s everywhere; read_p50_ms on sync_small"),
    ("vcs.storage.writes", "count", "lower", "write_p50_ms on every workload"),
    ("vcs.storage.write_bytes_per_user_byte", "ratio", "lower", "write_p50_ms on every workload"),
    ("citation.parse_ms", "ms", "lower", "read_p50_ms (gencite, client side) on extension"),
    ("citation.resolve_ms", "ms", "lower", "read_p50_ms (gencite, client side) on extension"),
    ("citation.dump_ms", "ms", "lower", "write_p50_ms (citewrite) on extension"),
    ("citation.merge_cite_ms", "ms", "lower", "ops_per_s on sync_small"),
    ("citation.citefile_bytes", "bytes", "lower", "read_p50_ms (gencite) on extension"),
    ("hub.sync.push_rejected_422", "count", "lower", "ops_per_s on sync_small"),
    ("hub.retry.retries", "count", "lower", "ops_per_s on sync_small"),
    ("server.cpu_s_per_op", "s", "lower", "ops_per_s on push_large and sync_small"),
    ("server.cpu_busy_ratio", "ratio", "lower", "ops_per_s on push_large and sync_small"),
    ("loadgen.lag_p90_ms", "ms", "lower", "validates the extension latencies (should stay near 0)"),
    ("trace.read_p50_ms", "ms", "lower", "traced read_p50_ms; minus the untraced one is the overhead"),
    ("trace.write_p50_ms", "ms", "lower", "traced write_p50_ms; minus the untraced one is the overhead"),
    ("trace.ops_per_s", "1/s", "higher", "traced ops_per_s; the untraced one minus it is the overhead"),
]

#: Counts reported per completed operation (the rest are per-run totals).
PER_OP_COUNTS = (
    "hub.httpd.requests_per_op",
    "hub.httpd.connections_per_op",
    "hub.durability.appends",
    "hub.durability.fsyncs",
    "vcs.repository.checkout_calls",
    "vcs.repository.materialize_count",
    "vcs.repository.hash_count",
    "vcs.storage.encode_delta_calls",
    "vcs.storage.delta_records",
    "vcs.storage.reads",
    "vcs.storage.writes",
)
