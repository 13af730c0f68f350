"""Client-side spans for the traced run, and the per-layer metric arithmetic.

:func:`install` wraps the client's entry points in this process the way
``launcher.py`` wraps the server's; :func:`per_layer` turns the two span
dumps (client and server) into the per-layer metrics named in ``spec.py``.
Self time is computed per process, since span ids are per process.
"""

from __future__ import annotations

import statistics
from http.client import HTTPConnection

from spec import PER_LAYER, PER_OP_COUNTS
from tracing import TRACER, durations, on_call, self_times, wrap


def install() -> None:
    from repro.citation import citefile
    from repro.citation.function import CitationFunction
    from repro.citation.manager import CitationManager
    from repro.hub.httpd import HttpTransport
    from repro.hub.sync import HubRemote
    from repro.vcs.transfer import session

    wrap(HttpTransport, "request", "client.http.request",
         before=lambda args, kwargs: TRACER.count("client.requests"))
    on_call(HTTPConnection, "connect", lambda args, kwargs: TRACER.count("client.connections"))
    for name in ("fetch", "push", "clone"):
        wrap(HubRemote, name, f"hub.sync.{name}")

    def received(result, args, kwargs):
        TRACER.count("fetch.objects_received", result.objects_total)
        TRACER.count("fetch.objects_lacked", result.objects_added)

    wrap(session, "apply_bundle", "client.apply_bundle", after=received)
    wrap(citefile, "loads_citation_file", "citation.parse",
         after=lambda result, args, kwargs: TRACER.count("citation.parsed_bytes",
                                                         len(args[0].encode("utf-8"))))
    wrap(citefile, "dumps_citation_file", "citation.dump")
    wrap(CitationFunction, "resolve", "citation.resolve")
    wrap(CitationManager, "merge_cite", "citation.merge_cite")


def _mean_ms(values: dict[str, list[float]], name: str) -> float:
    samples = values.get(name)
    return statistics.fmean(samples) * 1000 if samples else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(server_dump: dict, results, params: dict, server_cpu_s: float) -> dict:
    client = TRACER.dump()
    server_self = self_times(server_dump["spans"])
    server_dur = durations(server_dump["spans"])
    client_self = self_times(client["spans"])
    client_dur = durations(client["spans"])
    sc = server_dump["counters"]
    cc = client["counters"]
    ops = results.completed()
    parses = len(client_dur.get("citation.parse", ()))
    read = results.samples.get(params["read"], [])
    write = results.samples.get(params["write"], [])
    lag = sorted(results.lag)

    values = {
        "hub.httpd.requests_per_op": cc.get("client.requests", 0),
        "hub.httpd.connections_per_op": cc.get("client.connections", 0),
        "hub.httpd.wire_ms": _mean_ms(client_dur, "client.http.request")
        - _mean_ms(server_dur, "hub.httpd.request"),
        "hub.httpd.req_bytes": _ratio(sc.get("httpd.req_bytes", 0), sc.get("httpd.requests", 0)),
        "hub.httpd.resp_bytes": _ratio(sc.get("httpd.resp_bytes", 0), sc.get("httpd.requests", 0)),
        "hub.lifecycle.shed": sc.get("lifecycle.shed", 0),
        "hub.lifecycle.inflight_max": server_dump["maxima"].get("lifecycle.inflight_max", 0),
        "hub.api.self_ms": _mean_ms(server_self, "hub.api.request"),
        "hub.api.status_4xx": sc.get("api.status_4xx", 0),
        "hub.api.status_5xx": sc.get("api.status_5xx", 0),
        "hub.durability.append_ms": _mean_ms(server_dur, "hub.durability.append"),
        "hub.durability.appends": sc.get("journal.appends", 0),
        "hub.durability.fsyncs": sc.get("journal.fsyncs", 0),
        "hub.durability.bytes_per_op": _ratio(sc.get("journal.bytes", 0), ops),
        "vcs.repository.checkout_calls": len(server_dur.get("vcs.repository.checkout", ())),
        "vcs.repository.materialize_count": sc.get("repository.materialize_count", 0),
        "vcs.repository.hash_count": sc.get("repository.hash_count", 0),
        "vcs.transfer.create_bundle_ms": _mean_ms(server_self, "vcs.transfer.create_bundle"),
        "vcs.transfer.apply_bundle_ms": _mean_ms(server_self, "vcs.transfer.apply_bundle"),
        "vcs.transfer.update_refs_ms": _mean_ms(server_self, "vcs.transfer.update_refs"),
        "vcs.transfer.objects_sent": _ratio(sc.get("transfer.objects_sent", 0),
                                            sc.get("transfer.upload_packs", 0)),
        "vcs.transfer.bundle_bytes": _ratio(sc.get("transfer.bundle_bytes", 0),
                                            sc.get("transfer.upload_packs", 0)),
        "vcs.transfer.fetch_useful_ratio": _ratio(cc.get("fetch.objects_lacked", 0),
                                                  cc.get("fetch.objects_received", 0)),
        "vcs.storage.encode_delta_calls": sc.get("storage.encode_delta_calls", 0),
        "vcs.storage.delta_records": sc.get("storage.delta_records", 0),
        "vcs.storage.delta_kept_ratio": _ratio(sc.get("storage.delta_records", 0),
                                               sc.get("storage.encode_delta_calls", 0)),
        "vcs.storage.reads": sc.get("storage.reads", 0),
        "vcs.storage.writes": sc.get("storage.writes", 0),
        "vcs.storage.write_bytes_per_user_byte": _ratio(
            sc.get("storage.write_bytes", 0) + sc.get("journal.bytes", 0), sc.get("user_bytes", 0)),
        "citation.parse_ms": _mean_ms(client_self, "citation.parse"),
        "citation.resolve_ms": _mean_ms(client_self, "citation.resolve"),
        "citation.dump_ms": _mean_ms(client_self, "citation.dump"),
        "citation.merge_cite_ms": _mean_ms(client_self, "citation.merge_cite"),
        "citation.citefile_bytes": _ratio(cc.get("citation.parsed_bytes", 0), parses),
        "hub.sync.push_rejected_422": results.rejected_422,
        "hub.retry.retries": results.retries,
        "server.cpu_s_per_op": _ratio(server_cpu_s, ops),
        "server.cpu_busy_ratio": _ratio(server_cpu_s, results.elapsed),
        "loadgen.lag_p90_ms": lag[int(0.9 * (len(lag) - 1))] * 1000 if lag else 0.0,
        "trace.read_p50_ms": statistics.median(read) * 1000 if read else 0.0,
        "trace.write_p50_ms": statistics.median(write) * 1000 if write else 0.0,
        "trace.ops_per_s": _ratio(ops, results.elapsed),
    }
    for name in ("get_file", "put_file", "delete_file", "receive_pack", "upload_pack", "git_refs"):
        values[f"hub.server.{name}_ms"] = _mean_ms(server_self, f"hub.server.{name}")
    for name in ("checkout", "commit", "read_file_at"):
        values[f"vcs.repository.{name}_ms"] = _mean_ms(server_self, f"vcs.repository.{name}")
    for name in PER_OP_COUNTS:
        values[name] = _ratio(values[name], ops)
    return {name: {"value": float(values[name]), "unit": unit} for name, unit, _, _ in PER_LAYER}
