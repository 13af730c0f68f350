"""Served-hub benchmark: drive a real ``gitcite serve`` and report what clients see.

Usage (from the repository root)::

    python3 perfbench/run.py --workload extension --seed 1 --seconds 10 --trace 0

One run builds any missing fixture (cached per code version), copies the
workload's fixture, starts ``gitcite serve`` on it ``SETUP_SPAWNS`` times to
time set-up, drives it from this process for ``--seconds`` seconds, drains
it with SIGTERM and checks the drained repository: every acknowledged
commit must be reachable from the final branch tip and no request may have
failed with a 5xx.  Human-readable lines go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1`` (see ``perfbench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: How many times one run starts the server to time set-up (median reported).
SETUP_SPAWNS = 5
#: A latency percentile is printed only with at least this many samples.
MIN_P90_SAMPLES = 100
#: Fixture size of ``--tiny`` runs (the self-tests).
TINY_FILES = 40


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, round(share * (len(ordered) - 1))))
    return ordered[rank]


def proc_cpu_seconds(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


class Server:
    """One ``gitcite serve`` subprocess, started through the launcher."""

    def __init__(self, directory: Path, log: Path, spans: Path | None = None) -> None:
        command = [sys.executable, str(HERE / "launcher.py")]
        if spans is not None:
            command += ["--spans", str(spans)]
        command += ["serve", "-C", str(directory), "--port", "0", "--no-rate-limit"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.pop("GITCITE_SERVE_FAULTS", None)
        self._log = open(log, "ab")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, env=env, stdout=subprocess.PIPE, stderr=self._log, text=True,
        )
        banner = self.process.stdout.readline().strip()
        token_line = self.process.stdout.readline().strip()
        if not banner.startswith("serving "):
            self.kill()
            raise RuntimeError(f"gitcite serve did not start (see {log})")
        self.slug = banner.split()[1]
        self.url = banner.rsplit(" ", 1)[1]
        self.token = token_line.rsplit(" ", 1)[1]
        from repro.errors import TransportError
        from repro.hub.httpd import HttpTransport

        probe = HttpTransport(self.url, timeout=10)
        while True:
            try:
                if probe.get("/healthz").ok:
                    break
            except TransportError:
                pass
            if self.process.poll() is not None:
                raise RuntimeError(f"gitcite serve exited during start-up (see {log})")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - started

    def stop(self) -> int:
        """SIGTERM: drain, save, exit.  Returns the exit code."""
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            self.kill()
        self._log.close()
        return self.process.returncode

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()
        self._log.close()


def reachable_commits(repo, tip: str) -> set[str]:
    seen: set[str] = set()
    frontier = [tip]
    while frontier:
        oid = frontier.pop()
        if oid not in seen:
            seen.add(oid)
            frontier.extend(repo.store.get_commit(oid).parent_oids)
    return seen


def verify(directory: Path, driver, results) -> list[str]:
    """Check the drained server's repository; return the problems found."""
    from repro.hub.durability import recover_working_copy

    problems = []
    repo, _report = recover_working_copy(directory)
    try:
        tip = repo.refs.branch_target(repo.refs.default_branch)
        history = reachable_commits(repo, tip)
        lost = [oid for oid in results.acknowledged if oid not in history]
        if lost:
            problems.append(f"lost_acknowledged == {len(lost)} (e.g. {lost[0]})")
        else:
            problems.extend(driver.verify_final(repo))
    finally:
        repo.store.close()
    server_errors = sum(n for status, n in driver.wire.statuses.items()
                        if status == "transport" or status >= 500)
    if server_errors:
        problems.append(f"{server_errors} request(s) answered 5xx or failed in transport")
    if results.check_failures:
        problems.append(f"{results.check_failures} GenCite answer(s) failed their check")
    return problems


def end_to_end(results, params, setups, rss_mb) -> dict:
    read = results.samples.get(params["read"], [])
    write = results.samples.get(params["write"], [])
    ops = results.completed()
    return {
        "read_p50_ms": {"value": statistics.median(read) * 1000 if read else 0.0, "unit": "ms"},
        "write_p50_ms": {"value": statistics.median(write) * 1000 if write else 0.0, "unit": "ms"},
        "ops_per_s": {"value": ops / results.elapsed if results.elapsed else 0.0, "unit": "1/s"},
        "server_rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(setups) if setups else 0.0, "unit": "s"},
    }


def print_summary(workload, params, results, setups, rss_mb, meta) -> None:
    """Every operation's latency under the names the docs use, with counts."""
    out = sys.stdout
    out.write(f"workload {workload}: {params['loop']} loop, {params['clients']} client threads, "
              f"{len(meta['files'])} files, {meta['storage']} storage, "
              f"fixture generated in {meta['generate_s']:.2f}s + saved in {meta['save_s']:.2f}s\n")
    for kind, values in sorted(results.samples.items()):
        line = f"  {kind}_p50_ms = {statistics.median(values) * 1000:.3f} ms"
        if len(values) >= MIN_P90_SAMPLES:
            line += f", {kind}_p90_ms = {percentile(values, 0.9) * 1000:.3f} ms"
        out.write(line + f" (n={len(values)})\n")
    rate = results.failed / results.attempted if results.attempted else 0.0
    out.write(f"  ops_per_s = {results.completed() / results.elapsed:.3f} 1/s over "
              f"{results.elapsed:.2f} s\n")
    out.write(f"  error_rate = {rate:.4f} ({results.failed}/{results.attempted})\n")
    out.write(f"  setup_s = {statistics.median(setups):.4f} s (median of "
              f"{', '.join(f'{s:.3f}' for s in setups)})\n" if setups else "")
    out.write(f"  server_rss_mb = {rss_mb:.2f} MB\n")
    if results.lag:
        out.write(f"  loadgen lag_p90_ms = {percentile(results.lag, 0.9) * 1000:.3f} ms\n")
    if results.rejected_422:
        out.write(f"  push_rejected_422 = {results.rejected_422} (resolved by fetch + MergeCite)\n")
    for error in results.errors:
        out.write(f"  error: {error}\n")


def phase(name: str, since: float) -> float:
    """Log how long a run phase took (standard error) and restart the clock."""
    now = time.perf_counter()
    sys.stderr.write(f"[perfbench] {name}: {now - since:.2f}s\n")
    return now


def run(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import fixtures
    from drivers import DRIVERS
    from spec import WORKLOADS

    if args.tiny:
        for workload in WORKLOADS.values():
            workload["files"] = TINY_FILES
    params = WORKLOADS[args.workload]
    clock = time.perf_counter()
    metas = fixtures.ensure(WORKLOADS)
    clock = phase("fixtures", clock)
    meta = metas[args.workload]

    run_dir = fixtures.CACHE / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    served = run_dir / "served"
    try:
        shutil.copytree(meta["path"], served)
        if args.workload == "push_large":
            shutil.copytree(meta["path"], run_dir / "local")
        log = run_dir / "serve.log"
        setups: list[float] = []
        if args.trace:
            import client_tracing

            spans_path = run_dir / "server-spans.json"
            server = Server(served, log, spans=spans_path)
        else:
            for _ in range(SETUP_SPAWNS - 1):
                server = Server(served, log)
                setups.append(server.setup_s)
                if server.stop() != 0:
                    raise RuntimeError(f"gitcite serve failed to drain (see {log})")
            server = Server(served, log)
            setups.append(server.setup_s)

        clock = phase("server set-up", clock)
        try:
            driver = DRIVERS[args.workload](meta, server.url, server.token, args.seed,
                                            args.seconds, run_dir)
            driver.prepare()
            if args.trace:
                client_tracing.install()
            cpu_before = proc_cpu_seconds(server.process.pid)
            results = driver.run()
            cpu_s = proc_cpu_seconds(server.process.pid) - cpu_before
            rss_mb = proc_peak_rss_mb(server.process.pid)
            clock = phase("workload", clock)
        except BaseException:
            server.kill()
            raise
        if args.inject == "drop-journal":
            # A crash after the journal was lost: nothing acknowledged since
            # the last checkpoint survives, which the check must notice.
            server.kill()
            from repro.hub.durability import journal_path

            journal_path(served).unlink()
            exit_code = 0
        else:
            exit_code = server.stop()
        problems = [] if exit_code == 0 else [f"gitcite serve exited with {exit_code} on drain"]
        clock = phase("drain", clock)
        problems += verify(served, driver, results)
        clock = phase("verify", clock)

        print_summary(args.workload, params, results, setups, rss_mb, meta)
        for problem in problems:
            print(f"  CHECK FAILED: {problem}")
        if args.trace:
            metrics = client_tracing.per_layer(
                json.loads(spans_path.read_text()), results, params, cpu_s,
            )
        else:
            metrics = end_to_end(results, params, setups, rss_mb)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sys.path.insert(0, str(HERE))
    from spec import WORKLOADS

    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("drop-journal",), default=None,
                        help="fault injection for the benchmark's self-tests")
    parser.add_argument("--tiny", action="store_true",
                        help=f"{TINY_FILES}-file fixtures, for the benchmark's self-tests")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli" / "serve.py").is_file():
        sys.stderr.write(f"error: no gitcite sources under {SRC}; run from a full checkout\n")
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
