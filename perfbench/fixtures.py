"""Hosted-repository fixtures, built once per fixture seed and code version.

A fixture is a saved ``gitcite`` working copy (the directory ``gitcite
serve -C`` hosts) plus ``meta.json`` with its slug, its file paths and how
long generating and saving it took.  Fixtures are cached under
``.bench_build/gitcite/`` keyed by a hash of ``src/`` and of this
benchmark's generator code, so a checkout builds each one exactly once;
their generation time is recorded, never part of ``setup_s``.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from pathlib import Path

from spec import CITATION_DENSITY, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".bench_build" / "gitcite"
WORKING_COPY = "wc"


_FIXTURE_PARAMS = ("fixture_seed", "files", "storage")


def code_key() -> str:
    """Hash of the code a fixture depends on: ``src/`` and this generator."""
    digest = hashlib.sha1()
    for path in sorted((ROOT / "src").rglob("*.py")) + [Path(__file__).resolve()]:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fixture_dir(workload: str, code: str) -> Path:
    params = {name: WORKLOADS[workload][name] for name in _FIXTURE_PARAMS}
    params["density"] = CITATION_DENSITY
    key = hashlib.sha1((code + json.dumps(params, sort_keys=True)).encode()).hexdigest()[:16]
    return CACHE / f"{workload}-{params['files']}-{params['fixture_seed']}-{key}"


def build(workload: str, target: Path) -> dict:
    from repro.vcs.workingcopy import save_repository
    from repro.workloads.generator import WorkloadConfig, generate_repository

    params = WORKLOADS[workload]
    started = time.perf_counter()
    generated = generate_repository(WorkloadConfig(
        seed=params["fixture_seed"], num_files=params["files"], citation_density=CITATION_DENSITY,
    ))
    generated_at = time.perf_counter()
    save_repository(generated.repo, target / WORKING_COPY, storage=params["storage"])
    saved_at = time.perf_counter()
    return {
        "workload": workload,
        "slug": generated.repo.full_name,
        "name": generated.repo.name,
        "files": generated.file_paths,
        "storage": params["storage"],
        "generate_s": generated_at - started,
        "save_s": saved_at - generated_at,
    }


def ensure(workloads) -> dict[str, dict]:
    """Build every missing fixture; return each one's meta (with its path)."""
    key = code_key()
    metas = {}
    for workload in workloads:
        final = fixture_dir(workload, key)
        meta_path = final / "meta.json"
        if not meta_path.exists():
            for stale in CACHE.glob(f"{workload}-{WORKLOADS[workload]['files']}-*"):
                shutil.rmtree(stale, ignore_errors=True)
            staging = final.with_name(final.name + ".tmp")
            shutil.rmtree(staging, ignore_errors=True)
            staging.mkdir(parents=True)
            meta = build(workload, staging)
            (staging / "meta.json").write_text(json.dumps(meta))
            shutil.rmtree(final, ignore_errors=True)
            staging.rename(final)
        meta = json.loads(meta_path.read_text())
        meta["path"] = str(final / WORKING_COPY)
        metas[workload] = meta
    return metas
