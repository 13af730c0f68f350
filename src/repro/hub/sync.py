"""A remote repository spoken to entirely over the hub's REST wire.

:class:`HubRemote` is the client half of the sync subsystem's wire story:
where :mod:`repro.vcs.remote` moves history between two in-process
:class:`~repro.vcs.repository.Repository` objects, this module performs the
same clone/fetch/pull/push operations against a hosted repository it can
only reach through ``GET git/refs``, ``POST git/upload-pack`` and
``POST git/receive-pack`` — the negotiation happens with advertised tips
instead of store probes, bundles travel base64-encoded in JSON bodies, and
every failure arrives as a status code rather than an exception.

Pair it with :class:`~repro.hub.retry.RetryingApi` and the operations become
crash-convergent: a push whose response was lost in flight is simply
re-sent, and the receiver's idempotent ``apply_bundle`` plus fast-forward
ref updates make the retry a no-op instead of a duplicate.
"""

from __future__ import annotations

from base64 import b64decode, b64encode
from typing import Optional

from repro.errors import (
    AuthenticationError,
    NotFoundError,
    PermissionDeniedError,
    RateLimitExceededError,
    RemoteError,
    ValidationError,
)
from repro.vcs.merge import is_ancestor_commit
from repro.vcs.repository import Repository
from repro.vcs.transfer import (
    RefAdvertisement,
    advertise_refs,
    apply_bundle,
    create_bundle,
)

__all__ = ["HubRemote"]


def _raise_for_status(response, context: str) -> None:
    """Turn a non-2xx wire response back into the matching client exception."""
    if response is None:
        raise RemoteError(f"{context}: no response from hub")
    if response.ok:
        return
    body = response.json if isinstance(response.json, dict) else {}
    message = body.get("message", f"HTTP {response.status}")
    if response.status == 401:
        raise AuthenticationError(message)
    if response.status == 403:
        raise PermissionDeniedError(message)
    if response.status == 404:
        raise NotFoundError(message)
    if response.status == 422:
        raise ValidationError(message)
    if response.status == 429:
        raise RateLimitExceededError(message, retry_after=body.get("retry_after"))
    raise RemoteError(f"{context}: {message}")


def _remote_known_commits(local: Repository, advert: RefAdvertisement) -> set[str]:
    """Commits both sides provably share: ancestors of advertised tips we hold."""
    store = local.store
    known: set[str] = set()
    frontier = [
        tip for tip in advert.tips() if tip in store and store.get_type(tip) == "commit"
    ]
    while frontier:
        oid = frontier.pop()
        if oid in known:
            continue
        known.add(oid)
        frontier.extend(store.get_commit(oid).parent_oids)
    return known


class HubRemote:
    """Clone, fetch, pull and push against one hosted repository over REST.

    ``api`` is anything with the :class:`~repro.hub.api.RestApi` verb surface
    — pass a :class:`~repro.hub.retry.RetryingApi` to get transparent retry
    of transport faults, 429s and 5xxs on every wire round trip.
    """

    def __init__(self, api, slug: str, token: Optional[str] = None) -> None:
        self.api = api
        self.slug = slug
        self.token = token

    # ------------------------------------------------------------------
    # Wire round trips
    # ------------------------------------------------------------------

    def refs(self) -> RefAdvertisement:
        """The remote's current ref advertisement (one ``git/refs`` GET)."""
        response = self.api.get(f"/repos/{self.slug}/git/refs", token=self.token)
        _raise_for_status(response, f"cannot read refs of {self.slug}")
        return RefAdvertisement.from_dict(response.json)

    def repository_info(self) -> dict:
        """The hosted repository's metadata (name, owner, default branch …)."""
        response = self.api.get(f"/repos/{self.slug}", token=self.token)
        _raise_for_status(response, f"cannot read {self.slug}")
        return response.json

    def _upload_pack(self, wants, haves) -> bytes:
        response = self.api.post(
            f"/repos/{self.slug}/git/upload-pack",
            payload={"wants": sorted(wants), "haves": sorted(haves)},
            token=self.token,
        )
        _raise_for_status(response, f"cannot fetch from {self.slug}")
        return b64decode(response.json["bundle"])

    def _receive_pack(self, bundle_data: bytes, force: bool) -> dict:
        response = self.api.post(
            f"/repos/{self.slug}/git/receive-pack",
            payload={
                "bundle": b64encode(bundle_data).decode("ascii"),
                "force": force,
            },
            token=self.token,
        )
        _raise_for_status(response, f"cannot push to {self.slug}")
        return response.json

    # ------------------------------------------------------------------
    # The remote operations
    # ------------------------------------------------------------------

    def fetch(self, local: Repository, wants=None) -> RefAdvertisement:
        """Transfer the remote history for ``wants`` into ``local``'s store.

        ``wants`` defaults to everything the remote advertises.  No local
        ref moves — the advertisement is returned so the caller can decide
        (exactly the split :func:`repro.vcs.remote.fetch_branch` makes).
        The haves sent are the local tips themselves — when the remote is
        strictly ahead, none of its tips is held locally, but the local tips
        are its ancestors, and the hub drops haves it has never seen — plus
        the local tips walked back to the first commit provably shared with
        the remote, so a local clone that is *ahead* still yields a thin
        bundle instead of the whole history.
        """
        advert = self.refs()
        wanted = sorted(set(wants) if wants is not None else advert.tips())
        if not wanted:
            return advert
        known = _remote_known_commits(local, advert)
        store = local.store
        local_tips = sorted(advertise_refs(local).tips())
        haves: list[str] = list(local_tips)
        seen: set[str] = set()
        frontier = list(local_tips)
        while frontier:
            oid = frontier.pop()
            if oid in seen:
                continue
            seen.add(oid)
            if oid in known:
                if oid not in haves:
                    haves.append(oid)
                continue
            if oid in store and store.get_type(oid) == "commit":
                frontier.extend(store.get_commit(oid).parent_oids)
        data = self._upload_pack(wanted, sorted(haves))
        apply_bundle(store, data)
        return advert

    def fetch_branch(self, local: Repository, branch: str) -> str:
        """Fetch one remote branch's objects; return its tip without moving refs."""
        advert = self.refs()
        tip = advert.branches.get(branch)
        if tip is None:
            raise RemoteError(f"{self.slug} has no branch {branch!r}")
        self.fetch(local, wants=[tip])
        return tip

    def pull(self, local: Repository, branch: Optional[str] = None) -> str:
        """Fetch ``branch`` and fast-forward the local branch onto it."""
        branch = branch or local.current_branch or local.refs.default_branch
        tip = self.fetch_branch(local, branch)
        if not local.refs.has_branch(branch):
            local.refs.set_branch(branch, tip)
            if local.current_branch == branch:
                local.checkout(branch)
            return tip
        local_tip = local.refs.branch_target(branch)
        if local_tip == tip:
            return tip
        if is_ancestor_commit(local.store, local_tip, tip):
            local.refs.set_branch(branch, tip)
            if local.current_branch == branch:
                local.checkout(branch)
            return tip
        raise RemoteError(
            f"pull cannot fast-forward branch {branch!r}: local and remote histories "
            "diverged; use MergeCite to merge them"
        )

    def push(self, local: Repository, branch: Optional[str] = None,
             force: bool = False) -> dict:
        """Push one local branch over ``receive-pack``; return the server report.

        The bundle is thin against the remote's advertised tips (those the
        local store holds) and carries *only* the pushed branch as a ref
        record, so the receiver moves exactly one ref.  Safe to retry: if a
        previous identical attempt landed but its response was lost, the
        receiver's idempotent apply adds zero objects and the ref update is
        already fast-forwarded — the report then shows ``objects_added: 0``.
        """
        branch = branch or local.current_branch or local.refs.default_branch
        if not local.refs.has_branch(branch):
            raise RemoteError(f"local repository has no branch {branch!r}")
        local_tip = local.refs.branch_target(branch)
        advert = self.refs()
        haves = [tip for tip in sorted(advert.tips()) if tip in local.store]
        pushed_refs = RefAdvertisement(
            branches={branch: local_tip},
            tags={},
            default_branch=local.refs.default_branch,
            head_branch=None,
            head_oid=None,
        )
        data = create_bundle(local.store, [local_tip], haves=haves, refs=pushed_refs)
        return self._receive_pack(data, force=force)

    def clone(self, name: Optional[str] = None, owner: Optional[str] = None) -> Repository:
        """Materialise a full local clone of the hosted repository.

        Every advertised branch and tag is fetched and recreated; HEAD is
        attached to the remote's HEAD branch (or left detached at its oid).
        Like the wire itself, this carries graph-reachable objects only —
        dangling pre-gc garbage on the server never crosses.
        """
        info = self.repository_info()
        advert = self.refs()
        clone = Repository(
            name=name or info["name"],
            owner=owner or info["owner"]["login"],
            default_branch=advert.default_branch,
            description=info.get("description") or "",
        )
        self.fetch(clone)
        for ref_name, oid in sorted(advert.branches.items()):
            clone.refs.set_branch(ref_name, oid)
        for ref_name, oid in sorted(advert.tags.items()):
            clone.refs.set_tag(ref_name, oid)
        if advert.head_branch and clone.refs.has_branch(advert.head_branch):
            clone.checkout(advert.head_branch)
        elif advert.head_oid:
            clone.checkout(advert.head_oid)
        return clone
