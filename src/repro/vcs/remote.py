"""Repository-to-repository transfer: clone, fork, push and pull.

Because objects are content-addressed, transferring history between two
repositories only requires moving the objects missing on the receiving side
and updating a branch reference.  Since PR 5 every one of these paths goes
through the sync subsystem (:mod:`repro.vcs.transfer`): the sender and
receiver negotiate haves/wants, the sender serialises exactly the negotiated
frontier as a delta-compressed bundle, and the receiver verifies it end to
end before anything lands — so a push of one new commit moves O(changed)
objects instead of re-offering the whole history, and a corrupt transfer
leaves the receiver untouched.

``push`` enforces fast-forward updates unless forced, mirroring how the
GitCite local tool publishes the updated ``citation.cite`` back to the
hosting platform (Section 3: "the Git command is used to push the local copy
... to the remote repository").  ``fork`` copies a repository's history into
a *new* repository owned by another user — the substrate operation underlying
ForkCite.  Clones are built from the reachability walk, so objects that no
ref can reach (pre-gc garbage) are left behind by construction.
"""

from __future__ import annotations

from repro.errors import RemoteError
from repro.vcs.merge import commit_ancestors, is_ancestor_commit
from repro.vcs.object_store import ObjectStore
from repro.vcs.repository import Repository
from repro.vcs.transfer import (
    ApplyResult,
    advertise_refs,
    apply_bundle,
    common_tips,
    create_bundle,
)
from repro.vcs.treeops import tree_closure

__all__ = [
    "clone_repository",
    "mirror_repository",
    "fork_repository",
    "push",
    "pull",
    "fetch_branch",
    "sync_objects",
    "reachable_objects",
]


def reachable_objects(store: ObjectStore, commit_oid: str) -> set[str]:
    """Return every object id reachable from ``commit_oid`` (commits, trees, blobs).

    Tree closures are memoised per tree oid, so a deep history whose commits
    share most subtrees is walked in O(distinct trees), not O(commits × tree).
    """
    cache: dict = {}
    reachable: set[str] = set()
    for ancestor in commit_ancestors(store, commit_oid):
        reachable.add(ancestor)
        reachable |= tree_closure(store, store.get_commit(ancestor).tree_oid, cache)
    return reachable


def sync_objects(source: Repository, destination: Repository, wants) -> ApplyResult:
    """Negotiate and transfer ``wants`` from ``source`` into ``destination``.

    The receiver's advertised tips are walked back to the closest commits the
    source knows (:func:`~repro.vcs.transfer.common_tips`), the source builds
    a thin bundle against them, and the receiver applies it with full
    verification — the in-process twin of the hub's upload-pack/receive-pack
    wire exchange.
    """
    haves = common_tips(source.store, destination)
    data = create_bundle(source.store, wants, haves)
    return apply_bundle(destination.store, data)


def _copy_annotated_tags(source: Repository, destination: Repository) -> int:
    """Carry annotated tag objects whose targets made it into ``destination``.

    Tag objects are not referenced by any commit graph edge, so the
    reachability walk cannot discover them; like the gc keep-set they ride
    along exactly when their target survived.
    """
    store = source.store
    records: list[tuple[str, str, bytes]] = []
    for oid in store.iter_oids():
        # Membership in the destination is the cheap probe (no payload or
        # header read) and true for almost everything after a clone, so it
        # goes first; only genuinely absent objects pay the type probe.
        if oid in destination.store or store.get_type(oid) != "tag":
            continue
        if store.get_tag(oid).object_oid in destination.store:
            type_name, payload = store.get_raw(oid)
            records.append((oid, type_name, payload))
    if records:
        destination.store.put_raw_many(records)
    return len(records)


def mirror_repository(
    source: Repository,
    name: str | None = None,
    owner: str | None = None,
) -> Repository:
    """Copy ``source``'s refs and *reachable* objects, with no working tree.

    This is a bare copy — what a hosting platform keeps for a fork: the
    branches, tags and HEAD of the source plus exactly the objects they
    reach, and nothing checked out.  The object transfer goes through the
    reachability walker, so dangling objects the source accumulated before
    its own gc are not copied.
    """
    mirror = Repository(
        name=name or source.name,
        owner=owner or source.owner,
        default_branch=source.refs.default_branch,
        description=source.description,
    )
    wants = sorted(advertise_refs(source).tips())
    if wants:
        apply_bundle(mirror.store, create_bundle(source.store, wants))
        _copy_annotated_tags(source, mirror)
    mirror.refs = source.refs.clone()
    return mirror


def clone_repository(
    source: Repository,
    name: str | None = None,
    owner: str | None = None,
) -> Repository:
    """Create a copy of ``source`` (all branches, tags and *reachable* objects).

    The clone keeps the source's owner by default — this is "downloading a
    copy of the project repository with Git" from Section 3, the state in
    which the local executable tool operates: a :func:`mirror_repository`
    with HEAD checked out.
    """
    clone = mirror_repository(source, name=name, owner=owner)
    head = clone.head_oid()
    if head:
        clone.checkout(clone.current_branch or head)
    return clone


def fork_repository(source: Repository, new_owner: str, new_name: str | None = None) -> Repository:
    """Fork ``source`` into a new repository owned by ``new_owner``.

    The full reachable history is preserved; only the ownership (and
    optionally the name) changes.  The citation layer's ForkCite wraps this
    and records fork provenance in the new root citation.
    """
    if not new_owner:
        raise RemoteError("a fork must have an owner")
    fork = clone_repository(source, name=new_name or source.name, owner=new_owner)
    fork.description = source.description
    return fork


def fetch_branch(source: Repository, destination: Repository, branch: str) -> str:
    """Transfer the objects of ``branch`` from ``source`` into ``destination``.

    The branch reference itself is *not* moved in the destination; the commit
    id is returned so the caller can merge or fast-forward explicitly.
    """
    if not source.refs.has_branch(branch):
        raise RemoteError(f"source repository has no branch {branch!r}")
    tip = source.refs.branch_target(branch)
    sync_objects(source, destination, [tip])
    return tip


def push(
    local: Repository,
    remote: Repository,
    branch: str | None = None,
    force: bool = False,
) -> str:
    """Push a branch from ``local`` to ``remote`` and return the new tip.

    Non-fast-forward updates are rejected unless ``force`` is given, exactly
    like ``git push``: the remote branch must be an ancestor of the local one.
    """
    branch = branch or local.current_branch or local.refs.default_branch
    if not local.refs.has_branch(branch):
        raise RemoteError(f"local repository has no branch {branch!r}")
    local_tip = local.refs.branch_target(branch)
    sync_objects(local, remote, [local_tip])
    if remote.refs.has_branch(branch):
        remote_tip = remote.refs.branch_target(branch)
        if remote_tip != local_tip and not force:
            if not is_ancestor_commit(remote.store, remote_tip, local_tip):
                raise RemoteError(
                    f"push rejected: remote branch {branch!r} is not an ancestor of the local branch "
                    "(fetch and merge first, or force-push)"
                )
    remote.refs.set_branch(branch, local_tip)
    if remote.current_branch == branch:
        remote.checkout(branch)
    return local_tip


def pull(
    local: Repository,
    remote: Repository,
    branch: str | None = None,
) -> str:
    """Fetch ``branch`` from ``remote`` and fast-forward the local branch.

    Diverged histories are not merged automatically (the citation-aware
    MergeCite should decide how to merge); a :class:`RemoteError` is raised
    instead.
    """
    branch = branch or local.current_branch or local.refs.default_branch
    tip = fetch_branch(remote, local, branch)
    if not local.refs.has_branch(branch):
        local.refs.set_branch(branch, tip)
        # Only move HEAD when it already points at this branch (an unborn
        # checkout of it).  Pulling branch X into a repository whose unborn
        # HEAD sits on a *different* branch must not silently re-attach HEAD
        # to X — that would discard the user's chosen starting branch.
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
        f"pull cannot fast-forward branch {branch!r}: local and remote histories diverged; "
        "use MergeCite to merge them"
    )
