"""Cross-module edge-case and failure-injection tests.

These cover situations the happy-path suites do not reach: malformed remote
citation files arriving over the API, citation operations racing with
hosting-platform state, unusual repository shapes, and defensive behaviour of
the manager when the working tree is manipulated behind its back.
"""

import base64

import pytest

from repro.errors import CitationFileError, RefError
from repro.citation.citefile import CITATION_FILE_PATH, load_citation_bytes
from repro.citation.manager import CitationManager
from repro.extension.client import ExtensionClient
from repro.hub.api import RestApi
from repro.hub.server import HostingPlatform
from repro.vcs.repository import Repository


class TestUnusualRepositoryShapes:
    def test_empty_repository_can_be_citation_enabled(self):
        repo = Repository.init("blank", "alice")
        manager = CitationManager(repo)
        manager.init_citations()
        oid = manager.commit("enable citations on an empty project")
        assert repo.read_file_at(oid, CITATION_FILE_PATH)
        assert manager.cite("/anything.py").citation.owner == "alice"

    def test_single_file_repository(self):
        repo = Repository.init("tiny", "bob")
        repo.write_file("only.py", "pass\n")
        repo.commit("only file")
        manager = CitationManager(repo)
        manager.init_citations()
        manager.add_cite("/only.py", manager.default_root_citation(authors=["Bob"]))
        manager.commit("cite the only file")
        assert manager.cite("/only.py").is_explicit
        assert manager.validate().is_consistent

    def test_deeply_nested_paths(self):
        repo = Repository.init("deep", "carol")
        deep_path = "/" + "/".join(f"level{i}" for i in range(25)) + "/leaf.py"
        repo.write_file(deep_path, "leaf\n")
        repo.commit("deep tree")
        manager = CitationManager(repo)
        manager.init_citations()
        resolved = manager.cite(deep_path)
        assert resolved.source_path == "/"
        manager.add_cite("/level0/level1", manager.default_root_citation(authors=["Mid"]))
        assert manager.cite(deep_path).citation.authors == ("Mid",)

    def test_unicode_paths_and_authors(self):
        repo = Repository.init("unicode", "dora")
        repo.write_file("données/analyse.py", "x = 1\n")
        repo.commit("unicode path")
        manager = CitationManager(repo)
        manager.init_citations(manager.default_root_citation(authors=["Jürgen Müller", "François"]))
        manager.commit("enable")
        stored = load_citation_bytes(repo.read_file(CITATION_FILE_PATH))
        assert stored.root_citation().authors == ("Jürgen Müller", "François")
        assert manager.cite("/données/analyse.py").citation.authors[0] == "Jürgen Müller"

    def test_checkout_of_old_version_then_cite(self):
        repo = Repository.init("timey", "eve")
        repo.write_file("a.py", "v1\n")
        repo.commit("v1")
        manager = CitationManager(repo)
        manager.init_citations()
        v_enabled = manager.commit("enable")
        repo.write_file("a.py", "v2\n")
        v2 = manager.commit("v2")
        repo.checkout(v_enabled)
        manager.reload()
        assert repo.file_text("/a.py") == "v1\n"
        assert manager.cite("/a.py").citation.owner == "eve"
        # The newer version is still reachable and citable by ref.
        assert manager.cite("/a.py", ref=v2).citation.owner == "eve"


class TestManagerDefensiveness:
    def test_manual_worktree_edit_of_citation_file_is_picked_up_on_reload(self, enabled_manager):
        manager = enabled_manager
        # Simulate an out-of-band edit (which the paper forbids for users, but
        # the tool must at least parse what is on disk after a reload).
        function = manager.citation_function().copy()
        function.put("/src/main.py", manager.default_root_citation(authors=["Sneaky"]), False)
        from repro.citation.citefile import dump_citation_bytes

        manager.repo.write_file(CITATION_FILE_PATH, dump_citation_bytes(function))
        reloaded = manager.reload()
        assert reloaded.get_explicit("/src/main.py") is not None

    def test_corrupt_citation_file_raises_cleanly(self, enabled_manager):
        enabled_manager.repo.write_file(CITATION_FILE_PATH, b"{broken json")
        with pytest.raises(CitationFileError):
            enabled_manager.reload()

    def test_cite_of_version_without_citation_file(self, simple_repo):
        manager = CitationManager(simple_repo)
        first = simple_repo.head_oid()
        manager.init_citations()
        manager.commit("enable")
        with pytest.raises(CitationFileError):
            manager.citation_function_at(first)

    def test_merge_cite_with_unknown_branch(self, enabled_manager):
        with pytest.raises(RefError):
            enabled_manager.merge_cite("does-not-exist")

    def test_copy_single_file_subtree(self, enabled_manager, other_citation):
        source = Repository.init("src-single", "chenli")
        source.write_file("algo.py", "algorithm\n")
        source.commit("single file")
        source_manager = CitationManager(source)
        source_manager.init_citations(other_citation)
        source_manager.commit("enable")
        outcome = enabled_manager.copy_cite(source, "/algo.py", "/vendor/algo.py")
        assert outcome.copied_files == ("/vendor/algo.py",)
        assert enabled_manager.cite("/vendor/algo.py").citation == other_citation


class TestHostedEdgeCases:
    @pytest.fixture
    def hosted(self, enabled_manager):
        platform = HostingPlatform()
        platform.register_user("alice")
        platform.host_repository(enabled_manager.repo)
        return platform, RestApi(platform), platform.issue_token("alice").value

    def test_malformed_remote_citation_file_is_reported(self, hosted):
        platform, api, token = hosted
        # A member pushes a broken citation.cite through the raw contents API
        # (bypassing the extension); the extension then refuses to parse it.
        payload = {
            "message": "break the citation file",
            "content": base64.b64encode(b"[1, 2, 3]").decode(),
        }
        assert api.put(f"/repos/alice/demo/contents{CITATION_FILE_PATH}", payload, token=token).ok
        client = ExtensionClient(api, token=token)
        with pytest.raises(CitationFileError):
            client.citation_function("alice/demo")

    def test_extension_on_specific_historic_ref(self, hosted, sample_citation):
        platform, api, token = hosted
        hosted_repo = platform.get_repository("alice/demo").repo
        historic = hosted_repo.head_oid()
        # Advance the remote with another citation; the old ref still resolves to the old state.
        client = ExtensionClient(api, token=token)
        client.add_citation("alice/demo", "/README.md", sample_citation)
        assert client.view_node("alice/demo", "/README.md").explicit_citation == sample_citation
        old_view = client.view_node("alice/demo", "/README.md", ref=historic)
        assert old_view.explicit_citation is None

    def test_listing_tree_of_missing_ref(self, hosted):
        platform, _, token = hosted
        with pytest.raises(Exception):
            platform.list_tree("alice/demo", ref="no-such-ref", token=token)

    def test_fork_of_fork_preserves_citations(self, hosted):
        platform, api, token = hosted
        platform.register_user("second")
        platform.register_user("third")
        token2 = platform.issue_token("second").value
        token3 = platform.issue_token("third").value
        platform.fork("alice/demo", token=token2)
        platform.fork("second/demo", token=token3)
        nested = platform.get_repository("third/demo")
        manager = CitationManager(nested.repo)
        # A hosted fork is bare: its citations are read at the branch tip.
        assert manager.cite("/docs/guide.md", ref="main").citation.owner == "alice"
