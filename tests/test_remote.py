import json
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from scene_forest.cli import EXIT_BACKEND, main
from scene_forest.dataset import generate_synthetic_scene, save_scene_record
from scene_forest.errors import BackendError, InvalidGoal
from scene_forest.model import SceneTree, TaskKind, TaskSpec
from scene_forest.remote import _MAX_RETRIES, API_KEY_ENV, build_messages, request_goal_tree
from scene_forest.reorganize import Backend, BackendConfig, reorganize
from scene_forest.treetext import serialize_tree

from conftest import chain_tree

# Requests a scene sends before the client gives up: the first and every retry.
ATTEMPTS = _MAX_RETRIES + 1


def every_attempt(*replies):
    """One scripted reply per attempt, cycling through `replies`."""
    return [replies[n % len(replies)] for n in range(ATTEMPTS)]


class StubChatServer:
    """Chat-completion stub: records request bodies, replays canned replies.

    A reply is (status, content): a 3xx status is sent as a redirect to the
    URL in content, any other non-200 status as an HTTP error, bytes content
    as the raw 200 body, and text content as the first message of a chat
    reply.
    """

    def __init__(self, responses):
        self.requests = []
        self.responses = list(responses)
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                raw = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                stub.requests.append(
                    {
                        "method": self.command,
                        "body": json.loads(raw) if raw else None,
                        "auth": self.headers.get("Authorization"),
                        "path": self.path,
                    }
                )
                status, content = stub.responses.pop(0)
                if 300 <= status < 400:
                    self.send_response(status)
                    self.send_header("Location", content)
                    self.send_header("Content-Length", "0")
                    self.end_headers()
                    return
                if status != 200:
                    self.send_error(status)
                    return
                if isinstance(content, bytes):
                    payload = content
                else:
                    payload = json.dumps(
                        {"choices": [{"message": {"role": "assistant", "content": content}}]}
                    ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            do_GET = do_POST  # urllib follows a 301/302/303 with a GET

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()

    @property
    def url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def tree():
    return chain_tree("book_1", "cup_1")


@pytest.fixture
def task():
    return TaskSpec(kind=TaskKind.FREE_TEXT, raw_prompt="make it tidy")


def config_for(server):
    return BackendConfig(
        backend=Backend.REMOTE, endpoint_url=server.url, model_name="test-model"
    )


def goal_block(tree):
    reversed_parent = {"cup_1": "table_1", "book_1": "cup_1"}
    goal = SceneTree(root=tree.root, nodes=tree.nodes, parent=reversed_parent)
    return serialize_tree(goal)


def test_request_shape_and_valid_response(tree, task, monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "sekrit")
    server = StubChatServer([(200, "Sure!\n" + goal_block(tree))])
    try:
        goal = reorganize(tree, task, config_for(server))
    finally:
        server.close()
    assert goal.parent == {"cup_1": "table_1", "book_1": "cup_1"}

    req = server.requests[0]
    assert req["auth"] == "Bearer sekrit"
    body = req["body"]
    assert body["model"] == "test-model"
    assert body["temperature"] == 0
    assert [m["role"] for m in body["messages"]] == ["system", "user"]
    assert "TREE" in body["messages"][1]["content"]
    assert "TASK: make it tidy" in body["messages"][1]["content"]


def test_malformed_response_yields_invalid_goal(tree, task):
    server = StubChatServer(
        every_attempt((200, "I cannot draw trees."), (200, "Still no tree here."))
    )
    try:
        with pytest.raises(InvalidGoal):
            request_goal_tree(tree, task, config_for(server))
    finally:
        server.close()
    assert len(server.requests) == ATTEMPTS


def test_conservation_breach_reprompted_then_accepted(tree, task):
    dropped = "TREE\ntable_1 [x]\n  book_1 [x]\nEND\n"
    server = StubChatServer([(200, dropped), (200, goal_block(tree))])
    try:
        goal = request_goal_tree(tree, task, config_for(server))
    finally:
        server.close()
    assert goal.parent == {"cup_1": "table_1", "book_1": "cup_1"}
    retry_messages = server.requests[1]["body"]["messages"]
    assert len(retry_messages) == 4
    assert "invalid" in retry_messages[-1]["content"]


def test_wrong_root_reprompted_then_accepted(tree, task):
    wrong_root = "TREE\ncup_1 [x]\n  table_1 [x]\n  book_1 [x]\nEND\n"
    server = StubChatServer([(200, wrong_root), (200, goal_block(tree))])
    try:
        goal = request_goal_tree(tree, task, config_for(server))
    finally:
        server.close()
    assert goal.parent == {"cup_1": "table_1", "book_1": "cup_1"}
    assert len(server.requests) == 2
    assert "root" in server.requests[1]["body"]["messages"][-1]["content"]


def test_http_failure_after_retries_is_backend_error(tree, task):
    server = StubChatServer(every_attempt((500, "")))
    try:
        with pytest.raises(BackendError):
            request_goal_tree(tree, task, config_for(server))
    finally:
        server.close()
    assert len(server.requests) == ATTEMPTS


def test_messages_contain_preamble(tree, task):
    messages = build_messages(tree, task)
    assert messages[0]["role"] == "system"
    assert "robotic arm" in messages[0]["content"]
    assert messages[1]["content"].startswith("TREE")


def test_non_json_body_is_retried_then_backend_error(tree, task):
    server = StubChatServer(every_attempt((200, b"<html>busy</html>"), (200, b"{not json")))
    try:
        with pytest.raises(BackendError, match="failed after retries"):
            request_goal_tree(tree, task, config_for(server))
    finally:
        server.close()
    assert len(server.requests) == ATTEMPTS


# A JSON body nested too deeply for the decoder: it raises RecursionError.
NESTED_BODY = b"[" * 100_000 + b"]" * 100_000


def test_nested_body_is_retried_then_accepted(tree, task):
    server = StubChatServer([(200, NESTED_BODY), (200, goal_block(tree))])
    try:
        goal = request_goal_tree(tree, task, config_for(server))
    finally:
        server.close()
    assert goal.parent == {"cup_1": "table_1", "book_1": "cup_1"}
    assert len(server.requests) == 2


def test_nested_body_on_every_attempt_exits_6(tmp_path, monkeypatch, capsys):
    scene = tmp_path / "scene_0000.json"
    save_scene_record(generate_synthetic_scene(0, 0), scene)
    server = StubChatServer(every_attempt((200, NESTED_BODY)))
    monkeypatch.setenv("SCENE_FOREST_ENDPOINT", server.url)
    try:
        code = main([
            "pipeline", str(scene), "--task", "make it tidy", "--backend", "remote",
            "--out", str(tmp_path / "out"),
        ])
    finally:
        server.close()
    assert code == EXIT_BACKEND
    assert len(server.requests) == ATTEMPTS
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        "scene_0000: BackendError: remote backend failed after retries: maximum recursion"
    )


@pytest.mark.parametrize("model, sent", [(None, "gpt-4o"), ("", "gpt-4o"), ("my-model", "my-model")])
def test_model_name_from_environment(tmp_path, monkeypatch, model, sent):
    # An empty SCENE_FOREST_MODEL counts as unset, like an empty endpoint.
    scene = tmp_path / "scene_0000.json"
    save_scene_record(generate_synthetic_scene(0, 0), scene)
    assert main(["pipeline", str(scene), "--task", "unstack", "--out", str(tmp_path / "rule")]) == 0
    server = StubChatServer([(200, (tmp_path / "rule" / "goal.tree.txt").read_text())])
    monkeypatch.setenv("SCENE_FOREST_ENDPOINT", server.url)
    if model is None:
        monkeypatch.delenv("SCENE_FOREST_MODEL", raising=False)
    else:
        monkeypatch.setenv("SCENE_FOREST_MODEL", model)
    try:
        code = main([
            "pipeline", str(scene), "--task", "unstack", "--backend", "remote",
            "--out", str(tmp_path / "remote"),
        ])
    finally:
        server.close()
    assert code == 0
    assert [r["body"]["model"] for r in server.requests] == [sent]


def test_malformed_reply_shape_is_backend_error(tree, task):
    server = StubChatServer(every_attempt(
        (200, b'{"choices": []}'),
        (200, b"[1, 2]"),
        (200, b'{"choices": [{"message": {"content": null}}]}'),
    ))
    try:
        with pytest.raises(BackendError, match="malformed chat response"):
            request_goal_tree(tree, task, config_for(server))
    finally:
        server.close()
    assert len(server.requests) == ATTEMPTS


def test_http_error_then_valid_reply_recovers(tree, task):
    server = StubChatServer([(500, ""), (200, goal_block(tree))])
    try:
        goal = request_goal_tree(tree, task, config_for(server))
    finally:
        server.close()
    assert goal.parent == {"cup_1": "table_1", "book_1": "cup_1"}
    assert len(server.requests) == 2


@pytest.mark.parametrize("status", [401, 404])
def test_status_that_cannot_improve_is_not_retried(tree, task, status):
    server = StubChatServer([(status, "")])
    try:
        with pytest.raises(BackendError, match=f"HTTP {status} .*not retried"):
            request_goal_tree(tree, task, config_for(server))
    finally:
        server.close()
    assert len(server.requests) == 1


@pytest.mark.parametrize("status", [429, 503])
def test_transient_status_then_valid_reply_recovers(tree, task, status):
    server = StubChatServer([(status, ""), (200, goal_block(tree))])
    try:
        goal = request_goal_tree(tree, task, config_for(server))
    finally:
        server.close()
    assert goal.parent == {"cup_1": "table_1", "book_1": "cup_1"}
    assert len(server.requests) == 2


def test_closed_port_is_backend_error(tree, task):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    config = BackendConfig(
        backend=Backend.REMOTE,
        endpoint_url=f"http://127.0.0.1:{port}/v1/chat/completions",
        model_name="test-model",
    )
    with pytest.raises(BackendError, match="failed after retries"):
        request_goal_tree(tree, task, config)


def test_no_bearer_header_without_api_key(tree, task, monkeypatch):
    # test_request_shape_and_valid_response covers the header with a key set.
    monkeypatch.delenv(API_KEY_ENV, raising=False)
    server = StubChatServer([(200, goal_block(tree))])
    try:
        request_goal_tree(tree, task, config_for(server))
    finally:
        server.close()
    assert server.requests[0]["auth"] is None


def test_redirect_does_not_forward_bearer_header(tree, task, monkeypatch):
    monkeypatch.setenv(API_KEY_ENV, "sekrit")
    elsewhere = StubChatServer([(200, goal_block(tree))])
    server = StubChatServer([(302, elsewhere.url)])
    try:
        goal = request_goal_tree(tree, task, config_for(server))
    finally:
        server.close()
        elsewhere.close()
    assert goal.parent == {"cup_1": "table_1", "book_1": "cup_1"}
    assert len(server.requests) == 1
    assert server.requests[0]["auth"] == "Bearer sekrit"
    assert elsewhere.requests[0]["method"] == "GET"
    assert elsewhere.requests[0]["auth"] is None


_WITHOUT_REQUESTS = """
import sys
sys.modules["requests"] = None  # any import of requests now fails
from scene_forest.model import TaskKind, TaskSpec
from scene_forest.remote import request_goal_tree
from scene_forest.reorganize import Backend, BackendConfig
from conftest import chain_tree

config = BackendConfig(backend=Backend.REMOTE, endpoint_url=sys.argv[1],
                       model_name="test-model")
goal = request_goal_tree(chain_tree("book_1", "cup_1"),
                         TaskSpec(kind=TaskKind.FREE_TEXT, raw_prompt="tidy"), config)
print(sorted(goal.parent.items()))
"""


def test_round_trip_without_requests_installed(tree):
    tests_dir = Path(__file__).resolve().parent
    src_dir = tests_dir.parent / "src"
    server = StubChatServer([(200, goal_block(tree))])
    try:
        run = subprocess.run(
            [sys.executable, "-c", _WITHOUT_REQUESTS, server.url],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": f"{src_dir}{os.pathsep}{tests_dir}"},
        )
    finally:
        server.close()
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[('book_1', 'cup_1'), ('cup_1', 'table_1')]"
    assert len(server.requests) == 1
