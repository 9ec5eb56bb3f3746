import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from scene_forest.errors import BackendError, InvalidGoal
from scene_forest.model import TaskKind, TaskSpec
from scene_forest.remote import API_KEY_ENV, build_messages, request_goal_tree
from scene_forest.reorganize import Backend, BackendConfig, reorganize
from scene_forest.treetext import serialize_tree

from conftest import chain_tree


class StubChatServer:
    """Chat-completion stub: records request bodies, replays canned replies."""

    def __init__(self, responses):
        self.requests = []
        self.responses = list(responses)
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                stub.requests.append(
                    {
                        "body": json.loads(self.rfile.read(length)),
                        "auth": self.headers.get("Authorization"),
                        "path": self.path,
                    }
                )
                status, content = stub.responses.pop(0)
                if status != 200:
                    self.send_error(status)
                    return
                payload = json.dumps(
                    {"choices": [{"message": {"role": "assistant", "content": content}}]}
                ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
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


def config_for(server, retries=1):
    return BackendConfig(
        backend=Backend.REMOTE,
        endpoint_url=server.url,
        model_name="test-model",
        timeout_seconds=5,
        max_retries=retries,
    )


def goal_block(tree):
    reversed_parent = {"cup_1": "table_1", "book_1": "cup_1"}
    goal = tree.with_parent("cup_1", "table_1").with_parent("book_1", "cup_1")
    assert goal.parent == reversed_parent
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
    server = StubChatServer([
        (200, "I cannot draw trees."),
        (200, "Still no tree here."),
    ])
    try:
        with pytest.raises(InvalidGoal):
            request_goal_tree(tree, task, config_for(server, retries=1))
    finally:
        server.close()
    assert len(server.requests) == 2


def test_conservation_breach_reprompted_then_accepted(tree, task):
    dropped = "TREE\ntable_1 [x]\n  book_1 [x]\nEND\n"
    server = StubChatServer([(200, dropped), (200, goal_block(tree))])
    try:
        goal = request_goal_tree(tree, task, config_for(server, retries=1))
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
        goal = request_goal_tree(tree, task, config_for(server, retries=1))
    finally:
        server.close()
    assert goal.parent == {"cup_1": "table_1", "book_1": "cup_1"}
    assert len(server.requests) == 2
    assert "root" in server.requests[1]["body"]["messages"][-1]["content"]


def test_http_failure_after_retries_is_backend_error(tree, task):
    server = StubChatServer([(500, ""), (500, "")])
    try:
        with pytest.raises(BackendError):
            request_goal_tree(tree, task, config_for(server, retries=1))
    finally:
        server.close()


def test_messages_contain_preamble(tree, task):
    messages = build_messages(tree, task)
    assert messages[0]["role"] == "system"
    assert "robotic arm" in messages[0]["content"]
    assert messages[1]["content"].startswith("TREE")
