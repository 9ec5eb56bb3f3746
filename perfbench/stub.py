"""Loopback chat-completion endpoint for the remote backend.

One server thread answers each request with the goal the benchmark's own
task functions compute from the tree in the prompt. When `drop_next` is
set, the next first-attempt reply leaves one object out, so the client's
re-prompt path runs; the corrected reply follows on the re-prompt.
"""
from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

from checks import Tree, read_attrs, read_tree_block, tree_block
from scenes import free_text_goal


class ChatStub:
    def __init__(self, tracer=None):
        self.tracer = tracer
        self.requests = 0
        self.dropped = 0
        self.drop_next = False
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                body = self.rfile.read(int(self.headers["Content-Length"]))
                status, reply = stub.handle(body)
                data = json.dumps(reply).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self._server = HTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._server.server_port}/v1/chat/completions"
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()

    def handle(self, body: bytes) -> tuple[int, dict]:
        start = time.perf_counter()
        self.requests += 1
        try:
            messages = json.loads(body)["messages"]
            prompt = messages[1]["content"]
            tree = read_tree_block(prompt)
            task = prompt.rsplit("TASK: ", 1)[1].strip()
            attrs = {n: read_attrs(a) for n, a in tree.attrs.items() if n != tree.root}
            goal = free_text_goal(task, tree.root, attrs)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return 400, {"error": str(exc)}
        if self.drop_next and len(messages) == 2:
            self.drop_next = False
            self.dropped += 1
            leaf = max(n for n in goal.parent if n not in goal.parent.values())
            parent = {c: p for c, p in goal.parent.items() if c != leaf}
            goal = Tree(goal.root, parent, {})
        reply = {"choices": [{"message": {"role": "assistant",
                                          "content": tree_block(goal)}}]}
        if self.tracer is not None:
            self.tracer.record_remote("remote.stub", start, time.perf_counter())
        return 200, reply

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
