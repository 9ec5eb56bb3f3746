"""HTTP client for a chat-completion-style reorganization backend.

Sends the serialized tree plus task as a chat request and parses the
returned tree block. Each parsed reply then passes the goal gate,
`reorganize.check_goal`, exactly once, here inside the retry loop: a reply
that fails to parse or fails the gate is re-prompted with the violation
text, up to the configured retry budget. The goal returned has passed the
gate and is not checked again.

The client is the standard library's `urllib.request`, one request per
attempt. An attempt is retried when the connection fails or times out, the
reply status is 408, 429 or 5xx, its body is not JSON, or the JSON lacks
the chat-reply shape (a string at `choices[0].message.content`). Any other
non-2xx status cannot improve on a resend and fails at once.
"""
from __future__ import annotations

import http.client
import json
import os
import urllib.error
import urllib.request

# parse_tree_block is looked up through its module at call time so that
# perfbench's tracer, which patches treetext.parse_tree_block, sees the call.
from . import treetext
from .errors import GoalParseError, InvalidGoal, UnknownId, BackendError
from .model import ObjectInstance, SceneTree, TaskSpec
from .reorganize import check_goal
from .treetext import serialize_tree

API_KEY_ENV = "SCENE_FOREST_API_KEY"

PROMPT_VERSION = "1"

PROMPT_PREAMBLE = (
    "You control a robotic arm that cannot see its environment. The current "
    "arrangement of objects on the work surface is given below as an indented "
    "tree: each line is one object with its physical properties, and a line "
    "indented under another means that object rests on it. Rearrange the "
    "objects to accomplish the task. Use only the objects listed, use each "
    "object exactly once, and reply with the final arrangement in the same "
    "TREE ... END format."
)


def build_messages(tree: SceneTree, task: TaskSpec) -> list[dict]:
    """The prompt: fixed preamble as system message, tree block and task line
    as user message."""
    user = f"{serialize_tree(tree)}\nTASK: {task.raw_prompt}\n"
    return [
        {"role": "system", "content": PROMPT_PREAMBLE},
        {"role": "user", "content": user},
    ]


# What one failed attempt can raise: OSError covers URLError, socket
# timeouts and resets (an HTTPError, a non-2xx reply, is caught first and
# sorted by status); ValueError covers a body that is not JSON and an
# endpoint URL that urllib cannot parse; RecursionError, a body nested too
# deeply to decode.
_ATTEMPT_ERRORS = (
    OSError, http.client.HTTPException, ValueError, RecursionError, BackendError
)


def _post_chat(config, messages: list[dict]) -> str:
    body = {"model": config.model_name, "messages": messages, "temperature": 0}
    request = urllib.request.Request(
        config.endpoint_url,
        data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    api_key = os.environ.get(API_KEY_ENV)
    if api_key:
        # urllib copies ordinary headers onto a redirect to any host; an
        # unredirected header goes only to the endpoint the caller named.
        request.add_unredirected_header("Authorization", f"Bearer {api_key}")
    try:
        with urllib.request.urlopen(request, timeout=config.timeout_seconds) as resp:
            raw = resp.read()
    except urllib.error.HTTPError as exc:
        exc.close()  # the error carries the reply body; release its socket
        raise
    payload = json.loads(raw)
    try:
        content = payload["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise BackendError(f"malformed chat response: {exc}") from exc
    if not isinstance(content, str):
        raise BackendError(f"malformed chat response: content is {type(content).__name__}")
    return content


def request_goal_tree(tree: SceneTree, task: TaskSpec, config) -> SceneTree:
    """One reorganization round-trip, with gate-driven re-prompting."""
    registry: list[ObjectInstance] = list(tree.nodes.values())
    messages = build_messages(tree, task)
    last_error: Exception | None = None
    for _ in range(config.max_retries + 1):
        try:
            content = _post_chat(config, messages)
        except urllib.error.HTTPError as exc:
            if exc.code not in (408, 429) and not 500 <= exc.code < 600:
                raise BackendError(
                    f"remote backend replied HTTP {exc.code} {exc.reason}; not retried"
                ) from exc
            last_error = exc
            continue
        except _ATTEMPT_ERRORS as exc:
            last_error = exc
            continue
        try:
            goal = treetext.parse_tree_block(content, registry)
            check_goal(tree, goal)
            return goal
        except (GoalParseError, InvalidGoal, UnknownId) as exc:
            last_error = InvalidGoal(str(exc))
            messages = messages + [
                {"role": "assistant", "content": content},
                {
                    "role": "user",
                    "content": (
                        f"That arrangement is invalid: {exc}. Reply again with a "
                        "corrected TREE ... END block using every listed object "
                        "exactly once."
                    ),
                },
            ]
    if isinstance(last_error, InvalidGoal):
        raise last_error
    raise BackendError(f"remote backend failed after retries: {last_error}")
