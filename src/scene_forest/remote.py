"""HTTP client for a chat-completion-style reorganization backend.

Sends the serialized tree plus task as a chat request and parses the
returned tree block. Each parsed reply then passes the goal gate,
`reorganize.check_goal`, exactly once, here inside the retry loop: a reply
that fails to parse or fails the gate is re-prompted with the violation
text, up to the configured retry budget. The goal returned has passed the
gate and is not checked again.
"""
from __future__ import annotations

import os

import requests

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


def _post_chat(config, messages: list[dict]) -> str:
    body = {"model": config.model_name, "messages": messages, "temperature": 0}
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(API_KEY_ENV)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    resp = requests.post(
        config.endpoint_url, json=body, headers=headers, timeout=config.timeout_seconds
    )
    resp.raise_for_status()
    payload = resp.json()
    try:
        return payload["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise BackendError(f"malformed chat response: {exc}") from exc


def request_goal_tree(tree: SceneTree, task: TaskSpec, config) -> SceneTree:
    """One reorganization round-trip, with gate-driven re-prompting."""
    registry: list[ObjectInstance] = list(tree.nodes.values())
    messages = build_messages(tree, task)
    last_error: Exception | None = None
    for _ in range(config.max_retries + 1):
        try:
            content = _post_chat(config, messages)
        except (requests.RequestException, BackendError) as exc:
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
