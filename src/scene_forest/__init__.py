"""Tabletop scene trees: caption parsing, task reorganization, and planning."""

from .model import (
    AttributeSet,
    MoveAction,
    ObjectInstance,
    Plan,
    SceneRecord,
    SceneTree,
    SpatialPredicate,
    SpatialTriplet,
    TaskKind,
    TaskSpec,
    canonicalize_id,
)
from .captions import parse_caption, resolve_reference
from .treebuild import build_tree, validate_tree, to_dot
from .reorganize import (
    Backend,
    BackendConfig,
    check_physical_constraints,
    reorganize,
    rule_group_by_material,
    rule_stack_all,
    rule_stack_object,
    rule_unstack_all,
)
from .planner import diff_trees, execute_plan, plan_moves
from .dataset import (
    generate_synthetic_scene,
    load_scene_record,
    render_caption,
    save_scene_record,
)

__all__ = [
    "AttributeSet",
    "Backend",
    "BackendConfig",
    "MoveAction",
    "ObjectInstance",
    "Plan",
    "SceneRecord",
    "SceneTree",
    "SpatialPredicate",
    "SpatialTriplet",
    "TaskKind",
    "TaskSpec",
    "build_tree",
    "canonicalize_id",
    "check_physical_constraints",
    "diff_trees",
    "execute_plan",
    "generate_synthetic_scene",
    "load_scene_record",
    "parse_caption",
    "plan_moves",
    "render_caption",
    "reorganize",
    "resolve_reference",
    "rule_group_by_material",
    "rule_stack_all",
    "rule_stack_object",
    "rule_unstack_all",
    "save_scene_record",
    "to_dot",
    "validate_tree",
]
