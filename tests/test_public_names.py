import importlib

import scene_forest

# Every module attribute that perfbench/run.py looks up or wraps by name.
BENCHMARK_NAMES = [
    ("cli", "main"),
    ("cli", "build_tree"),
    ("cli", "to_dot"),
    ("cli", "reorganize"),
    ("cli", "plan_moves"),
    ("cli", "execute_plan"),
    ("cli", "serialize_tree"),
    ("cli", "run_pipeline_for_scene"),
    ("reorganize", "validate_tree"),
    ("reorganize", "check_physical_constraints"),
    ("remote", "request_goal_tree"),
    ("remote", "serialize_tree"),
    ("treetext", "parse_tree_block"),
    ("planner", "diff_trees"),
    ("captions", "parse_caption"),
    ("dataset", "load_scene_record"),
    ("dataset", "generate_synthetic_scene"),
    ("dataset", "save_scene_record"),
]

PUBLIC_NAMES = [
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


def test_benchmark_names_and_public_surface_resolve():
    missing = [
        f"{module}.{attr}" for module, attr in BENCHMARK_NAMES
        if not callable(getattr(importlib.import_module(f"scene_forest.{module}"), attr, None))
    ]
    # perfbench reads these two attributes of every plan_moves result.
    planner = importlib.import_module("scene_forest.planner")
    model = importlib.import_module("scene_forest.model")
    table = model.ObjectInstance("table_1", "table", model.AttributeSet("low", 1, "wood", "opaque"))
    tree = model.SceneTree("table_1", {"table_1": table}, {})
    trace = planner.plan_moves(tree, tree)
    missing += [f"PlanTrace.{f}" for f in ("plan", "staged_moves") if not hasattr(trace, f)]
    assert missing == []

    assert scene_forest.__all__ == PUBLIC_NAMES
    assert all(hasattr(scene_forest, name) for name in scene_forest.__all__)
