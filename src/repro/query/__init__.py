"""Path queries over both the formal model and the storage engine."""

from repro.query.cache import (
    CacheStats,
    LRUCache,
    cached_parse_path,
    clear_parse_cache,
    parse_cache_stats,
)
from repro.query.engine import (
    StorageQueryEngine,
    evaluate_store,
    evaluate_tree,
    navigate_steps,
)
from repro.query.cost import CostEstimate, CostModel
from repro.query.paths import Path, Step, parse_path
from repro.query.planner import (
    POLICIES,
    CompiledPlan,
    QueryPlanner,
    compile_plan,
    match_schema_nodes,
)

__all__ = [
    "CacheStats",
    "CompiledPlan",
    "CostEstimate",
    "CostModel",
    "LRUCache",
    "POLICIES",
    "Path",
    "QueryPlanner",
    "Step",
    "StorageQueryEngine",
    "cached_parse_path",
    "clear_parse_cache",
    "compile_plan",
    "evaluate_store",
    "evaluate_tree",
    "navigate_steps",
    "match_schema_nodes",
    "parse_cache_stats",
    "parse_path",
]
