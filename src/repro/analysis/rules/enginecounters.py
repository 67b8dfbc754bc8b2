"""no-engine-counter-poke: engine accounting mutates only through the API.

The event loop's accounting (``_live``, ``_processed``, ``_cancelled``)
decides what ``len(loop)`` and ``processed_events`` report and when the
heap is compacted.  The engine has a first-class hidden-event API —
``EventLoop.schedule_hidden(when, cb, priority)`` and
``EventLoop.adjust_hidden(live=..., processed=...)`` — precisely so the
network layer stops reaching into those private counters from outside
``sim/engine.py``.  A stray ``loop._live += 1`` elsewhere silently
desynchronises the lazy-delivery mirror flags from the reference
accounting, which surfaces only as a fixed-seed digest mismatch far from
the offending line; a stray ``loop._cancelled = 0`` postpones compaction,
so cancelled entries pile up in the heap again.

This rule flags any assignment or augmented assignment whose target is
an attribute named ``_live``, ``_processed`` or ``_cancelled`` in a module
other than the engine itself.  Reads are fine (tests and benches inspect the
counters); only mutation is reserved to the engine.
"""

from __future__ import annotations

import ast

from repro.analysis.core import ModuleInfo, Reporter, Rule, Severity

ENGINE_COUNTERS = frozenset({"_live", "_processed", "_cancelled"})
ENGINE_MODULE_SUFFIX = "repro/sim/engine.py"


class NoEngineCounterPokeRule(Rule):
    name = "no-engine-counter-poke"
    severity = Severity.ERROR
    description = (
        "private engine counters (_live/_processed/_cancelled) may only be mutated "
        "inside sim/engine.py — use EventLoop.schedule_hidden() / "
        "adjust_hidden() from everywhere else"
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        return "repro/" in module.relpath and not module.relpath.endswith(
            ENGINE_MODULE_SUFFIX
        )

    def visit_Assign(self, node: ast.Assign, module: ModuleInfo, report: Reporter) -> None:
        for target in node.targets:
            self._check_target(target, module, report)

    def visit_AugAssign(self, node: ast.AugAssign, module: ModuleInfo, report: Reporter) -> None:
        self._check_target(node.target, module, report)

    def _check_target(self, target: ast.AST, module: ModuleInfo, report: Reporter) -> None:
        # Tuple/list unpacking targets contain nested Store contexts.
        for child in ast.walk(target):
            if (
                isinstance(child, ast.Attribute)
                and child.attr in ENGINE_COUNTERS
                and isinstance(child.ctx, ast.Store)
            ):
                report.at(
                    child,
                    f"mutation of engine counter `{ast.unparse(child)}` outside "
                    "sim/engine.py — use loop.adjust_hidden(live=..., "
                    "processed=...) or loop.schedule_hidden(...) so the "
                    "liveness accounting stays in one module",
                )
