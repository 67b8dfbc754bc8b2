"""no-engine-counter-poke: engine accounting mutates only inside the engine.

The event loop's accounting (``_live``, ``_processed``, ``_cancelled``)
decides what ``len(loop)`` and ``processed_events`` report and when the
heap is compacted.  Each counter changes together with the heap itself —
on schedule, on pop, on cancel and on compaction — so only
``sim/engine.py`` may write it; every other module schedules through
``schedule``/``schedule_at``/``schedule_fast`` and cancels through
``Event.cancel()``.  A stray ``loop._live += 1`` elsewhere makes
``len(loop)`` stop matching the entries still to fire, and a stray
``loop._cancelled = 0`` postpones compaction, so cancelled entries pile up
in the heap again.

This rule flags any assignment or augmented assignment whose target is
an attribute named ``_live``, ``_processed`` or ``_cancelled`` in a module
other than the engine itself.  Reads are fine (tests and benches inspect the
counters, and the network reads ``_processed`` to coalesce same-turn sends);
only mutation is reserved to the engine.
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
        "inside sim/engine.py — schedule and cancel through the EventLoop API "
        "from everywhere else"
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
                    "sim/engine.py — schedule through loop.schedule_at()/"
                    "schedule_fast() and cancel through Event.cancel() so the "
                    "accounting stays in step with the heap",
                )
