"""The names the benchmark's tracer and child process rebind must exist.

``perfbench/tracing.py`` wraps bsmx functions by module attribute and
skips the ones it cannot find, and ``perfbench/child.py`` times set-up up
to the first call of the solver entry points looked up on ``bsmx.cli``.
A refactor that drops one of these names would silently lose a layer of
the benchmark trace, so the targets are resolved here, the same way the
tracer resolves them.
"""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "tracing.py")

# set-up boundary of perfbench/child.py
CHILD_HOOKS = (("cli", "solve_active_set"), ("cli", "solve_irmxne"),
               ("cli", "generate_scenario"))

# already gone before this guard existed: irmxne no longer densifies
KNOWN_MISSING = ["irmxne.densify"]


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hook_targets_resolve():
    tracing = _load_tracing()
    targets = [(mod, dotted) for mod, dotted, _, _ in tracing.SPAN_HOOKS]
    targets += list(tracing.COUNT_HOOKS) + list(CHILD_HOOKS)
    missing = []
    for mod, dotted in targets:
        module = importlib.import_module(f"bsmx.{mod}")
        try:
            owner, attr = tracing._resolve(module, dotted)
            assert callable(getattr(owner, attr))
        except AttributeError:
            missing.append(f"{mod}.{dotted}")
    assert missing == KNOWN_MISSING
