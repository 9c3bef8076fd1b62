"""The benchmark tracer's patch table still matches the library.

``perfbench/tracing.py`` wraps module and class attributes of ``nsg`` by
name.  A library change that drops one of those names breaks ``run.py --trace
1`` only, which no other test runs; this test installs the tracer and undoes
it, and checks that every patched namespace comes back exactly.
"""

import importlib.util
from pathlib import Path

import nsg.cli as cli
import nsg.constructions as cons
import nsg.core as core
import nsg.families as fam
import nsg.oracle as oracle

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# every module and class whose attributes the tracer replaces
PATCHED = (
    cli, cons, fam, oracle,
    core.NumericalSemigroup, cons.SemigroupIdeal, oracle.VerificationReport,
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_undoes_cleanly():
    tracing = _load_tracing()
    before = [dict(vars(owner)) for owner in PATCHED]
    undo = tracing.install(tracing.Tracer("t"))
    try:
        installed = [dict(vars(owner)) for owner in PATCHED]
    finally:
        undo()
    # every namespace is patched, and each comes back with the same objects
    for owner, old, mid in zip(PATCHED, before, installed):
        assert any(mid.get(k) is not v for k, v in old.items()), owner
    for owner, old in zip(PATCHED, before):
        new = dict(vars(owner))
        assert new.keys() == old.keys(), owner
        assert all(new[k] is v for k, v in old.items()), owner
