"""The benchmark's tracer patches engine internals by name; a rename must
fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


@pytest.mark.parametrize("module, owner, attr, record", _targets())
def test_tracer_target_resolves_where_it_is_patched(module, owner, attr, record):
    mod = importlib.import_module(f"ncgb.{module}")
    if owner is None:
        assert callable(getattr(mod, attr))
    else:
        # the tracer reads the class's own __dict__, not an inherited name
        assert callable(vars(getattr(mod, owner))[attr])


def test_normal_form_binds_the_tracers_positional_call():
    from ncgb.engine import normal_form

    inspect.signature(normal_form).bind(object(), [], False, [])
