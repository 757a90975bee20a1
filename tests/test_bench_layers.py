"""The traced benchmark under bench/ wraps polyseg functions by module and
attribute name, and its setup probe calls each family's ``load_model``.
A rename in src/ would drop a span or fail the probe without any other
test noticing; these tests read bench/ and change nothing there."""

import importlib.util
from pathlib import Path

import polyseg
import polyseg.cli  # noqa: F401 - the traced run wraps cli functions too

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_exists():
    for module, attr, *_ in _layers().WRAPPED:
        assert callable(getattr(getattr(polyseg, module), attr, None)), (module, attr)


def test_setup_probe_loaders_exist():
    for module in ("bpe", "morf", "crf"):
        assert callable(getattr(getattr(polyseg, module), "load_model", None)), module
