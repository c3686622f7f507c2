"""One exception type for rejected input, in every module.

A caller tells a rejected input (`ValidationError`, a `ValueError`) from a
simulation fault or timeout by type alone, and the CLI maps the first to
exit 1 and the others to exit 2.
"""

import importlib
import inspect
import pkgutil

import pytest

import vproc
from vproc import cli, core, dse, isa, kernel, resources
from vproc.archmodels import tiled_latency
from vproc.core import CoreConfig
from vproc.isa import ValidationError
from vproc.resources import Calibration


def test_three_exception_classes():
    defined = set()
    for info in pkgutil.iter_modules(vproc.__path__):
        module = importlib.import_module(f"vproc.{info.name}")
        defined |= {name for name, obj in inspect.getmembers(module, inspect.isclass)
                    if issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__}
    assert defined == {"ValidationError", "SimulationFault", "SimulationTimeout"}
    assert issubclass(ValidationError, ValueError)


@pytest.mark.parametrize("trigger", [
    lambda: isa.assemble("FOO"),
    lambda: kernel.checked_layout(400, 4096),
    lambda: kernel.checked_layout(0, 4096),
    lambda: resources.estimate_vector(CoreConfig(), Calibration(c_mul=1e308)),
    lambda: tiled_latency(kernel.KERNEL, CoreConfig(), barrier_cost=-1),
    lambda: dse.amdahl(2.0, 1.0),
    lambda: cli.parse_mix_spec(""),
    lambda: cli.parse_config_text("x"),
    lambda: CoreConfig(vec_len=0),
    lambda: Calibration(c_add=-1.0),
    lambda: resources.estimate_tiled(kernel.KERNEL, 0),
    lambda: core.waves(24, 0),
    lambda: CoreConfig(n_add=1.5),
    lambda: Calibration(c_add="350"),
], ids=["assembly", "layout-overflow", "layout-empty", "calibration",
        "barrier", "amdahl", "mix-spec", "config", "core-field",
        "calibration-field", "replication", "waves", "core-type",
        "calibration-type"])
def test_rejected_input_raises_validation_error(trigger):
    with pytest.raises(ValidationError) as exc:
        trigger()
    assert isinstance(exc.value, ValueError)
    assert exc.value.diagnostics and str(exc.value) == "; ".join(exc.value.diagnostics)
