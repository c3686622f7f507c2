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


LONG = 10**5000     # past Python's 4,300-digit int-to-str limit
HALT = isa.Instruction("HALT")


@pytest.mark.parametrize("trigger,message", [
    (lambda: isa.validate(isa.Program([isa.Instruction("SLD", d=1, addr=LONG), HALT]),
                          CoreConfig()),
     "instr 0 (SLD): address (+1 words) outside data memory of 4096"),
    (lambda: core.run(isa.Program([isa.Instruction("SLD", d=1, addr=LONG), HALT]),
                      CoreConfig()),
     "instr 0 (SLD): address (+1 words) outside data memory of 4096"),
    (lambda: isa.validate(isa.Program([isa.Instruction("SMOV", d=LONG, a=1), HALT]),
                          CoreConfig()),
     "instr 0 (SMOV): scalar register index out of range (n_sregs=16)"),
    (lambda: isa.validate(isa.Program([isa.Instruction("JMP", target=LONG), HALT]),
                          CoreConfig()),
     "instr 0 (JMP): branch target out of range"),
    (lambda: isa.validate(isa.Program([isa.Instruction("SMOV", d=[LONG], a=1), HALT]),
                          CoreConfig()),
     "instr 0 (SMOV): sd operand is not an int"),
    (lambda: isa.validate(isa.Program([isa.Instruction(LONG), HALT]), CoreConfig()),
     "instr 0: unknown opcode"),
    (lambda: isa.disassemble(isa.Program([HALT], [(LONG, [])])),
     ".data: address too long to print"),
    (lambda: isa.disassemble(isa.Program([isa.Instruction("SLD", d=1, addr=LONG)])),
     "instr 0 (SLD): addr operand too long to print"),
    (lambda: isa.disassemble(isa.Program([isa.Instruction("SMOV", d=1, a=LONG)])),
     "instr 0 (SMOV): sa operand too long to print"),
    (lambda: isa.disassemble(isa.Program([isa.Instruction("JMP", target=LONG)])),
     "instr 0 (JMP): label operand too long to print"),
    (lambda: isa.disassemble(isa.Program([isa.Instruction("SMOV", d=[LONG], a=1)])),
     "instr 0 (SMOV): sd operand is not an int"),
    (lambda: CoreConfig(n_add=[LONG]), "n_add must be >= 0: not an int"),
    (lambda: CoreConfig(enable_converter=[LONG]), "enable_converter must be a bool"),
    (lambda: CoreConfig(clock_mhz=[LONG]),
     "clock_mhz must be finite and > 0: not an int or float"),
    (lambda: Calibration(c_add=[LONG]),
     "c_add must be finite and non-negative: not an int or float"),
    (lambda: resources.estimate_tiled(kernel.KERNEL, -LONG), "replication must be >= 1"),
    (lambda: dse.throughput_projection(-LONG, 1, 1, 1.0), "latency and slices must be >= 1"),
    (lambda: dse.throughput_projection(1, 1, -LONG, 1.0), "budget below one core"),
    (lambda: tiled_latency(kernel.KERNEL, CoreConfig(), barrier_cost=-LONG),
     "barrier cost must be >= 0"),
    (lambda: kernel.default_layout(-LONG), "vector length must be >= 1"),
    (lambda: kernel.checked_layout(10**4300 - 1, 4096),
     "layout needs more words than memory has"),
], ids=["validate-address", "run-address", "validate-register", "validate-target",
        "validate-operand", "validate-opcode", "disassemble-data", "disassemble-address",
        "disassemble-register", "disassemble-target", "disassemble-operand",
        "core-field", "core-converter", "core-clock", "calibration-field",
        "replication", "projection-latency", "projection-budget", "barrier",
        "layout-empty", "layout-overflow"])
def test_number_too_long_to_print_is_left_out(trigger, message):
    """A number past the digit limit is left out of its message, which is
    a ValidationError, never Python's bare ValueError for the digit limit."""
    try:
        diagnostics = trigger()     # isa.validate returns its diagnostics
    except ValidationError as exc:
        diagnostics = exc.diagnostics
    assert diagnostics == [message]


BIG = 10**400       # an int past the float range, within the digit limit
BIG_MUL = Calibration(c_mul=BIG)
LIST_OP = isa.Program([isa.Instruction(["x"]), HALT])
SLICES = ("slice count of 'mul_units' is not finite: the unit count or its product "
          "with c_mul overflows a float")


@pytest.mark.parametrize("trigger,message", [
    (lambda: dse.throughput_projection(1, 1, 1, BIG),
     "latency, core count, clock or call rate exceeds the float range"),
    (lambda: resources.estimate_vector(CoreConfig(), BIG_MUL), SLICES),
    (lambda: resources.estimate_sequential(BIG_MUL), SLICES),
    (lambda: resources.estimate_tiled(kernel.KERNEL, 1, BIG_MUL), SLICES),
    (lambda: dse.sweep(kernel.emit_program(24), CoreConfig(), [(1, 1, 1)], BIG_MUL), SLICES),
    (lambda: dse.amdahl(1.0, BIG), "overall speedup exceeds the float range"),
    (lambda: core.run(LIST_OP, CoreConfig()), "instr 0: unknown opcode ['x']"),
    (lambda: isa.validate(LIST_OP, CoreConfig()), "instr 0: unknown opcode ['x']"),
    (lambda: isa.disassemble(LIST_OP), "instr 0: unknown opcode ['x']"),
    (lambda: dse.sweep(LIST_OP, CoreConfig(), [(1, 1, 1)]),
     "config 1-1-1: instr 0: unknown opcode ['x']"),
], ids=["projection-clock", "vector-slices", "sequential-slices", "tiled-slices",
        "sweep-slices", "amdahl", "run-opcode", "validate-opcode",
        "disassemble-opcode", "sweep-opcode"])
def test_int_past_float_range_or_unhashable_opcode_is_one_message(trigger, message):
    """A range check compares, so an int past the float range is judged as
    any number is, and an opcode of any type that is not a mnemonic is an
    unknown opcode: never a bare OverflowError or TypeError."""
    try:
        diagnostics = trigger()     # isa.validate returns its diagnostics
    except ValidationError as exc:
        diagnostics = exc.diagnostics
    assert diagnostics == [message]


NAN = float("nan")


@pytest.mark.parametrize("trigger,message", [
    (lambda: dse.throughput_projection(1, 1, 1, "100"), "clock '100' MHz must be finite and > 0"),
    (lambda: dse.throughput_projection(1, 1, 1, None), "clock None MHz must be finite and > 0"),
    (lambda: dse.throughput_projection("2", 1, 1, 1.0),
     "latency ('2') and slices (1) must be >= 1"),
    (lambda: dse.throughput_projection(NAN, 1, 1, 1.0),
     "latency (nan) and slices (1) must be >= 1"),
    (lambda: dse.throughput_projection(1, NAN, 1, 1.0),
     "latency (1) and slices (nan) must be >= 1"),
    (lambda: dse.throughput_projection(True, 1, 1, 1.0),
     "latency (True) and slices (1) must be >= 1"),
    (lambda: dse.throughput_projection(1, 1, "9", 1.0), "budget '9' below one core (1 slices)"),
    (lambda: dse.throughput_projection(1, 1, NAN, 1.0), "budget nan below one core (1 slices)"),
    (lambda: dse.amdahl("0.5", 2), "fraction must be in [0, 1]"),
    (lambda: dse.amdahl(0.5, None), "kernel speedup must be >= 1"),
    (lambda: core.waves("a", 1), "waves() requires positive element and unit counts"),
    (lambda: kernel.default_layout("a"), "vector length 'a' must be >= 1"),
    (lambda: kernel.checked_layout(24, "4096"), "layout needs 264 words, memory has '4096'"),
    (lambda: tiled_latency(kernel.KERNEL, CoreConfig(), barrier_cost="1"),
     "barrier cost '1' must be >= 0"),
    (lambda: resources.estimate_tiled(kernel.KERNEL, "2"), "replication '2' must be >= 1"),
], ids=["projection-clock-str", "projection-clock-none", "projection-latency-str",
        "projection-latency-nan", "projection-slices-nan", "projection-latency-bool",
        "projection-budget-str", "projection-budget-nan", "amdahl-fraction",
        "amdahl-speedup", "waves", "layout-length", "layout-memory", "barrier",
        "replication"])
def test_non_number_or_nan_gets_its_range_error(trigger, message):
    """A library number is a real, an int or a float but not a bool; any
    other value, or a NaN, fails that argument's range test, never with a
    bare TypeError."""
    with pytest.raises(ValidationError) as exc:
        trigger()
    assert exc.value.diagnostics == [message]


def test_float_counts_stay_accepted():
    assert core.waves(2.5, 1) == 3.0
