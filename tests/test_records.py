"""Record classes against their dataclasses twins (reference.dataclass_twin):
the same construction, argument error types, defaults, repr, equality,
hashing, frozen assignment errors and __post_init__ checks, over drawn
field values."""

import dataclasses
import inspect
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from parvqe import harness
from parvqe.circuits import MeasurementSetting, build_circuit
from parvqe.device import DeviceTopology, PairSelection
from parvqe.executor import CostModel, compile_pairs, plan_batches
from parvqe.harness import Command, ExperimentConfig, RunRecord
from parvqe.hubbard import AnsatzParams, HubbardParams, hamiltonian
from parvqe.mitigation import ConfusionMatrix
from parvqe.optimizers import MgdConfig, OptTrace, SpsaConfig
from parvqe.records import Record
from parvqe.simulator import PairNoiseSpec, ShotHistogram
from reference import RECORD_OPTIONS, dataclass_twin


def _specimens() -> dict:
    """A valid instance of every record class."""
    topology = DeviceTopology(qubits=(0, 1, 2), edges=((0, 1, 0.95), (1, 2, 0.9)),
                              readout={0: (0.01, 0.02), 1: (0.02, 0.01)}, name="chip")
    table = compile_pairs(topology, [(0, 1)])
    h = hamiltonian()
    records = [
        build_circuit(AnsatzParams(0.3, 0.4), MeasurementSetting.ONSITE).gates[0],
        build_circuit(AnsatzParams(0.3, 0.4), MeasurementSetting.HOPPING),
        topology, PairSelection(((0, 1),)), table,
        plan_batches(table, [[np.arange(1)]], 100), CostModel(0.01, 0.001, 1e-6, 1e-7),
        ExperimentConfig(seed=1, out_dir=Path("out")),
        RunRecord("vqe", {"seed": 1}, {"pairs": 1}, ["summary.csv"]),
        Command(harness.cmd_vqe, "full runs", ("shots",), {"shots": 10}),
        HubbardParams(1.0, 2.0), AnsatzParams(0.3, 0.4), h,
        ConfusionMatrix(np.eye(4)), SpsaConfig(5), MgdConfig(5),
        OptTrace(np.zeros(2), np.ones(2), np.zeros(2), np.zeros(2), None, None,
                 AnsatzParams(0.1, 0.2)),
        PairNoiseSpec(0.99, ((0.01, 0.02), (0.03, 0.01)), 0.01),
        ShotHistogram((1, 2, 3, 4), 10),
    ]
    return {type(record): record for record in records}


SPECIMENS = _specimens()
TWINS = {cls: dataclass_twin(cls) for cls in RECORD_OPTIONS}
# values that break a field's type or its __post_init__ check
JUNK = [None, -1, 0, 2, 0.5, 1.5, math.nan, -math.inf, "", "RX", (0,), (0, 1), ((0.6, 0.1),),
        Path("missing.json")]


def outcome(fn):
    """("ok", fn()) or the name and message of what fn raised."""
    try:
        return "ok", fn()
    except Exception as exc:   # compared between a record and its twin
        return type(exc).__name__, str(exc), isinstance(exc, AttributeError)


def binds(cls, args, kwargs) -> bool:
    """Whether args and kwargs fit the signature of cls's twin (or of cls, a twin)."""
    try:
        inspect.signature(TWINS.get(cls, cls)).bind(*args, **kwargs)
    except TypeError:
        return False
    return True


def behaviour(cls, args, kwargs) -> list:
    """Everything observable of cls(*args, **kwargs), as comparable values:
    an argument error by its type, a __post_init__ error by type and message."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        made = outcome(lambda: cls(*args, **kwargs))
        if made[0] != "ok":
            return [made if binds(cls, args, kwargs) else made[0]]
        record, again = made[1], cls(*args, **kwargs)
    names = list(cls.__dict__["__annotations__"])
    other = type("Other", (cls,), {})   # same fields and values, another class
    copy = object.__new__(other)
    copy.__dict__.update(record.__dict__)
    hashed = outcome(lambda: hash(record))
    return [
        repr(record),
        outcome(lambda: record == again), outcome(lambda: record != again),
        record == record, record == copy, copy == record, record == object(),
        "identity" if hashed == ("ok", object.__hash__(record)) else hashed,
        outcome(lambda: setattr(record, names[0], 1)),
        outcome(lambda: setattr(record, "not_a_field", 1)),
        outcome(lambda: delattr(record, names[-1])),
    ]


def calls(cls):
    """(args, kwargs) for cls: each field the specimen's value or junk,
    passed by position or keyword or omitted, sometimes with one argument
    too many, an unknown keyword or a keyword that repeats a position."""
    names = list(cls.__dict__["__annotations__"])
    specimen = SPECIMENS[cls]
    values = st.fixed_dictionaries({name: st.sampled_from([getattr(specimen, name), *JUNK])
                                    for name in names})

    def build(values, n_positional, omitted, extra):
        args = [values[name] for name in names[:n_positional]]
        kwargs = {name: values[name] for name in names[n_positional:] if name not in omitted}
        if extra == "positional":
            args = [*values.values(), 0]
        elif extra == "unknown":
            kwargs["not_a_field"] = 0
        elif extra == "duplicate" and args:
            kwargs[names[0]] = args[0]
        return args, kwargs

    return st.builds(build, values, st.integers(0, len(names)), st.sets(st.sampled_from(names)),
                     st.sampled_from([None, "positional", "unknown", "duplicate"]))


CALLS = {cls: calls(cls) for cls in RECORD_OPTIONS}


@pytest.mark.parametrize("cls", list(RECORD_OPTIONS), ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_record_behaves_as_its_dataclass_twin(cls, data):
    args, kwargs = data.draw(CALLS[cls])
    assert behaviour(cls, args, kwargs) == behaviour(TWINS[cls], args, kwargs)


@pytest.mark.parametrize("cls", list(RECORD_OPTIONS), ids=lambda cls: cls.__name__)
def test_record_defaults_and_errors_match_the_twin(cls):
    twin, specimen = TWINS[cls], SPECIMENS[cls]
    names = list(cls.__dict__["__annotations__"])
    required = {f.name: getattr(specimen, f.name) for f in dataclasses.fields(twin)
                if f.default is f.default_factory is dataclasses.MISSING}
    # every default and factory fills what is omitted, as the twin's does
    assert behaviour(cls, [], required) == behaviour(twin, [], required)
    # a missing argument and an empty call fail alike
    for kwargs in ({}, dict(list(required.items())[1:])):
        assert behaviour(cls, [], kwargs) == behaviour(twin, [], kwargs)
    # class attributes: plain defaults stay on the class, factories do not
    for name in names:
        assert hasattr(cls, name) == hasattr(twin, name), name
        if hasattr(twin, name):
            assert getattr(cls, name) == getattr(twin, name)
    if RECORD_OPTIONS[cls].get("frozen"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{names[0]}'"):
            setattr(specimen, names[0], getattr(specimen, names[0]))


def test_every_record_class_has_a_twin():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)
    package = {cls for cls in subclasses(Record) if cls.__module__.startswith("parvqe.")}
    assert package == set(RECORD_OPTIONS) == set(SPECIMENS)


def test_record_methods_are_not_generated():
    # one __init__, __repr__, __eq__ and __hash__ shared by every record class
    for cls in RECORD_OPTIONS:
        for method in ("__init__", "__repr__"):
            assert getattr(cls, method) is getattr(Record, method)
        assert cls.__eq__ in (Record.__eq__, object.__eq__)
        assert cls.__hash__ in (Record.__hash__, object.__hash__, None)


def test_record_hooks_keep_working():
    # frozen writes in __post_init__, class attributes as defaults and
    # methods bound on the class all still work
    assert type(AnsatzParams(np.float64(0.5), 1).phi) is float
    assert ExperimentConfig.start == (0.6, 0.8) and not hasattr(ExperimentConfig, "calibration")
    original = RunRecord.write
    try:
        RunRecord.write = lambda self, path: "bound"
        assert RunRecord("c", {}, {}, []).write(None) == "bound"
    finally:
        RunRecord.write = original
