"""Parameter containers and the loss/noise algebra of the link."""

import dataclasses
import math
import pickle
import re
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import cvqkd

from cvqkd import (
    ChannelParams,
    SourceParams,
    Protocol,
    ProtocolParams,
    FiberModel,
    aggregated_noise_variance,
    distance_to_transmittance,
    transmittance_to_distance,
    excess_noise_from_fiber,
    channel_at_distance,
)
from cvqkd.estimation import ConfidenceBounds, SampleSet, VarianceModel
from cvqkd.keyrate import KeyRateReport
from cvqkd.model import Record, replace
from cvqkd.montecarlo import EmpiricalStats, TrialConfig, ValidationRow
from cvqkd.optimizer import ExponentialFit, OptimizationProblem, OptimizationResult


def test_aggregated_noise_variance_values():
    cases = [
        ((0.1, 0.001), 1.0, 1.001),
        ((0.5, 0.0), 0.5, 0.75),
        ((0.03, 0.0003), 0.1, 0.9733),
    ]
    for (T, veps), v_s, expected in cases:
        got = aggregated_noise_variance(ChannelParams(T, veps), SourceParams(v_s))
        assert got == pytest.approx(expected, abs=1e-12)


def test_aggregated_noise_variance_coherent_is_one_plus_veps():
    for T in (0.0, 0.25, 1.0):
        got = aggregated_noise_variance(ChannelParams(T, 0.02), SourceParams(1.0))
        assert got == pytest.approx(1.02, abs=1e-15)


def test_aggregated_noise_variance_affine_in_veps():
    # the map veps -> V_N has unit slope; probe with a finite difference
    ch0 = ChannelParams(0.37, 0.004)
    ch1 = ChannelParams(0.37, 0.004 + 1e-6)
    src = SourceParams(0.6)
    diff = aggregated_noise_variance(ch1, src) - aggregated_noise_variance(ch0, src)
    assert diff == pytest.approx(1e-6, rel=1e-6)


def test_aggregated_noise_variance_double_values():
    cases = [
        ((0.0, 0.01), 1.0, 3.0, 1.01),
        ((0.5, 0.0), 1.0, 3.0, 2.5),
        ((0.03, 0.0003), 0.5, 3.0, 1.0753),
    ]
    for (T, veps), v_s, v1, expected in cases:
        got = aggregated_noise_variance(ChannelParams(T, veps),
                                        SourceParams(v_s), v1)
        assert got == pytest.approx(expected, abs=1e-12)


def test_double_noise_with_no_key_displacement_matches_single():
    ch = ChannelParams(0.42, 0.007)
    src = SourceParams(0.3)
    assert aggregated_noise_variance(ch, src, 0.0) == pytest.approx(
        aggregated_noise_variance(ch, src), abs=1e-15)


def test_distance_to_transmittance_values():
    assert distance_to_transmittance(50.0) == pytest.approx(0.1, abs=1e-15)
    assert distance_to_transmittance(76.0) == pytest.approx(
        0.03019951720402016, abs=1e-15)
    assert distance_to_transmittance(0.0) == 1.0


def test_transmittance_to_distance_values():
    assert transmittance_to_distance(0.3) == pytest.approx(
        26.143937264016877, abs=1e-9)
    assert transmittance_to_distance(0.1) == pytest.approx(50.0, abs=1e-9)


def test_distance_round_trip():
    fiber = FiberModel()
    for k in range(61):
        d = 5.0 * k
        back = transmittance_to_distance(distance_to_transmittance(d, fiber), fiber)
        assert back == pytest.approx(d, abs=1e-9)


def test_excess_noise_from_fiber_values():
    assert excess_noise_from_fiber(0.03) == pytest.approx(3e-4, abs=1e-18)
    assert excess_noise_from_fiber(0.3, FiberModel(eps_ratio=0.1)) == pytest.approx(
        0.03, abs=1e-15)


def test_channel_at_distance_consistency():
    ch = channel_at_distance(50.0)
    assert ch.T == pytest.approx(0.1, abs=1e-15)
    assert ch.v_eps == pytest.approx(0.001, abs=1e-15)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(-0.1, 0.0)
    with pytest.raises(ValueError):
        ChannelParams(1.2, 0.0)
    with pytest.raises(ValueError):
        ChannelParams(0.5, -1e-9)
    with pytest.raises(ValueError):
        ChannelParams(float("nan"), 0.0)
    with pytest.raises(ValueError):
        ChannelParams(True, 0.0)             # a bool is not a transmittance
    assert ChannelParams(np.float32(0.5), np.float64(0.01)).T == 0.5


def test_source_params_validation():
    with pytest.raises(ValueError):
        SourceParams(0.0)
    with pytest.raises(ValueError):
        SourceParams(-1.0)
    with pytest.raises(ValueError):
        SourceParams(True)
    assert SourceParams(0.1).v_s == 0.1
    assert SourceParams(np.float32(0.5)).v_s == 0.5


def test_modulation_params_validation():
    # the modulation half of a Protocol: its kind and its variances
    with pytest.raises(ValueError):
        Protocol("triple", 1.0)
    with pytest.raises(TypeError):
        Protocol("single")                       # the key variance has no default
    with pytest.raises(ValueError):
        Protocol("single", -1.0)
    with pytest.raises(ValueError):
        Protocol("double", 1.0, v2=0.0)          # probe variance must be > 0
    assert Protocol("double", 0.0, v2=1.0).v == 0.0
    assert Protocol("double", 3.0).v2 == 10.0


def test_protocol_params_bookkeeping():
    proto = ProtocolParams(SourceParams(1.0), Protocol("single", 3.0, r=0.25),
                           N=1000)
    assert proto.n == pytest.approx(750.0)
    assert proto.m == pytest.approx(250.0)

    # the double modulation estimates on the whole block and burns nothing
    proto2 = ProtocolParams(SourceParams(1.0), Protocol("double", 3.0, 10.0),
                            N=1000)
    assert proto2.n == pytest.approx(1000.0)
    assert proto2.m == pytest.approx(1000.0)


def test_protocol_params_validation():
    mod = Protocol("single", 3.0)
    with pytest.raises(ValueError):
        ProtocolParams(SourceParams(1.0), mod, N=1)
    with pytest.raises(ValueError):
        ProtocolParams(SourceParams(1.0), Protocol("single", 3.0, r=1.5), N=100)
    with pytest.raises(ValueError):
        ProtocolParams(SourceParams(1.0), mod, N=100, beta=0.0)
    with pytest.raises(ValueError):
        ProtocolParams(SourceParams(1.0), mod, N=100, delta=1.0)
    with pytest.raises(ValueError):
        ProtocolParams(SourceParams(1.0), mod, N=100, delta_star=0.0)


_HUGE = 10**400  # an int beyond the float range


@pytest.mark.parametrize("build, message", [
    (lambda: ChannelParams(_HUGE), "transmittance must lie in [0, 1]"),
    (lambda: ChannelParams(0.5, _HUGE), "excess noise must be >= 0"),
    (lambda: SourceParams(_HUGE), "source variance must be > 0"),
    (lambda: Protocol("single", v=_HUGE), "key variance v must be >= 0"),
    (lambda: Protocol("double", 1.0, v2=_HUGE), "probe variance v2 must be > 0"),
    (lambda: ProtocolParams(SourceParams(1.0), Protocol("single", 3.0, r=0.5), N=_HUGE),
     "block size N must lie in the float range"),
], ids=["T", "v_eps", "v_s", "v", "v2", "N"])
def test_an_int_no_float_can_hold_is_refused_by_name(build, message):
    # refused by the field's name, not by an OverflowError from a float
    # conversion in the check or, for N, in .n later
    with pytest.raises(ValueError) as refused:
        build()
    assert str(refused.value) == f"{message}, got {_HUGE!r}"


def test_fiber_model_validation():
    with pytest.raises(ValueError):
        FiberModel(attenuation_db_per_km=0.0)
    with pytest.raises(ValueError):
        FiberModel(eps_ratio=-0.01)


# --------------------------------------------------------------------------
# the records against frozen dataclasses of the same fields


_SINGLE = ProtocolParams(SourceParams(1.0), Protocol("single", 1.0, r=0.2), 10**6)
_MODEL = VarianceModel(1e-4, 2e-4, ((1e-4, 2e-4),))
_REPORT = KeyRateReport(0.1, 0.2, 1.0, 0.7, 0.05, 0.29, 0.004, 0.29, 0.004,
                        8e5, 2e5, 10**6)

# each record class: arguments, a field changed to a good value, and one
# its check refuses (None where the class checks nothing)
_RECORDS = [
    (ChannelParams, (0.3, 0.003), {}, ("v_eps", 0.01), ("T", 2.0)),
    (SourceParams, (0.5,), {}, ("v_s", 0.2), ("v_s", -1.0)),
    (Protocol, ("modified", 2.0), {"r": 0.3}, ("r", 0.1), ("r", 1.5)),
    (ProtocolParams, (SourceParams(1.0), Protocol("single", 1.0, r=0.2)), {"N": 10**6},
     ("N", 10**7), ("N", 1)),
    (FiberModel, (), {"eps_ratio": 0.02}, ("eps_ratio", 0.0), ("attenuation_db_per_km", -1.0)),
    (SampleSet, (np.array([1.0, 2.0]), np.array([0.5, 1.5])), {}, ("B", np.array([0.1, 0.2])),
     ("B", np.array([1.0]))),
    (VarianceModel, (1e-4, 2e-4), {}, ("s_sq", 3e-4), ("sigma_sq", -1.0)),
    (ConfidenceBounds, (0.18, 0.004, 0.22, 0.0), {}, ("veps_low", 0.001), ("T_up", 0.1)),
    (KeyRateReport, (), {"K": 0.1, "K_inf": 0.2, "I_AB": 1.0, "chi_BE": 0.7, "Delta_n": 0.05,
                         "T_low": 0.29, "veps_up": 0.004, "T_eval": 0.29, "veps_eval": 0.004,
                         "n": 8e5, "m": 2e5, "N": 10**6}, ("K", 0.5), None),
    (TrialConfig, (ChannelParams(0.3, 0.003), SourceParams(1.0), Protocol("single", 3.0, r=0.5),
                   1000, 5, 7), {}, ("trials", 10), ("trials", 0)),
    (EmpiricalStats, (0.3, None, 0.003, None, _MODEL, None, None), {}, ("mean_T", 0.31), None),
    (ValidationRow, ("single", 0.3, 500.0, 0.1, 0.11, 0.1, 0.2, 0.21, 0.05, 0.01), {},
     ("T", 0.4), None),
    (OptimizationProblem, (ChannelParams(0.3, 0.003), _SINGLE), {}, ("free", ("v",)),
     ("free", ("v2",))),
    (OptimizationResult, ({"v": 1.0, "r": 0.2}, 0.1, _REPORT, "ok", 10, Counter(), 2, True), {},
     ("status", "no_positive_rate"), None),
    (ExponentialFit, (1.0, 0.02, (30.0, 150.0), 0.01), {}, ("kappa", 0.03), None),
]


def _dataclass_twin(cls):
    """A frozen dataclass with ``cls``'s fields, defaults, check and properties."""
    spec = [(name, object, dataclasses.field(default=vars(cls)[name]))
            if name in vars(cls) else (name, object) for name in cls.__annotations__]
    methods = {key: value for key, value in vars(cls).items()
               if key == "__post_init__" or isinstance(value, property)}
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True, namespace=methods)


def _outcome(act):
    """What ``act()`` returns, or the type and text of what it raises."""
    try:
        return act()
    except Exception as exc:
        return type(exc), str(exc)


def test_the_record_table_holds_every_record_class():
    assert {entry[0] for entry in _RECORDS} == set(Record.__subclasses__())
    assert len(_RECORDS) == 15


@pytest.mark.parametrize("cls, args, kwargs, change, bad", _RECORDS,
                         ids=[entry[0].__name__ for entry in _RECORDS])
def test_record_behaves_as_a_frozen_dataclass(cls, args, kwargs, change, bad):
    twin = _dataclass_twin(cls)
    record, reference = cls(*args, **kwargs), twin(*args, **kwargs)
    assert repr(record) == repr(reference)
    # the field dict, in field order
    assert list(vars(record)) == [field.name for field in dataclasses.fields(reference)]
    # equal to an equal record, unequal to a record of another class
    assert record == cls(*args, **kwargs) and reference == twin(*args, **kwargs)
    assert not record != cls(*args, **kwargs)
    assert record != reference and reference != record and not record == reference
    assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(reference))
    fields = list(cls.__annotations__)
    first = fields[0]
    for act in (lambda obj: setattr(obj, first, None), lambda obj: delattr(obj, first),
                lambda obj: setattr(obj, "other", None)):
        refused, expected = _outcome(lambda: act(record)), _outcome(lambda: act(reference))
        assert issubclass(expected[0], AttributeError)
        assert refused == (AttributeError, expected[1])
    # a field named twice, an unknown field, one argument too many, a
    # required field left out: the dataclass's TypeError, word for word
    values = [getattr(record, name) for name in fields]
    calls = [((values[0],), {first: values[0]}),
             ((), {**dict(zip(fields, values)), "bogus": 1}), ((*values, None), {})]
    if not all(name in vars(cls) for name in fields):
        calls.append(((), {}))
    for call_args, call_kwargs in calls:
        refused = _outcome(lambda: cls(*call_args, **call_kwargs))
        assert refused[0] is TypeError
        assert refused == _outcome(lambda: twin(*call_args, **call_kwargs))
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is cls and repr(restored) == repr(record)
    assert vars(restored).keys() == vars(record).keys()
    # replace builds a new record, so its check runs again
    name, value = change
    assert repr(replace(record, **{name: value})) == repr(
        dataclasses.replace(reference, **{name: value}))
    assert _outcome(lambda: replace(record, bogus=1))[0] is TypeError
    if bad is not None:
        name, value = bad
        refused = _outcome(lambda: replace(record, **{name: value}))
        assert refused[0] is ValueError
        assert refused == _outcome(lambda: dataclasses.replace(reference, **{name: value}))


# --------------------------------------------------------------------------
# package exports


def test_all_names_resolve_to_non_module_objects():
    assert len(set(cvqkd.__all__)) == len(cvqkd.__all__)
    for name in cvqkd.__all__:
        assert not isinstance(getattr(cvqkd, name), types.ModuleType), name


def test_all_is_the_readme_api_list():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    api = readme.split("## Python API", 1)[1].split("\n## ", 1)[0]
    listed = []
    for item in re.findall(r"^- `\w+`:(.*?)(?=^- |\Z)", api, re.M | re.S):
        listed += re.findall(r"`(\w+)`", item)
    assert listed == cvqkd.__all__
