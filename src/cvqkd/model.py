"""Parameter containers and loss/noise algebra for a Gaussian CV-QKD link.

Every variance in this package is expressed in shot-noise units: the
quadrature variance of the vacuum equals 1. A quadrature of variance ``V``
sent through a channel of transmittance ``T`` with excess noise ``v_eps``
arrives with variance ``T*V + (1 - T) + v_eps``.

The containers are frozen :class:`Record` objects that validate on
construction, so a value that made it into one of them can be trusted
downstream; :func:`replace` copies one with fields changed, checked anew.
"""

from __future__ import annotations

import math
import numbers

SINGLE = "single"
DOUBLE = "double"
MODIFIED = "modified"
KINDS = (SINGLE, DOUBLE, MODIFIED)

# Default error budgets: two-sided significance of the parameter confidence
# region, and the failure/smoothing budget of the finite-size penalty.
DEFAULT_DELTA = 1e-10
DEFAULT_DELTA_STAR = 1e-10
DEFAULT_BETA = 0.95


def _require(condition: bool, message: str) -> None:
    # for the records and the public wrappers; the scalar rate cores
    # raise inline, so that a point that passes costs them no call here
    # and no formatted message
    if not condition:
        raise ValueError(message)


def _finite(x) -> bool:
    # the type check at the public door: any real scalar, numpy's included,
    # that a float can hold, but not a bool. The scalar rate cores compare
    # values only, with math.isfinite, on what this has let through.
    if not isinstance(x, float) and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int, or a fraction, beyond the float range
        return False


def _whole(x, floor: int) -> bool:
    """Whether ``x`` is an int, and not a bool, of at least ``floor``."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= floor


def _require_count(x, floor: int, what: str) -> None:
    _require(_whole(x, floor), f"{what} must be an integer >= {floor}, got {x!r}")
    _require(_finite(x), f"{what} must lie in the float range, got {x!r}")


def _require_beta(beta) -> None:
    _require(_finite(beta) and 0.0 < beta <= 1.0,
             f"reconciliation efficiency must lie in (0, 1], got {beta!r}")


class Record:
    """Frozen record: the class's annotations are its fields, its class
    attributes their defaults, and ``__post_init__`` checks it. Replaces
    ``dataclass(frozen=True)``, whose import slowed every cold query."""

    def __init_subclass__(cls):
        fields = cls._fields = tuple(cls.__annotations__)
        defaults = {name: vars(cls)[name] for name in fields if name in vars(cls)}
        # one plain __init__ per class, written out as dataclass writes it: a
        # generic *args/**kwargs one made a record 0.4-2.5 us slower to build.
        # It sets the fields one by one, since a __dict__ written whole slows
        # every later read of the record.
        params = "".join(f", {name}" + (f"=_d[{name!r}]" if name in defaults else "")
                         for name in fields)
        body = "".join(f"\n    _set(self, {name!r}, {name})" for name in fields)
        namespace = {"_set": object.__setattr__, "_d": defaults}
        exec(f"def __init__(self{params}):{body}\n    self.__post_init__()", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{key}={value!r}" for key, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def replace(record: Record, /, **changes) -> Record:
    """``record`` with ``changes`` to its fields: a new record, checked anew."""
    return type(record)(**{**dict(zip(record._fields, record._values())), **changes})


class ChannelParams(Record):
    """Lossy bosonic channel: transmittance plus additive excess noise."""

    T: float
    v_eps: float = 0.0

    def __post_init__(self):
        _require(_finite(self.T) and 0.0 <= self.T <= 1.0,
                 f"transmittance must lie in [0, 1], got {self.T!r}")
        _require(_finite(self.v_eps) and self.v_eps >= 0.0,
                 f"excess noise must be >= 0, got {self.v_eps!r}")


class SourceParams(Record):
    """Quadrature variance of the sender's source in the modulated direction.

    ``v_s = 1`` is a coherent source; ``v_s < 1`` means the modulated
    quadrature is squeezed (the conjugate one then carries ``1/v_s``).
    """

    v_s: float = 1.0

    def __post_init__(self):
        _require(_finite(self.v_s) and self.v_s > 0.0,
                 f"source variance must be > 0, got {self.v_s!r}")


class Protocol(Record):
    """One channel-estimation scheme and its parameters.

    ``single`` sends one displacement of variance ``v`` that carries key
    and, on the disclosed fraction ``r`` of the block, probes the channel.
    ``double`` adds a public probe displacement of variance ``v2`` to the
    key displacement ``v`` on every sample and discloses nothing extra, so
    ``r`` is 0. ``modified`` is the double scheme that also reveals the key
    displacement on the first ``r * N`` samples.
    """

    kind: str
    v: float
    v2: float = 10.0
    r: float = 0.0

    def __post_init__(self):
        _require(self.kind in KINDS,
                 f"scheme kind must be one of {', '.join(map(repr, KINDS))}, got {self.kind!r}")
        _require(_finite(self.v) and self.v >= 0.0,
                 f"key variance v must be >= 0, got {self.v!r}")
        _require(_finite(self.v2) and self.v2 > 0.0,
                 f"probe variance v2 must be > 0, got {self.v2!r}")
        _require(_finite(self.r) and 0.0 <= self.r <= 1.0,
                 f"disclosed fraction r must lie in [0, 1], got {self.r!r}")
        _require(self.kind != DOUBLE or self.r == 0.0,
                 "the double scheme discloses no extra samples; r must be 0")


class ProtocolParams(Record):
    """Everything the finite-size rate needs besides the channel itself.

    The key is distilled from the ``n = (1 - r) * N`` samples the protocol
    does not disclose.
    """

    source: SourceParams
    protocol: Protocol
    N: int
    beta: float = DEFAULT_BETA
    delta: float = DEFAULT_DELTA
    delta_star: float = DEFAULT_DELTA_STAR

    def __post_init__(self):
        _require_count(self.N, 2, "block size N")
        _require_beta(self.beta)
        _require(_finite(self.delta) and 0.0 < self.delta < 1.0,
                 f"confidence budget delta must lie in (0, 1), got {self.delta!r}")
        _require(_finite(self.delta_star) and 0.0 < self.delta_star < 1.0,
                 f"penalty budget delta_star must lie in (0, 1), got {self.delta_star!r}")

    @property
    def n(self) -> float:
        """Samples left for key distillation."""
        return (1.0 - self.protocol.r) * self.N

    @property
    def m(self) -> float:
        """Samples consumed by channel estimation.

        The single scheme discloses a subset; the double and modified
        schemes estimate on the whole block because the probe displacement
        is public anyway.
        """
        if self.protocol.kind == SINGLE:
            return self.protocol.r * self.N
        return float(self.N)


class FiberModel(Record):
    """Distance-to-channel map for standard telecom fiber."""

    attenuation_db_per_km: float = 0.2
    eps_ratio: float = 0.01  # excess noise as a fraction of the transmittance

    def __post_init__(self):
        _require(_finite(self.attenuation_db_per_km) and self.attenuation_db_per_km > 0.0,
                 f"attenuation must be > 0 dB/km, got {self.attenuation_db_per_km!r}")
        _require(_finite(self.eps_ratio) and self.eps_ratio >= 0.0,
                 f"eps_ratio must be >= 0, got {self.eps_ratio!r}")


# --------------------------------------------------------------------------
# noise algebra


def aggregated_noise_variance(channel: ChannelParams, source: SourceParams,
                              v_withheld: float = 0.0) -> float:
    """Receiver-side variance of everything except the revealed modulation.

    That is the vacuum share, the excess noise, the transmitted source
    fluctuation and a withheld displacement of variance ``v_withheld``
    (the key displacement when only the probe is revealed):
    ``1 + v_eps + T * (v_withheld + v_s - 1)``.
    """
    return _noise_variance(channel.T, channel.v_eps, source.v_s, v_withheld)


def _noise_variance(T: float, v_eps: float, v_s: float, v_withheld: float) -> float:
    return 1.0 + v_eps + T * (v_withheld + v_s - 1.0)


def distance_to_transmittance(distance_km: float, fiber: FiberModel = FiberModel()) -> float:
    """Transmittance of ``distance_km`` of fiber."""
    _require(_finite(distance_km) and distance_km >= 0.0,
             f"distance must be >= 0 km, got {distance_km!r}")
    return 10.0 ** (-fiber.attenuation_db_per_km * distance_km / 10.0)


def transmittance_to_distance(T: float, fiber: FiberModel = FiberModel()) -> float:
    """Fiber length whose transmittance is ``T``. Inverse of
    :func:`distance_to_transmittance` on (0, 1].
    """
    _require(_finite(T) and 0.0 < T <= 1.0,
             f"transmittance must lie in (0, 1], got {T!r}")
    return -10.0 * math.log10(T) / fiber.attenuation_db_per_km


def excess_noise_from_fiber(T: float, fiber: FiberModel = FiberModel()) -> float:
    """Excess noise of a fiber channel of transmittance ``T``.

    Modeled as proportional to the transmittance: noise picked up at the
    sender side is attenuated along with the signal.
    """
    _require(_finite(T) and 0.0 <= T <= 1.0,
             f"transmittance must lie in [0, 1], got {T!r}")
    return T * fiber.eps_ratio


def channel_at_distance(distance_km: float, fiber: FiberModel = FiberModel()) -> ChannelParams:
    """Channel parameters of a fiber link of the given length."""
    T = distance_to_transmittance(distance_km, fiber)
    return ChannelParams(T, excess_noise_from_fiber(T, fiber))
