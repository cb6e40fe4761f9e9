"""Domain types and instance I/O for one-dimensional facility cost-sharing games.

An instance pairs an :class:`Environment` (facility locations plus strictly
positive building costs, each cost split equally among the facility's users)
with a :class:`Profile` of agent positions on the same line.

Facilities are normalized to ascending location order at construction (ties
broken by ascending cost, then input order); the permutation back to the
caller's ordering is recorded so results can be reported against the original
file. Agents are never reordered here: algorithms that need sorted agents sort
internally and track the permutation themselves.

All types are immutable after construction and safe to share between threads.
A solved :class:`Instance` object also holds the block DP's derived, read-only
sorted view of its agents, outside its fields: it takes no part in equality,
hashing, ``repr``, copies or pickles, and is freed with the object.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

__all__ = [
    "ValidationError",
    "InstanceParseError",
    "Environment",
    "Profile",
    "Assignment",
    "Instance",
    "instance_from_dict",
    "instance_to_dict",
    "dumps_instance",
    "load_instance",
    "save_instance",
    "generate_instance",
]


class ValidationError(ValueError):
    """A domain invariant is violated; the message names the invariant."""


class InstanceParseError(ValueError):
    """An outside JSON document (an instance, a mechanism spec or a start
    assignment) is not strict UTF-8 JSON, or an instance document has the
    wrong shape. The message starts with the document's source."""


# The largest cost scale an entry point may price (see _check_scale).
_SCALE_LIMIT = sys.float_info.max / 4


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _reals(values, what: str) -> tuple[float, ...]:
    """``values`` as floats, if each is a real: a :class:`numbers.Real` that
    is not a bool, whose float is finite (an int too large for a float is
    not). Anything else raises :class:`ValidationError` naming ``what``."""
    reals = tuple(values)
    if not {float}.issuperset(map(type, reals)):
        for v in reals:
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValidationError(f"{what} must be real numbers, got {v!r}")
        try:
            reals = tuple(map(float, reals))
        except OverflowError:
            raise ValidationError(
                f"{what} must be finite, got an integer too large for a float") from None
    if not all(map(math.isfinite, reals)):
        raise ValidationError(f"{what} must be finite")
    return reals


def _integer(value, what: str, minimum: int) -> int:
    """``value`` as an int, if it is a count: a :class:`numbers.Integral`
    that is not a bool, at least ``minimum``. Anything else raises
    :class:`ValidationError` naming ``what``."""
    if type(value) is not int and (isinstance(value, bool)
                                   or not isinstance(value, numbers.Integral)):
        raise ValidationError(f"{what} must be an integer (only integers, got {value!r})")
    if value < minimum:
        raise ValidationError(f"{what} must be ≥ {minimum}, got {value}")
    return int(value)


def _agent_index(agent, n: int) -> int:
    """``agent`` as a 0-based index into ``n`` agents. It must be an integer
    by :func:`_integer`'s rule, else :class:`ValidationError`, and in
    ``0..n-1``, else ``IndexError``, as for a sequence."""
    agent = _integer(agent, "agent index", -math.inf)  # the range is checked below
    if not 0 <= agent < n:
        raise IndexError(f"agent index {agent} out of range for n={n}")
    return agent


def _check_scale(env: Environment, positions, n: int, what: str) -> None:
    """Raise :class:`ValidationError` naming ``what`` unless ``n`` agents at
    ``positions`` can be priced in ``env`` without overflowing a float.

    With ``X`` the largest magnitude among the locations and ``positions``
    and ``B`` the largest building cost, every distance is at most ``2X``,
    and every potential, social cost and distance sum over ``n`` agents is
    at most the cost scale ``S = n * (2X + B)``, which also bounds the sum
    of two locations. The largest intermediate the block DP and
    :func:`~facshare.equilibrium.is_pne` form is a DP candidate, a block's
    price plus a table entry: at most ``2S``. ``S`` must therefore stay at
    most a quarter of the largest float, which leaves a factor of two for
    rounding. The scan runs on builtins over the stored tuples: it is on
    every :func:`~facshare.equilibrium.is_pne` call.
    """
    locs = env.locations
    magnitude = max(-locs[0], locs[-1], -min(positions, default=0.0),
                    max(positions, default=0.0))
    scale = n * (2.0 * magnitude + max(env.building_costs))
    _require(scale <= _SCALE_LIMIT,
             f"{what}: cost scale n * (2 * max |coordinate| + max building cost) "
             f"= {scale!r} at n = {n} exceeds {_SCALE_LIMIT!r}, so its costs "
             f"would overflow a float")


@dataclass(frozen=True)
class Environment:
    """The facility side of the game board.

    ``locations`` and ``building_costs`` are aligned and sorted by location
    after construction. ``input_order[i]`` gives the position facility ``i+1``
    (1-based, sorted numbering) had in the caller's original ordering.
    """

    locations: tuple[float, ...]
    building_costs: tuple[float, ...]
    input_order: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        locs = _reals(self.locations, "facility locations")
        costs = _reals(self.building_costs, "building costs")
        _require(len(locs) == len(costs),
                 "locations and building_costs must have equal length")
        _require(len(locs) >= 1, "at least one facility is required")
        _require(min(costs) > 0.0, "building cost must be > 0")
        order = sorted(range(len(locs)), key=lambda i: (locs[i], costs[i], i))
        object.__setattr__(self, "locations", tuple(locs[i] for i in order))
        object.__setattr__(self, "building_costs", tuple(costs[i] for i in order))
        object.__setattr__(self, "input_order", tuple(order))
        _check_scale(self, (), 1, "environment")  # no instance could use it

    @property
    def m(self) -> int:
        return len(self.locations)

    @property
    def delta(self) -> float:
        """Distance between the two facilities (two-facility environments only)."""
        _require(self.m == 2, "delta requires exactly two facilities")
        return self.locations[1] - self.locations[0]

    def to_input_facility(self, facility: int) -> int:
        """Map a 1-based facility index back to the caller's original numbering."""
        return self.input_order[facility - 1] + 1


@dataclass(frozen=True)
class Profile:
    """Agent positions, kept in the caller's order."""

    positions: tuple[float, ...]

    def __post_init__(self) -> None:
        pos = _reals(self.positions, "agent positions")
        _require(len(pos) >= 1, "at least one agent is required")
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class Assignment:
    """One 1-based facility index per agent, in agent order."""

    choices: tuple[int, ...]

    def __post_init__(self) -> None:
        ch = tuple(_integer(c, "facility index", 1) for c in self.choices)
        _require(len(ch) >= 1, "assignment must cover at least one agent")
        object.__setattr__(self, "choices", ch)

    @classmethod
    def _trusted(cls, choices: list[int]) -> Assignment:
        """An assignment of ints >= 1 that the library built itself, taken
        without the entry checks of the public constructor."""
        self = object.__new__(cls)
        object.__setattr__(self, "choices", tuple(choices))
        return self

    @property
    def n(self) -> int:
        return len(self.choices)

    def validate_for(self, profile: Profile, env: Environment) -> None:
        """Raise :class:`ValidationError` unless the assignment covers the
        profile's agents with facilities of ``env``, and the profile and
        environment could form an :class:`Instance`."""
        self._covers(profile)
        _require(max(self.choices) <= env.m,
                 "facility index out of range for this environment")
        _check_scale(env, profile.positions, profile.n, "profile and environment")

    def _covers(self, profile: Profile) -> None:
        _require(len(self.choices) == profile.n,
                 "assignment length must equal the number of agents")


@dataclass(frozen=True)
class Instance:
    """An environment and a profile whose costs fit in a float: their cost
    scale ``n * (2X + B)`` is at most a quarter of the largest float (see
    :func:`_check_scale`, which derives the bound)."""

    environment: Environment
    profile: Profile
    name: str | None = None

    def __post_init__(self) -> None:
        _check_scale(self.environment, self.profile.positions, self.n,
                     f"instance {self.name!r}")

    @property
    def n(self) -> int:
        return self.profile.n

    @property
    def m(self) -> int:
        return self.environment.m

    def __getstate__(self) -> dict:
        # Copies and pickles carry the fields, not a solver's derived view.
        return {f.name: getattr(self, f.name) for f in fields(self)}


def instance_to_dict(instance: Instance) -> dict:
    doc: dict = {}
    if instance.name is not None:
        doc["name"] = instance.name
    doc["facilities"] = [
        {"location": loc, "building_cost": b}
        for loc, b in zip(instance.environment.locations,
                          instance.environment.building_costs)
    ]
    doc["agents"] = list(instance.profile.positions)
    return doc


def instance_from_dict(doc) -> Instance:
    if not isinstance(doc, dict):
        raise InstanceParseError("instance document must be an object")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise InstanceParseError("'name' must be a string")
    facilities = doc.get("facilities")
    if not isinstance(facilities, list):
        raise InstanceParseError("'facilities' must be an array")
    locations, costs = [], []
    for entry in facilities:
        if not isinstance(entry, dict):
            raise InstanceParseError("each facility must be an object")
        locations.append(entry.get("location"))
        costs.append(entry.get("building_cost"))
    agents = doc.get("agents")
    if not isinstance(agents, list):
        raise InstanceParseError("'agents' must be an array")
    return Instance(Environment(locations, costs), Profile(agents), name=name)


def _reject_constant(token: str) -> float:
    raise InstanceParseError(f"non-finite number {token!r} is not allowed")


def _read_json(source, text=None):
    """The value of the JSON document in the UTF-8 file at path ``source``,
    or in ``text`` given inline and named ``source`` (``--mech``): the one
    place that reads a document or parses JSON.

    Text that is not UTF-8 (inline, a lone surrogate: an argument byte that
    did not decode), not JSON, too deep to parse, or holding a ``NaN`` or
    ``Infinity`` literal raises :class:`InstanceParseError` starting with
    ``source``. I/O failures propagate as ``OSError``.
    """
    try:
        if text is None:
            text = Path(source).read_text(encoding="utf-8")
        else:
            text.encode("utf-8")
        return json.loads(text, parse_constant=_reject_constant)
    except (json.JSONDecodeError, UnicodeError, InstanceParseError, RecursionError) as exc:
        raise InstanceParseError(f"{source}: invalid JSON: {exc}") from exc


def load_instance(path) -> Instance:
    """Read and validate an instance file.

    Every location, building cost and agent position must be a real number:
    a JSON integer or float, not a bool, string or null, whose value is a
    finite float. Raises :class:`InstanceParseError` for text that is not
    UTF-8 JSON (nesting too deep to parse included), a document of the
    wrong shape and the ``NaN``/``Infinity`` literals, and
    :class:`ValidationError` for a value that is not a real number (a
    400-digit integer or an overflowing float literal included) and for any
    other violated invariant, such as a cost that is not positive or costs
    that overflow (see :class:`Instance`). Every such message starts with
    ``path``. I/O failures propagate as ``OSError``.
    """
    doc = _read_json(path)
    try:
        return instance_from_dict(doc)
    except (InstanceParseError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def dumps_instance(instance: Instance) -> str:
    """Serialize deterministically: same instance, byte-identical text."""
    return json.dumps(instance_to_dict(instance), indent=2, allow_nan=False) + "\n"


def save_instance(instance: Instance, path) -> None:
    Path(path).write_text(dumps_instance(instance), encoding="utf-8")


def generate_instance(n: int, m: int, seed: int,
                      position_range: tuple[float, float] = (0.0, 10.0),
                      cost_range: tuple[float, float] = (0.5, 5.0)) -> Instance:
    """Deterministic uniform random instance for a fixed seed.

    Agent positions and facility locations are drawn uniformly from
    ``position_range``, building costs from ``cost_range``. The default ranges
    are an artifact convention (the model itself puts no bounds on
    coordinates).
    """
    n, m = _integer(n, "n", 1), _integer(m, "m", 1)
    seed = _integer(seed, "seed", 0)
    plo, phi = _reals(position_range, "invalid bounds: position_range")
    clo, chi = _reals(cost_range, "invalid bounds: cost_range")
    _require(plo <= phi and clo <= chi,
             "invalid bounds: lower bound must not exceed upper bound")
    for (lo, hi), what in (((plo, phi), "position_range"), ((clo, chi), "cost_range")):
        _require(math.isfinite(hi - lo),
                 f"invalid bounds: {what} width {hi!r} - {lo!r} is not a finite float")
    _require(clo > 0.0, "invalid bounds: cost lower bound must be > 0")
    rng = np.random.default_rng(seed)
    positions = rng.uniform(plo, phi, size=n)
    locations = rng.uniform(plo, phi, size=m)
    costs = rng.uniform(clo, chi, size=m)
    return Instance(
        Environment(locations.tolist(), costs.tolist()),
        Profile(positions.tolist()),
        name=f"gen-n{n}-m{m}-s{seed}",
    )
