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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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
    """An instance document is syntactically malformed."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


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
        locs = tuple(float(v) for v in self.locations)
        costs = tuple(float(v) for v in self.building_costs)
        _require(len(locs) == len(costs),
                 "locations and building_costs must have equal length")
        _require(len(locs) >= 1, "at least one facility is required")
        _require(all(math.isfinite(v) for v in locs),
                 "facility locations must be finite")
        _require(all(math.isfinite(c) for c in costs),
                 "building costs must be finite")
        for c in costs:
            if c <= 0.0:
                raise ValidationError("building cost must be > 0")
        order = sorted(range(len(locs)), key=lambda i: (locs[i], costs[i], i))
        object.__setattr__(self, "locations", tuple(locs[i] for i in order))
        object.__setattr__(self, "building_costs", tuple(costs[i] for i in order))
        object.__setattr__(self, "input_order", tuple(order))

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
        pos = tuple(float(v) for v in self.positions)
        _require(len(pos) >= 1, "at least one agent is required")
        _require(all(math.isfinite(v) for v in pos),
                 "agent positions must be finite")
        object.__setattr__(self, "positions", pos)

    @property
    def n(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class Assignment:
    """One 1-based facility index per agent, in agent order."""

    choices: tuple[int, ...]

    def __post_init__(self) -> None:
        raw = tuple(self.choices)
        _require(len(raw) >= 1, "assignment must cover at least one agent")
        for c in raw:
            # Bools are ints, and an integral float is still a float: reject both.
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
                raise ValidationError(f"facility indices must be integers, got {c!r}")
        ch = tuple(int(c) for c in raw)
        _require(all(c >= 1 for c in ch), "facility indices are 1-based (must be >= 1)")
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
        _require(len(self.choices) == profile.n,
                 "assignment length must equal the number of agents")
        _require(max(self.choices) <= env.m,
                 "facility index out of range for this environment")


@dataclass(frozen=True)
class Instance:
    environment: Environment
    profile: Profile
    name: str | None = None

    @property
    def n(self) -> int:
        return self.profile.n

    @property
    def m(self) -> int:
        return self.environment.m


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


def _as_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceParseError(f"{what} must be a number")
    return float(value)


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
        locations.append(_as_number(entry.get("location"), "facility location"))
        costs.append(_as_number(entry.get("building_cost"), "facility building_cost"))
    agents = doc.get("agents")
    if not isinstance(agents, list):
        raise InstanceParseError("'agents' must be an array")
    positions = [_as_number(v, "agent position") for v in agents]
    return Instance(Environment(tuple(locations), tuple(costs)),
                    Profile(tuple(positions)), name=name)


def _reject_constant(token: str) -> float:
    raise InstanceParseError(f"non-finite number {token!r} is not allowed")


def load_instance(path) -> Instance:
    """Read and validate an instance file.

    Raises :class:`InstanceParseError` for malformed documents and
    :class:`ValidationError` for documents that parse but violate a domain
    invariant. I/O failures propagate as ``OSError``.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InstanceParseError(f"invalid instance file: {exc}") from exc
    return instance_from_dict(doc)


def dumps_instance(instance: Instance) -> str:
    """Serialize deterministically: same instance, byte-identical text."""
    return json.dumps(instance_to_dict(instance), indent=2) + "\n"


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
    _require(n >= 1, "n must be ≥ 1")
    _require(m >= 1, "m must be ≥ 1")
    _require(seed >= 0, f"seed must be ≥ 0, got {seed}")
    plo, phi = (float(v) for v in position_range)
    clo, chi = (float(v) for v in cost_range)
    _require(all(math.isfinite(v) for v in (plo, phi, clo, chi)),
             "invalid bounds: position and cost bounds must be finite")
    _require(plo <= phi and clo <= chi,
             "invalid bounds: lower bound must not exceed upper bound")
    _require(clo > 0.0, "invalid bounds: cost lower bound must be > 0")
    rng = np.random.default_rng(seed)
    positions = rng.uniform(plo, phi, size=n)
    locations = rng.uniform(plo, phi, size=m)
    costs = rng.uniform(clo, chi, size=m)
    return Instance(
        Environment(tuple(float(v) for v in locations),
                    tuple(float(v) for v in costs)),
        Profile(tuple(float(v) for v in positions)),
        name=f"gen-n{n}-m{m}-s{seed}",
    )
