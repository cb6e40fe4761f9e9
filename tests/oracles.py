"""Independent reference computations for tests.

Everything here is a direct, unoptimized transcription of the cost
definitions. No code is shared with the library's vectorized or DP paths, so
these functions provide a second route for every value they check.
"""

import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

import facshare as fs
from facshare.mechanisms import AuditReport, Counterexample, _order_rule


def oracle_agent_cost(positions, choices, locations, building_costs, i):
    f = choices[i]
    users = sum(1 for c in choices if c == f)
    return abs(positions[i] - locations[f - 1]) + building_costs[f - 1] / users


def oracle_social_cost(positions, choices, locations, building_costs):
    return sum(
        oracle_agent_cost(positions, choices, locations, building_costs, i)
        for i in range(len(positions)))


def oracle_deviation_gain(positions, choices, locations, building_costs, i, g):
    """Agent ``i``'s saving when she alone switches to facility ``g``."""
    moved = list(choices)
    moved[i] = g
    return (oracle_agent_cost(positions, choices, locations, building_costs, i)
            - oracle_agent_cost(positions, moved, locations, building_costs, i))


def oracle_is_pne(positions, choices, locations, building_costs, tol):
    """First improving deviation ``(agent, facility, gain)``, scanning agents
    and then facilities in order; ``None`` for an equilibrium."""
    for i in range(len(positions)):
        for g in range(1, len(locations) + 1):
            if g != choices[i]:
                gain = oracle_deviation_gain(positions, choices, locations,
                                             building_costs, i, g)
                if gain > tol:
                    return i, g, gain
    return None


def oracle_best_response(positions, choices, locations, building_costs, i):
    """Facility minimizing agent ``i``'s cost when she alone moves; her own
    facility wins ties, then the smallest index."""
    costs = []
    for g in range(1, len(locations) + 1):
        moved = list(choices)
        moved[i] = g
        costs.append(oracle_agent_cost(positions, moved, locations,
                                       building_costs, i))
    if costs[choices[i] - 1] <= min(costs):
        return choices[i]
    return costs.index(min(costs)) + 1


def oracle_best_move(positions, choices, locations, building_costs, i):
    """Agent ``i``'s largest saving and the first facility giving it;
    ``(0.0, own facility)`` when no switch saves anything."""
    best, fac = 0.0, choices[i]
    for g in range(1, len(locations) + 1):
        if g != choices[i]:
            gain = oracle_deviation_gain(positions, choices, locations,
                                         building_costs, i, g)
            if gain > best:
                best, fac = gain, g
    return best, fac


def oracle_deviation_costs(positions, choices, locations, building_costs, agents):
    """Each listed agent's cost at each facility, the others fixed, with one
    load and one division per (agent, facility) cell: her own facility
    keeps its load, any other gains her."""
    idx = np.asarray(choices) - 1
    m = len(locations)
    users = np.bincount(idx, minlength=m) + (np.arange(m) != idx[agents, None])
    x = np.asarray(positions, dtype=float)[agents]
    return np.abs(x[:, None] - np.asarray(locations)) + np.asarray(building_costs) / users


def oracle_no_cross(positions, choices, locations):
    """First crossing ``(left_agent, right_agent)``, or ``None``. Agents are
    scanned in stable position order, one group of equal positions at a
    time, against the largest location held strictly to their left."""
    order = sorted(range(len(positions)), key=lambda i: positions[i])
    max_loc = -math.inf
    max_agent = -1
    idx = 0
    while idx < len(order):
        group_end = idx
        pos = positions[order[idx]]
        while group_end < len(order) and positions[order[group_end]] == pos:
            group_end += 1
        for t in range(idx, group_end):
            agent = order[t]
            if locations[choices[agent] - 1] < max_loc:
                return max_agent, agent
        for t in range(idx, group_end):
            agent = order[t]
            loc = locations[choices[agent] - 1]
            if loc > max_loc:
                max_loc, max_agent = loc, agent
        idx = group_end
    return None


def oracle_consecutive_blocks(positions, choices):
    """True when, in stable position order, no facility's users are split
    into two runs."""
    order = sorted(range(len(positions)), key=lambda i: positions[i])
    seen = set()
    previous = None
    for fac in (choices[i] for i in order):
        if fac != previous:
            if fac in seen:
                return False
            seen.add(fac)
            previous = fac
    return True


def oracle_potential_grouped(positions, choices, locations, building_costs):
    """Facility-grouped (compact) form of the potential: per used facility,
    its harmonic series plus its members' distances."""
    total = 0.0
    for f in sorted(set(choices)):
        members = [i for i, c in enumerate(choices) if c == f]
        for k in range(1, len(members) + 1):
            total += building_costs[f - 1] / k
        for i in members:
            total += abs(positions[i] - locations[f - 1])
    return total


def oracle_block_cost(sorted_positions, start, stop, facility, env):
    """Potential contribution of agents ``[start, stop)`` all using ``facility``.

    ``sorted_positions`` must be ascending; indices are 0-based, half-open;
    ``facility`` is 1-based. Equals the facility's building cost times the
    harmonic number of the block size, plus the block's distances.
    """
    if not 0 <= start < stop <= len(sorted_positions):
        raise fs.ValidationError("empty agent range")
    if not 1 <= facility <= env.m:
        raise fs.ValidationError("facility index out of range for this environment")
    block = sorted_positions[start:stop]
    if any(block[i] > block[i + 1] for i in range(len(block) - 1)):
        raise fs.ValidationError("positions must be sorted ascending")
    harm = sum(1.0 / j for j in range(1, stop - start + 1))
    loc = env.locations[facility - 1]
    return env.building_costs[facility - 1] * harm + sum(abs(x - loc) for x in block)


def assignment_counts(assignment, m):
    """Number of agents using each facility 1..m."""
    out = [0] * m
    for c in assignment.choices:
        out[c - 1] += 1
    return tuple(out)


def used_facilities(assignment):
    return tuple(sorted(set(assignment.choices)))


def agents_of(assignment, facility):
    """0-based indices of the agents assigned to ``facility``."""
    return tuple(i for i, c in enumerate(assignment.choices) if c == facility)


def all_assignments(n, m):
    return itertools.product(range(1, m + 1), repeat=n)


def oracle_min_potential(positions, locations, building_costs):
    n, m = len(positions), len(locations)
    return min(
        oracle_potential_grouped(positions, combo, locations, building_costs)
        for combo in all_assignments(n, m))


def oracle_min_social_cost(positions, locations, building_costs):
    n, m = len(positions), len(locations)
    best, best_combo = math.inf, None
    for combo in all_assignments(n, m):
        value = oracle_social_cost(positions, combo, locations, building_costs)
        if value < best:
            best, best_combo = value, combo
    return best, best_combo


def suite_dims(seed):
    """Deterministic (n, m) schedule covering all pairs with n <= 6, m <= 4."""
    return (seed % 6) + 1, ((seed // 6) % 4) + 1


def random_environment(rng, m=2, force=None):
    """Random environment; ``force`` pins the two-facility equality families
    ("M0": threshold at the left facility, "Mdelta": at the right one)."""
    if force is None:
        locs = np.sort(rng.uniform(0.0, 10.0, size=m))
        costs = rng.uniform(0.1, 5.0, size=m)
        return fs.Environment(tuple(float(v) for v in locs),
                              tuple(float(c) for c in costs))
    assert m == 2
    delta = float(rng.uniform(0.0, 5.0))
    left = float(rng.uniform(-5.0, 5.0))
    base = float(rng.uniform(0.1, 5.0))
    if force == "M0":
        b1, b2 = base + 2.0 * delta, base
    elif force == "Mdelta":
        b1, b2 = base, base + 2.0 * delta
    else:
        raise ValueError(force)
    return fs.Environment((left, left + delta), (b1, b2))


def lattice_instance(rng, n, m):
    """Integer positions and locations with one shared building cost, so
    exact cost ties are common."""
    b = float(rng.integers(1, 4))
    return fs.Instance(
        fs.Environment(tuple(float(v) for v in rng.integers(0, 6, size=m)), (b,) * m),
        fs.Profile(tuple(float(v) for v in rng.integers(0, 6, size=n))))


def clustered_instance(rng, n, m):
    """Agents in 3 to 6 tight clusters on a 0.01 lattice, as in the
    benchmark's clustered workload: many agents share a position."""
    centers = rng.uniform(0.5, 9.5, size=int(rng.integers(3, 7)))
    x = np.round(centers[rng.integers(len(centers), size=n)]
                 + rng.normal(0.0, 0.05, size=n), 2)
    env = fs.Environment(tuple(rng.uniform(0.0, 10.0, size=m).tolist()),
                         tuple(rng.uniform(0.5, 5.0, size=m).tolist()))
    return fs.Instance(env, fs.Profile(tuple(x.tolist())))


def random_assignment(rng, n, m):
    return fs.Assignment(tuple(int(v) for v in rng.integers(1, m + 1, size=n)))


@dataclass
class DpTable:
    """Reference memo table for the consecutive-block recursion.

    ``memo[(i, j, k)]`` is the cheapest potential over assignments of the
    first ``j`` sorted agents to facilities ``1..k`` in which agents ``i..j``
    (1-based, inclusive) share the rightmost block. ``math.inf`` marks
    infeasible index combinations: agents remaining with no facility allowed.
    ``choice`` holds ``("extend",)`` when agent ``i-1`` joins the block and
    ``("split", f)`` when the block is exactly ``[i..j]`` at facility ``f``.

    This path is quadratic per state and meant for small instances;
    ``fs.compute_pne_dp`` is the production solver.
    """

    memo: dict
    choice: dict
    n: int
    m: int
    order: list
    blocks: list

    @property
    def min_potential(self):
        return self.memo[(self.n, self.n, self.m)]

    def assignment(self):
        choices = [0] * self.n
        for lo, hi, fac in self.blocks:
            for t in range(lo, hi):
                choices[self.order[t]] = fac
        return fs.Assignment(tuple(choices))


def build_dp_table(instance):
    """Evaluate the block recursion by memoized recursion.

    For ``1 <= i <= j`` and ``k >= 1`` the value is the cheaper of extending
    the rightmost block to agent ``i-1`` and closing it as ``[i..j]`` at some
    facility ``f <= k``, with the remaining agents ``1..i-1`` restricted to
    facilities ``1..f-1``. Extension is preferred on ties, then the smallest
    facility. Block costs are summed directly from the definition.
    """
    positions = instance.profile.positions
    locations = instance.environment.locations
    b = instance.environment.building_costs
    n, m = instance.n, instance.m
    order = sorted(range(n), key=lambda a: positions[a])  # stable
    sorted_x = [positions[a] for a in order]

    def phi(i, j, fac):
        share = sum(b[fac - 1] / k for k in range(1, j - i + 2))
        return share + sum(abs(sorted_x[a] - locations[fac - 1])
                           for a in range(i - 1, j))

    memo, choice = {}, {}

    def minp(i, j, k):
        if j == 0:
            return 0.0
        if k == 0:
            return math.inf
        key = (i, j, k)
        if key in memo:
            return memo[key]
        best = math.inf
        picked = ("infeasible",)
        if i >= 2:
            best = minp(i - 1, j, k)
            picked = ("extend",)
        for fac in range(1, k + 1):
            value = minp(i - 1, i - 1, fac - 1) + phi(i, j, fac)
            if value < best:
                best, picked = value, ("split", fac)
        memo[key] = best
        choice[key] = picked
        return best

    minp(n, n, m)

    blocks = []
    i, j, k = n, n, m
    while j > 0:
        picked = choice[(i, j, k)]
        if picked[0] == "extend":
            i -= 1
        else:
            fac = picked[1]
            blocks.append((i - 1, j, fac))
            i = j = i - 1
            k = fac - 1
    blocks.reverse()
    return DpTable(memo=memo, choice=choice, n=n, m=m, order=order, blocks=blocks)


def oracle_block_partition(sorted_x, locations, building_costs, size_weight):
    """The block DP by an exhaustive candidate scan per agent prefix.

    ``table[j, k]`` is the cheapest partition of the first ``j`` sorted agents
    over facilities ``1..k``. For each ``j`` the whole ``(k, j)`` matrix of
    rightmost-block candidates is priced with the expression the library
    uses, ``(b_f * w[j - i] + (D_f[j] - D_f[i])) + table[i, f - 1]``, and
    scanned; the traceback rescans it per block and takes the smallest start
    (the widest block), then the smallest facility. Returns ``(value,
    blocks, ties)`` with the library's block convention; ``ties`` counts the
    blocks chosen among more than one minimizing candidate.
    """
    x = np.asarray(sorted_x, dtype=float)
    locs = np.asarray(locations, dtype=float)
    b = np.asarray(building_costs, dtype=float)
    weight = np.asarray(size_weight, dtype=float)
    n, m = len(x), len(locs)
    dist = np.zeros((m, n + 1))
    np.cumsum(np.abs(x[None, :] - locs[:, None]), axis=1, out=dist[:, 1:])

    table = np.full((n + 1, m + 1), math.inf)
    table[0, :] = 0.0

    def candidates(j, cap):
        sizes = np.arange(j, 0, -1)
        phi = (b[:cap, None] * weight[sizes][None, :]
               + (dist[:cap, j][:, None] - dist[:cap, :j]))
        return phi + table[:j, :cap].T

    for j in range(1, n + 1):
        rowmin = candidates(j, m).min(axis=1)
        np.minimum.accumulate(rowmin, out=rowmin)
        table[j, 1:] = rowmin

    blocks, ties = [], 0
    j, cap = n, m
    while j > 0:
        cand = candidates(j, cap)
        start = int(np.argmin(cand.min(axis=0)))
        fac = int(np.argmin(cand[:, start]))
        ties += int(np.count_nonzero(cand == cand[fac, start]) > 1)
        blocks.append((start, j, fac + 1))
        j, cap = start, fac
    blocks.reverse()
    return float(table[n, m]), tuple(blocks), ties


def oracle_windows(sorted_x, locations, building_costs, stay, leave):
    """Each facility's window as the list of the sorted agents that pass the
    near-minimizer test one agent and one rival at a time: agent ``a`` may
    use ``f`` only if ``|x_a - l_f| + stay[f] <= |x_a - l_g| + leave[g] +
    margin_fg`` for every ``g != f``, where ``stay[f]`` is ``b_f * W-`` and
    ``leave[g]`` is ``b_g * W+``, with the rounding margin of
    ``facshare._blockdp`` written out again. The potential has ``stay =
    b / n`` and ``leave = b``."""
    n = len(sorted_x)
    reach = max(abs(x - l) for x in (sorted_x[0], sorted_x[-1]) for l in locations)
    scale = n * (reach + min(building_costs))
    windows = []
    for f, (lf, bf) in enumerate(zip(locations, building_costs)):
        windows.append([
            a for a, x in enumerate(sorted_x)
            if all(abs(x - lf) + stay[f]
                   <= abs(x - lg) + leave[g]
                   + 1e-9 * ((1.0 + scale) + (abs(lf) + bf) + (abs(lg) + bg))
                   for g, (lg, bg) in enumerate(zip(locations, building_costs))
                   if g != f)])
    return windows


def oracle_unanimous(profiles, outcome, locations, building_costs, tol):
    """The unanimity audit by sorting each agent's costs at every facility
    shared n ways, ``(P, n, m)``: a profile counts when every agent has the
    same least facility (``argmin``'s first) and its cost is below her
    second-least by more than ``tol``; it fails when ``outcome`` sends some
    agent elsewhere. Counterexamples in the library's order."""
    profiles = np.asarray(profiles, dtype=float)
    cost = (np.abs(profiles[..., None] - np.asarray(locations))
            + np.asarray(building_costs) / profiles.shape[1])
    favorite = cost.argmin(axis=2)
    if cost.shape[2] >= 2:
        ordered = np.sort(cost, axis=2)
        strict = ordered[:, :, 1] - ordered[:, :, 0] > tol
    else:
        strict = np.ones(profiles.shape, dtype=bool)
    unanimous = strict.all(axis=1) & (favorite == favorite[:, :1]).all(axis=1)
    expected = favorite[:, 0] + 1
    violated = unanimous & np.any(np.asarray(outcome) != expected[:, None], axis=1)
    bad = sorted((Counterexample(tuple(float(v) for v in profiles[r]), None,
                                 int(expected[r]))
                  for r in np.nonzero(violated)[0]),
                 key=lambda c: (c.profile, -1, repr(c.deviation)))
    return AuditReport("unanimous", not bad, tuple(bad), int(unanimous.sum()))


def oracle_p1_breaks(x, report, base_loc, alt_loc, tol):
    """P1 with the move oriented so the report increases: the facility at
    the low end of ``[low, high]`` must not lie strictly right of the one at
    the high end, unless ``high`` is within ``tol`` of the second facility
    or the first facility within ``tol`` of ``low``. Arrays broadcast."""
    up = x < report
    low, high = np.where(up, x, report), np.where(up, report, x)
    first, second = np.where(up, base_loc, alt_loc), np.where(up, alt_loc, base_loc)
    ok = (high <= second + tol) | (first <= low + tol)
    return (second < first) & ~ok & (x != report)


def oracle_spec_form(spec, env, points, index, reports):
    """A spec's form built row by row, as the library built it before it
    priced each facility's extreme reports once per value of lo and of hi:
    ``lo`` and ``hi`` per ``(P, n)`` row, ``h`` asked only on the values
    some row's order statistic can take, found row by row (``table`` is 0
    elsewhere), and ``bottom``/``top`` as ``(m, P, n)`` where-passes over
    every row. ``h`` is the library's own (``_order_rule``); the reach is
    what this checks."""
    p, n = index.shape
    k, h = _order_rule(spec, env, n)
    values, inverse = np.unique(np.concatenate((points, reports)), return_inverse=True)
    index, r_index = inverse[:len(points)][index], inverse[len(points):]
    size = len(values)
    ranked = np.column_stack((np.full(p, -1), np.sort(index, axis=1), np.full(p, size)))
    lo, mid, hi = (ranked[:, j, None] for j in (k - 1, k, k + 1))
    lo = np.where(lo < index, lo, mid)
    hi = np.where(mid < index, mid, hi)

    seen = np.zeros(size, dtype=bool)
    seen[mid[:, 0]] = True
    if len(r_index):
        # clip(r, lo, hi) is lo for some r below lo, hi for some r above hi,
        # and r itself when some agent's interval [lo, hi] contains it.
        seen[lo[lo > r_index.min()]] = True
        seen[hi[hi < r_index.max()]] = True
        edges = (np.bincount(np.maximum(lo, 0).ravel(), minlength=size + 1)
                 - np.bincount(np.minimum(hi, size - 1).ravel() + 1, minlength=size + 1))
        seen[r_index[np.cumsum(edges)[r_index] > 0]] = True
    table = np.zeros(size + 1, dtype=int)
    table[:-1][seen] = h(values[seen])

    m = env.m
    fac = np.arange(1, m + 1)[:, None, None]
    holds = np.zeros((m + 1, size + 1), dtype=bool)
    holds[m, r_index] = True
    holds[:m] = holds[m] & (table == fac[:, 0])
    idx = np.arange(size + 1, dtype=np.int32)
    last = np.maximum.accumulate(np.where(holds, idx, -1), axis=1)
    last[:, -1] = -1
    first = np.minimum.accumulate(np.where(holds, idx, size)[:, ::-1], axis=1)[:, ::-1]
    below = (table[lo] == fac) & (first[m, 0] <= lo)
    above = (table[hi] == fac) & (last[m, -2] >= hi)
    inner = last[:m].take(hi - 1, axis=1)
    top = np.where(inner > lo, inner, np.where(below, last[m].take(lo), -1))
    top[above] = last[m, -2]
    inner = first[:m].take(lo + 1, axis=1)
    bottom = np.where(inner < hi, inner, np.where(above, first[m].take(hi), size))
    bottom[below] = first[m, 0]
    return SimpleNamespace(values=values, r_index=r_index, lo=lo, hi=hi, table=table,
                           truthful=np.broadcast_to(table[mid], (p, n)),
                           top=top, bottom=bottom)


def oracle_form_changes(form, rows):
    """Every report's facility for the ``(P, n)`` rows at ``rows``, by
    ``table[clip(r, lo, hi)]``: ``(len(rows), n, reports)``."""
    theta = np.clip(form.r_index, form.lo[rows, :, None], form.hi[rows, :, None])
    return form.table[theta]
