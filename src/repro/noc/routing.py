"""Routing for BIRRD: reduce arbitrary groups of inputs to arbitrary output ports.

From a routing perspective the paper treats reduction as reverse multicasting
(§III-B3): several inputs target the same output port and get summed whenever
they meet inside an Egg.  The paper uses the non-blocking multicast routing
algorithm of Arora/Leighton/Maggs and falls back to brute force when a
connection cannot be established; we implement the same spirit with a
depth-first configuration search over switch settings, guided by which
settings can possibly help (only merge values that belong to the same
reduction group, never double-count a value) and bounded by a node budget
with randomized restarts.

The searched configurations are *exact*: a returned configuration is verified
by symbolic evaluation, so the numeric result of the real network is
guaranteed to match the requested reduction.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.noc.birrd import BirrdNetwork, BirrdTopology, EggConfig


@dataclass(frozen=True)
class ReductionRequest:
    """A single reduction group: ``inputs`` are summed and delivered to ``output_port``."""

    output_port: int
    inputs: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.inputs:
            raise ValueError("a reduction group needs at least one input")
        if len(set(self.inputs)) != len(self.inputs):
            raise ValueError("duplicate inputs in reduction group")


@dataclass
class RoutingResult:
    """Outcome of a routing attempt."""

    aw: int
    requests: Tuple[ReductionRequest, ...]
    configs: Optional[List[List[EggConfig]]]
    routed: bool
    nodes_explored: int = 0

    @property
    def config_bits(self) -> int:
        topo = BirrdTopology(self.aw)
        return topo.config_bits_per_cycle


class BirrdRouter:
    """Search-based router for a BIRRD instance.

    ``node_budget`` bounds the number of states the DFS may expand before a
    randomized restart; ``restarts`` controls how many restarts are attempted.
    Permutation-only requests restrict the per-switch choices to PASS/SWAP
    which makes the search tiny (the topology is strictly non-blocking for
    unicast, so these always succeed for the sizes used in tests).
    """

    def __init__(self, aw: int, node_budget: int = 100_000, restarts: int = 4,
                 seed: int = 0):
        self.network = BirrdNetwork(aw)
        self.topology = self.network.topology
        self.node_budget = node_budget
        self.restarts = restarts
        self.seed = seed
        self._cache: Dict[Tuple, RoutingResult] = {}
        self._reach: Optional[List[List[FrozenSet[int]]]] = None

    # ------------------------------------------------------------- public API
    def route(self, requests: Sequence[ReductionRequest]) -> RoutingResult:
        """Find switch configurations realising the requested reductions.

        Results are memoised per request tuple: the accelerator issues the same
        reduction/destination pattern for many consecutive drain cycles, so
        repeated routes are free.
        """
        requests = tuple(requests)
        cache_key = tuple((r.output_port, r.inputs) for r in requests)
        if cache_key in self._cache:
            return self._cache[cache_key]
        self._validate(requests)
        goals: Dict[int, FrozenSet[int]] = {
            r.output_port: frozenset(r.inputs) for r in requests
        }
        active = sorted({i for r in requests for i in r.inputs})

        total_nodes = 0
        result = None
        for attempt in range(self.restarts):
            rng = random.Random(self.seed + attempt)
            configs, nodes = self._search(goals, active, rng, shuffle=attempt > 0)
            total_nodes += nodes
            if configs is not None:
                result = RoutingResult(self.topology.aw, requests, configs, True,
                                       total_nodes)
                break
        if result is None:
            result = RoutingResult(self.topology.aw, requests, None, False, total_nodes)
        self._cache[cache_key] = result
        return result

    def route_permutation(self, permutation: Dict[int, int]) -> RoutingResult:
        """Route a pure reorder: ``permutation[input_port] = output_port``."""
        requests = [ReductionRequest(output_port=dst, inputs=(src,))
                    for src, dst in permutation.items()]
        return self.route(requests)

    def route_or_ideal(self, requests: Sequence[ReductionRequest]) -> RoutingResult:
        """Route, but never fail: an unrouted result carries ``routed=False``.

        Mirrors the paper's brute-force fallback; callers that only need the
        functional outcome (e.g. the cost model) can proceed either way.
        """
        try:
            return self.route(requests)
        except ValueError:
            raise
        except Exception:  # pragma: no cover - defensive
            return RoutingResult(self.topology.aw, tuple(requests), None, False, 0)

    # -------------------------------------------------------------- validation
    def _validate(self, requests: Sequence[ReductionRequest]) -> None:
        aw = self.topology.aw
        seen_outputs = set()
        seen_inputs = set()
        for req in requests:
            if not 0 <= req.output_port < aw:
                raise ValueError(f"output port {req.output_port} outside 0..{aw - 1}")
            if req.output_port in seen_outputs:
                raise ValueError(f"output port {req.output_port} assigned twice")
            seen_outputs.add(req.output_port)
            for i in req.inputs:
                if not 0 <= i < aw:
                    raise ValueError(f"input port {i} outside 0..{aw - 1}")
                if i in seen_inputs:
                    raise ValueError(f"input {i} appears in two reduction groups")
                seen_inputs.add(i)

    # ---------------------------------------------------------- reachability
    def _reach_sets(self) -> List[List[FrozenSet[int]]]:
        """``reach[stage][port]``: output-buffer ports reachable from that wire.

        Both wires of a switch share a reach set (a value can leave on either
        output port), so the sets are computed backwards from the outputs
        through the inter-stage wiring.  Used as an exact pruning condition:
        a live partial sum sitting on a wire that cannot reach its group's
        destination can never contribute to the final result there.

        Depends only on the (immutable) topology, so it is computed once per
        router and reused across every route call and randomized restart.
        """
        if self._reach is not None:
            return self._reach
        topo = self.topology
        aw = topo.aw
        wiring = self.network.wiring
        reach: List[List[FrozenSet[int]]] = [
            [frozenset()] * aw for _ in range(topo.num_stages + 1)
        ]
        reach[topo.num_stages] = [frozenset({p}) for p in range(aw)]
        for stage in range(topo.num_stages - 1, -1, -1):
            for sw in range(topo.switches_per_stage):
                left, right = 2 * sw, 2 * sw + 1
                union = (reach[stage + 1][wiring[stage][left]]
                         | reach[stage + 1][wiring[stage][right]])
                reach[stage][left] = union
                reach[stage][right] = union
        self._reach = reach
        return reach

    # ------------------------------------------------------------------ search
    def _search(self, goals: Dict[int, FrozenSet[int]], active: List[int],
                rng: random.Random, shuffle: bool) -> Tuple[Optional[List[List[EggConfig]]], int]:
        topo = self.topology
        aw = topo.aw
        group_sets = list(goals.values())
        initial = tuple(frozenset({i}) if i in set(active) else frozenset()
                        for i in range(aw))
        reach = self._reach_sets()
        # Map every input index to the destination port of its group.
        dest_of_input: Dict[int, int] = {}
        for port, group in goals.items():
            for i in group:
                dest_of_input[i] = port

        nodes = 0
        visited = set()

        def goal_met(state: Tuple[FrozenSet[int], ...]) -> bool:
            return all(state[port] == group for port, group in goals.items())

        def feasible(stage: int, state: Tuple[FrozenSet[int], ...],
                     live: Tuple[bool, ...]) -> bool:
            """Exact necessary condition: every live partial sum must still be
            able to reach its group's destination port."""
            for port in range(aw):
                content = state[port]
                if not content or not live[port]:
                    continue
                member = next(iter(content))
                dest = dest_of_input.get(member)
                if dest is not None and dest not in reach[stage][port]:
                    return False
            return True

        def useful_configs(left: FrozenSet[int], right: FrozenSet[int]) -> List[EggConfig]:
            options: List[EggConfig] = []
            can_add = (left and right and not (left & right)
                       and any((left | right) <= g for g in group_sets))
            if can_add:
                options.append(EggConfig.ADD_LEFT)
                options.append(EggConfig.ADD_RIGHT)
            options.append(EggConfig.PASS)
            if left != right:
                options.append(EggConfig.SWAP)
            if shuffle:
                rng.shuffle(options)
            return options

        wiring = self.network.wiring

        def permute(stage: int, wires: List, fill) -> Tuple:
            out = [fill] * aw
            for port, dest in enumerate(wiring[stage]):
                out[dest] = wires[port]
            return tuple(out)

        initial_live = tuple(bool(content) for content in initial)

        def dfs(stage: int, state: Tuple[FrozenSet[int], ...],
                live: Tuple[bool, ...]) -> Optional[List[List[EggConfig]]]:
            nonlocal nodes
            if stage == topo.num_stages:
                return [] if goal_met(state) else None
            if nodes > self.node_budget:
                return None
            if not feasible(stage, state, live):
                return None
            key = (stage, state, live)
            if key in visited:
                return None
            visited.add(key)
            nodes += 1

            per_switch_options = []
            for sw in range(topo.switches_per_stage):
                left, right = state[2 * sw], state[2 * sw + 1]
                per_switch_options.append(useful_configs(left, right))

            for combo in itertools.product(*per_switch_options):
                wires = list(state)
                lives = list(live)
                for sw, cfg in enumerate(combo):
                    li, ri = 2 * sw, 2 * sw + 1
                    left, right = wires[li], wires[ri]
                    if cfg is EggConfig.PASS:
                        new_l, new_r = left, right
                        live_l, live_r = lives[li], lives[ri]
                    elif cfg is EggConfig.SWAP:
                        new_l, new_r = right, left
                        live_l, live_r = lives[ri], lives[li]
                    elif cfg is EggConfig.ADD_LEFT:
                        new_l, new_r = left | right, right
                        live_l, live_r = True, False
                    else:  # ADD_RIGHT
                        new_l, new_r = left, left | right
                        live_l, live_r = False, True
                    wires[li], wires[ri] = new_l, new_r
                    lives[li], lives[ri] = live_l, live_r
                next_state = permute(stage, wires, frozenset())
                next_live = permute(stage, lives, False)
                result = dfs(stage + 1, next_state, next_live)
                if result is not None:
                    return [list(combo)] + result
            return None

        configs = dfs(0, initial, initial_live)
        if configs is None:
            return None, nodes

        # Double-check by symbolic evaluation (defence against search bugs).
        outputs = self.network.evaluate_symbolic(active, configs)
        for port, group in goals.items():
            if outputs[port] != group:
                return None, nodes
        return configs, nodes


def contiguous_reduction_requests(group_size: int, aw: int,
                                  destinations: Optional[Sequence[int]] = None,
                                  ) -> List[ReductionRequest]:
    """Helper: contiguous groups of ``group_size`` inputs, one request per group.

    ``destinations`` optionally scatters group results to arbitrary banks;
    by default group ``g`` targets output port ``g``.
    """
    if aw % group_size != 0:
        raise ValueError("group_size must divide AW")
    num_groups = aw // group_size
    if destinations is None:
        destinations = list(range(num_groups))
    if len(destinations) != num_groups:
        raise ValueError("need one destination per group")
    if len(set(destinations)) != num_groups:
        raise ValueError("destinations must be distinct")
    requests = []
    for g in range(num_groups):
        inputs = tuple(range(g * group_size, (g + 1) * group_size))
        requests.append(ReductionRequest(output_port=destinations[g], inputs=inputs))
    return requests
