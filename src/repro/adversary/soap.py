"""SOAP -- the Sybil Onion Attack Protocol (paper section VI-B, Figure 7).

SOAP is the paper's mitigation against the basic OnionBot: it turns the
botnet's own stealth features (peers only know each other's rotating onion
addresses, anyone can host many onion services on one machine) against it.

Per-node containment follows Figure 7's steps: a compromised peer (or any
defender node that learned the target's address) spins up clones; each clone
requests peering with the target while announcing a small random degree; the
target accepts, finds itself over its degree bound, and -- following the DDSR
pruning rule -- drops its *highest-degree* peer, which is always a real bot
rather than a low-degree clone.  Repeating this, the target's peer list fills
up with clones until it has no benign neighbours left: it is **contained**
(still running, but every message it sends or receives passes through the
defender).  The campaign then spreads to the neighbours learned along the way
until the whole botnet is neutralized.

The implementation works directly on a :class:`~repro.core.ddsr.DDSROverlay`
so it can be evaluated at the same scales as the resilience experiments, and
it accepts an optional *admission policy* (see :mod:`repro.defenses.pow` and
:mod:`repro.defenses.rate_limit`) so the counter-countermeasures of section
VII-A can be quantified: the policy can reject clone peering requests or
charge them work/delay, which the result objects account for.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.core.ddsr import DDSROverlay

NodeId = Hashable

try:  # numpy is optional repo-wide; the campaign only uses flat flag arrays.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

#: Prefix of every clone identifier created by the attack.
CLONE_PREFIX = "soap-clone-"


def _flag_array(size: int):
    """A zeroed id-indexed flag array (numpy bool when available)."""
    if _np is not None:
        return _np.zeros(size, dtype=bool)
    return bytearray(size)


@contextlib.contextmanager
def _collector_paused():
    """Run the block with the cyclic garbage collector paused.

    A campaign allocates a GC-tracked set per clone (about 600k at 40k/10)
    and never a reference cycle, so the collections those allocations
    trigger scan everything and free nothing.  On exit the objects allocated
    meanwhile go straight to the oldest generation (``gc.freeze()`` then
    ``gc.unfreeze()``) instead of being scanned by the next young
    collection -- unless the caller has frozen objects of its own, which
    must stay frozen.  The collector is re-enabled only if it was enabled on
    entry; thresholds are never touched.
    """
    was_enabled = gc.isenabled()
    handoff = gc.get_freeze_count() == 0
    gc.disable()
    try:
        yield
    finally:
        if handoff:
            gc.freeze()
            gc.unfreeze()
        if was_enabled:
            gc.enable()


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of asking a target bot to accept a new peer."""

    accepted: bool
    work_required: float = 0.0
    delay_seconds: float = 0.0


#: An admission policy decides whether a peering request is accepted and what
#: it costs.  ``policy(target, requester, overlay)`` -> :class:`AdmissionDecision`.
AdmissionPolicy = Callable[[NodeId, NodeId, DDSROverlay], AdmissionDecision]


def open_admission(_target: NodeId, _requester: NodeId, _overlay: DDSROverlay) -> AdmissionDecision:
    """The basic OnionBot's policy: accept every peering request for free."""
    return AdmissionDecision(accepted=True)


def is_clone(node: NodeId) -> bool:
    """Whether a node identifier was minted by the SOAP attack."""
    return isinstance(node, str) and node.startswith(CLONE_PREFIX)


@dataclass
class SoapNodeResult:
    """Outcome of containing a single target bot."""

    target: NodeId
    contained: bool
    clones_used: int
    peering_requests: int
    requests_rejected: int
    benign_peers_displaced: int
    work_spent: float
    time_spent: float
    learned_addresses: Set[NodeId] = field(default_factory=set)


@dataclass
class SoapCampaignResult:
    """Outcome of a full SOAP campaign against a botnet overlay."""

    total_benign: int
    contained: Set[NodeId]
    clones_created: int
    peering_requests: int
    requests_rejected: int
    work_spent: float
    time_spent: float
    #: ``(targets processed, fraction of benign bots contained)`` checkpoints.
    timeline: List[Tuple[int, float]]
    per_node: List[SoapNodeResult] = field(default_factory=list)

    @property
    def containment_fraction(self) -> float:
        """Fraction of the original benign population that ended up contained."""
        if self.total_benign == 0:
            return 0.0
        return len(self.contained) / self.total_benign

    @property
    def neutralized(self) -> bool:
        """Whether every benign bot was contained (the botnet is neutralized)."""
        return self.total_benign > 0 and len(self.contained) >= self.total_benign

    @property
    def clones_per_bot(self) -> float:
        """Average number of clones spent per contained bot."""
        if not self.contained:
            return 0.0
        return self.clones_created / len(self.contained)


class SoapAttack:
    """Runs SOAP against a DDSR overlay.

    Parameters
    ----------
    rng:
        Randomness source (declared clone degrees, tie-breaks).
    admission:
        The target bots' peering-admission policy; defaults to the basic
        OnionBot's open admission.  Defense policies (PoW, rate limiting) come
        from :mod:`repro.defenses`.
    work_budget / time_budget:
        Optional caps on the total proof-of-work and waiting time the defender
        is willing to spend; the campaign stops when either is exhausted.
    max_clones_per_node:
        Safety valve so a single stubborn target cannot absorb the whole run.
    """

    def __init__(
        self,
        *,
        rng: Optional[random.Random] = None,
        admission: AdmissionPolicy = open_admission,
        work_budget: Optional[float] = None,
        time_budget: Optional[float] = None,
        max_clones_per_node: int = 200,
    ) -> None:
        self.rng = rng if rng is not None else random.Random(0)
        self.admission = admission
        self.work_budget = work_budget
        self.time_budget = time_budget
        self.max_clones_per_node = max_clones_per_node
        self._clone_counter = itertools.count(1)
        self.work_spent = 0.0
        self.time_spent = 0.0
        #: Memoised clone-ness per node id seen by this attack.  Campaigns
        #: test clone-ness on every peer of every target (millions of string
        #: prefix checks at 20k+ nodes); ids never change kind, so one dict
        #: lookup replaces the ``startswith`` scan after the first sighting.
        self._clone_cache: Dict[NodeId, bool] = {}

    # ------------------------------------------------------------------
    # Per-node containment (Figure 7 steps 2-9)
    # ------------------------------------------------------------------
    def _new_clone(self) -> str:
        return f"{CLONE_PREFIX}{next(self._clone_counter):06d}"

    def _is_clone(self, node: NodeId) -> bool:
        cached = self._clone_cache.get(node)
        if cached is None:
            cached = is_clone(node)
            self._clone_cache[node] = cached
        return cached

    def _benign_peers(self, overlay: DDSROverlay, node: NodeId) -> Set[NodeId]:
        cache = self._clone_cache
        result = set()
        for peer in overlay.peers(node):
            flag = cache.get(peer)
            if flag is None:
                flag = is_clone(peer)
                cache[peer] = flag
            if not flag:
                result.add(peer)
        return result

    def _budget_exhausted(self) -> bool:
        if self.work_budget is not None and self.work_spent >= self.work_budget:
            return True
        if self.time_budget is not None and self.time_spent >= self.time_budget:
            return True
        return False

    def contain_node(self, overlay: DDSROverlay, target: NodeId) -> SoapNodeResult:
        """Surround one bot with clones until it has no benign peers left.

        The loop keeps an incremental view of the target's benign peer set:
        the only events that can shrink it are the pruning victims reported
        by :meth:`~repro.core.ddsr.DDSROverlay.enforce_degree_bound_collect`,
        so the per-clone full peer-list rescans of the straightforward
        implementation (see :class:`ReferenceSoapAttack`) are unnecessary.  A
        mutation-stamp check guards against exotic admission policies that
        mutate the overlay; results and rng consumption are bit-identical to
        the reference either way.
        """
        if target not in overlay.graph:
            return SoapNodeResult(
                target=target,
                contained=False,
                clones_used=0,
                peering_requests=0,
                requests_rejected=0,
                benign_peers_displaced=0,
                work_spent=0.0,
                time_spent=0.0,
            )
        from repro.core.ddsr import PruningPolicy

        graph = overlay.graph
        adjacency = graph._adjacency
        clones_used = 0
        requests = 0
        rejected = 0
        displaced = 0
        node_work = 0.0
        node_time = 0.0
        # Give up on a target once twice the clone budget in peering requests
        # has been burned -- admission policies that keep rejecting (PoW above
        # the work budget, rate limits above the patience threshold) stall the
        # attack on this node rather than letting it retry forever.
        max_requests = self.max_clones_per_node * 2
        admission = self.admission
        # The basic OnionBot's open admission accepts everything for free and
        # never touches the overlay, so the whole decision/accounting/stamp
        # dance reduces to nothing (adding 0.0 work is an identity).
        open_policy = admission is open_admission
        budgeted = self.work_budget is not None or self.time_budget is not None
        config = overlay.config
        stats = overlay.stats
        pruning_policy = config.pruning_policy
        # For the degree-driven pruning policies the victim can be selected
        # from degree buckets built once per target: during one containment
        # the only degree changes in the target's neighbourhood are the clone
        # insertions (always degree 1) and the prunes themselves (the victim
        # leaves the peer set), so every real peer's degree is frozen while
        # it remains a peer.  Tie-breaks are repr-sorted before the rng draw,
        # so candidate collection order is irrelevant -- decisions, stats and
        # rng consumption match the DDSR pruner's exactly.  The
        # order-sensitive RANDOM policy keeps the general path.
        inline_prune = pruning_policy in (
            PruningPolicy.HIGHEST_DEGREE,
            PruningPolicy.LOWEST_DEGREE,
        )
        highest = pruning_policy is PruningPolicy.HIGHEST_DEGREE
        d_max = config.d_max
        buckets: Dict[int, List[NodeId]] = {}
        peer_count = 0
        low = high = 0

        def build_buckets() -> None:
            nonlocal peer_count, low, high
            buckets.clear()
            peer_count = 0
            for peer in adjacency[target]:
                peer_count += 1
                degree = len(adjacency[peer])
                bucket = buckets.get(degree)
                if bucket is None:
                    buckets[degree] = [peer]
                else:
                    bucket.append(peer)
            low = min(buckets) if buckets else 0
            high = max(buckets) if buckets else 0

        # One pass over the (order-defining) peer-list copy builds both the
        # benign view and, when the pruning policy allows it, the degree
        # buckets -- bucket order is irrelevant (ties are repr-sorted), so
        # sharing the iteration with the reference's copy scan is safe.
        clone_cache = self._clone_cache
        learned: Set[NodeId] = set()
        for peer in overlay.peers(target):
            flag = clone_cache.get(peer)
            if flag is None:
                flag = is_clone(peer)
                clone_cache[peer] = flag
            if not flag:
                learned.add(peer)
            if inline_prune:
                peer_count += 1
                degree = len(adjacency[peer])
                bucket = buckets.get(degree)
                if bucket is None:
                    buckets[degree] = [peer]
                else:
                    bucket.append(peer)
        if inline_prune and buckets:
            low = min(buckets)
            high = max(buckets)
        benign = set(learned)

        clone_counter = self._clone_counter
        forgetting = config.forgetting_enabled
        rng_choice = overlay.rng.choice
        max_clones = self.max_clones_per_node

        while benign and clones_used < max_clones:
            if (budgeted and self._budget_exhausted()) or requests >= max_requests:
                break
            # Inline of ``self._new_clone()`` -- a per-clone method call is
            # measurable at campaign scale.  Must stay in lockstep with
            # ``_new_clone``; ``test_inline_clone_minting_matches_new_clone``
            # pins the two formats together.
            clone = f"{CLONE_PREFIX}{next(clone_counter):06d}"
            requests += 1
            if not open_policy:
                stamp = graph.mutation_stamp
                decision = admission(target, clone, overlay)
                node_work += decision.work_required
                node_time += decision.delay_seconds
                self.work_spent += decision.work_required
                self.time_spent += decision.delay_seconds
                if graph.mutation_stamp != stamp:
                    benign = self._benign_peers(overlay, target)
                    if inline_prune:
                        build_buckets()
                if not decision.accepted:
                    rejected += 1
                    continue
            graph.add_leaf(clone, target)
            clones_used += 1
            # The target applies its normal DDSR pruning once over its bound;
            # the clone's (graph) degree of 1 matches its small announced
            # degree, so pruning evicts a real, higher-degree peer instead.
            if inline_prune:
                bucket = buckets.get(1)
                if bucket is None:
                    buckets[1] = [clone]
                else:
                    bucket.append(clone)
                peer_count += 1
                low = 1 if peer_count == 1 or low > 1 else low
                high = 1 if high < 1 else high
                while peer_count > d_max:
                    # Walk the degree buckets toward the policy's extreme.
                    if highest:
                        while not buckets.get(high):
                            high -= 1
                        extreme = high
                    else:
                        while not buckets.get(low):
                            low += 1
                        extreme = low
                    candidates = buckets[extreme]
                    if len(candidates) == 1:
                        victim = candidates[0]
                        del buckets[extreme]
                    else:
                        victim = rng_choice(sorted(candidates, key=repr))
                        candidates.remove(victim)
                    graph.remove_edge(target, victim)
                    peer_count -= 1
                    stats.prune_operations += 1
                    stats.prune_edges_removed += 1
                    if forgetting:
                        stats.addresses_forgotten += 1
                    if victim in benign:
                        benign.discard(victim)
                        displaced += 1
            else:
                pruned = overlay.enforce_degree_bound_collect(target)
                for victim in pruned:
                    if victim in benign:
                        benign.discard(victim)
                        displaced += 1

        contained = not benign and target in overlay.graph
        return SoapNodeResult(
            target=target,
            contained=contained,
            clones_used=clones_used,
            peering_requests=requests,
            requests_rejected=rejected,
            benign_peers_displaced=displaced,
            work_spent=node_work,
            time_spent=node_time,
            learned_addresses=learned,
        )

    # ------------------------------------------------------------------
    # Campaign (spreading containment through the whole botnet)
    # ------------------------------------------------------------------
    def run_campaign(
        self,
        overlay: DDSROverlay,
        initial_compromised: Iterable[NodeId],
        *,
        max_targets: Optional[int] = None,
    ) -> SoapCampaignResult:
        """Contain the whole botnet starting from a set of compromised bots.

        ``initial_compromised`` are bots the defender already controls (via
        honeypots or host cleanup); their peer lists seed the list of known
        addresses.  The campaign processes known-but-uncontained bots in FIFO
        order (a deque, not a list -- popping the head of a list is O(n) and
        turns long campaigns quadratic), learning new addresses from each
        target's peer list as it is attacked, until no reachable benign bot
        remains (or the optional ``max_targets`` / work / time budgets run
        out).

        Per-target bookkeeping is batched over the benign population: node
        ids are interned to dense integer indices once, and the contained /
        known sets become flat id-indexed flag arrays instead of hashed sets
        of arbitrary ids.  The whole campaign runs with the cyclic garbage
        collector paused (:func:`_collector_paused`): its clone sets never
        form cycles, and at 40k/10 the collections they trigger cost about
        1.6 s and free nothing.  The result object is bit-identical to
        :class:`ReferenceSoapAttack`'s.
        """
        with _collector_paused():
            is_clone_memo = self._is_clone
            benign_population = [node for node in overlay.nodes() if not is_clone_memo(node)]
            total_benign = len(benign_population)
            position = {node: index for index, node in enumerate(benign_population)}
            contained_flags = _flag_array(total_benign)
            known_flags = _flag_array(total_benign)
            contained_count = 0
            # Nodes outside the campaign-start population (possible only if an
            # admission policy grows the overlay mid-run) fall back to sets.
            extra_contained: Set[NodeId] = set()
            extra_known: Set[NodeId] = set()

            queue: "deque[NodeId]" = deque()
            results: List[SoapNodeResult] = []
            timeline: List[Tuple[int, float]] = []
            clones_created = 0
            requests = 0
            rejected = 0

            def mark_contained(node: NodeId) -> bool:
                nonlocal contained_count
                index = position.get(node)
                if index is not None:
                    if contained_flags[index]:
                        return False
                    contained_flags[index] = True
                else:
                    if node in extra_contained:
                        return False
                    extra_contained.add(node)
                contained_count += 1
                return True

            def learn(node: NodeId) -> None:
                index = position.get(node)
                if index is not None:
                    if not known_flags[index]:
                        known_flags[index] = True
                        queue.append(node)
                elif node not in extra_known and not is_clone_memo(node):
                    extra_known.add(node)
                    queue.append(node)

            for compromised in initial_compromised:
                if compromised not in overlay.graph or is_clone_memo(compromised):
                    continue
                # A compromised bot is already under defender control: count it as
                # contained and learn its peers.
                mark_contained(compromised)
                index = position.get(compromised)
                if index is not None:
                    known_flags[index] = True
                else:
                    extra_known.add(compromised)
                for peer in self._benign_peers(overlay, compromised):
                    learn(peer)

            processed = 0
            position_get = position.get
            graph = overlay.graph
            while queue:
                if max_targets is not None and processed >= max_targets:
                    break
                if self._budget_exhausted():
                    break
                target = queue.popleft()
                index = position_get(target)
                if index is not None:
                    if contained_flags[index]:
                        continue
                elif target in extra_contained:
                    continue
                if target not in graph:
                    continue
                result = self.contain_node(overlay, target)
                processed += 1
                results.append(result)
                clones_created += result.clones_used
                requests += result.peering_requests
                rejected += result.requests_rejected
                if result.contained:
                    mark_contained(target)
                for peer in result.learned_addresses:
                    learn(peer)
                fraction = contained_count / total_benign if total_benign else 0.0
                timeline.append((processed, fraction))

            contained = {
                node
                for index, node in enumerate(benign_population)
                if contained_flags[index]
            }
            contained |= extra_contained
            return SoapCampaignResult(
                total_benign=total_benign,
                contained=contained,
                clones_created=clones_created,
                peering_requests=requests,
                requests_rejected=rejected,
                work_spent=self.work_spent,
                time_spent=self.time_spent,
                timeline=timeline,
                per_node=results,
            )

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------
    @staticmethod
    def benign_subgraph_components(overlay: DDSROverlay) -> Dict[str, int]:
        """Component structure of the benign-to-benign communication graph.

        Contained bots can only talk to clones, so once the campaign is done
        the benign subgraph induced on *uncontained* communication paths tells
        the defender whether the botnet is still able to coordinate.

        Routed through :func:`repro.graphs.backend.induced_component_summary`:
        on the fast backend a compact CSR is built directly on the benign
        node set -- a post-campaign overlay holds several clones per bot, so
        materialising the benign subgraph (or even a CSR of the full graph)
        would be an order of magnitude more work than the answer needs --
        while the reference path keeps the original subgraph-plus-BFS
        computation.  Both return identical counts.
        """
        from repro.graphs.backend import induced_component_summary

        benign_nodes = [node for node in overlay.nodes() if not is_clone(node)]
        surviving, components, largest, isolated = induced_component_summary(
            overlay.graph, benign_nodes
        )
        return {
            "benign_nodes": surviving,
            "components": components,
            "nontrivial_components": components - isolated,
            "largest_component": largest,
        }


class ReferenceSoapAttack(SoapAttack):
    """The straightforward SOAP implementation, kept as a differential oracle.

    ``SoapAttack`` batches its bookkeeping (incremental benign-peer views fed
    by pruning victims, a deque FIFO, id-indexed flag arrays); this subclass
    preserves the original readable loops end to end -- full peer-list
    rescans around every clone, Python sets, ``list.pop(0)``, and the
    dict-materialising pruning-victim selection -- so tests can assert the
    two produce **identical** :class:`SoapCampaignResult` objects (same rng
    consumption included) and benchmarks can quantify the speedup.  Do not
    use it for large campaigns: the FIFO alone is O(n^2).
    """

    def _benign_peers(self, overlay: DDSROverlay, node: NodeId) -> Set[NodeId]:
        return {peer for peer in overlay.peers(node) if not is_clone(peer)}

    @staticmethod
    def _enforce_degree_bound_original(overlay: DDSROverlay, node: NodeId) -> int:
        """The pre-optimization pruning loop, decision-for-decision.

        Consumes ``overlay.rng`` and updates ``overlay.stats`` exactly like
        :meth:`DDSROverlay.enforce_degree_bound` -- the selection logic is the
        original dict-building one, which reaches the same victims (ties are
        normalised by the ``repr`` sort before the rng draw).
        """
        from repro.core.ddsr import PruningPolicy

        graph = overlay.graph
        config = overlay.config
        if config.pruning_policy is PruningPolicy.NONE:
            return 0
        removed = 0
        while graph.degree(node) > config.d_max:
            peers = list(graph.neighbors(node))
            if not peers:
                break
            policy = config.pruning_policy
            if policy is PruningPolicy.RANDOM:
                victim = overlay.rng.choice(peers)
            else:
                degrees = {peer: graph.degree(peer) for peer in peers}
                if policy is PruningPolicy.HIGHEST_DEGREE:
                    extreme = max(degrees.values())
                else:  # LOWEST_DEGREE
                    extreme = min(degrees.values())
                candidates = [
                    peer for peer, degree in degrees.items() if degree == extreme
                ]
                if len(candidates) == 1:
                    victim = candidates[0]
                else:
                    victim = overlay.rng.choice(sorted(candidates, key=repr))
            graph.remove_edge(node, victim)
            removed += 1
            overlay.stats.prune_operations += 1
            overlay.stats.prune_edges_removed += 1
            if config.forgetting_enabled:
                overlay.stats.addresses_forgotten += 1
        return removed

    def contain_node(self, overlay: DDSROverlay, target: NodeId) -> SoapNodeResult:
        """Original per-node containment: rescan benign peers every step."""
        if target not in overlay.graph:
            return SoapNodeResult(
                target=target,
                contained=False,
                clones_used=0,
                peering_requests=0,
                requests_rejected=0,
                benign_peers_displaced=0,
                work_spent=0.0,
                time_spent=0.0,
            )
        learned = self._benign_peers(overlay, target)
        clones_used = 0
        requests = 0
        rejected = 0
        displaced = 0
        node_work = 0.0
        node_time = 0.0
        max_requests = self.max_clones_per_node * 2

        while self._benign_peers(overlay, target) and clones_used < self.max_clones_per_node:
            if self._budget_exhausted() or requests >= max_requests:
                break
            clone = self._new_clone()
            requests += 1
            decision = self.admission(target, clone, overlay)
            node_work += decision.work_required
            node_time += decision.delay_seconds
            self.work_spent += decision.work_required
            self.time_spent += decision.delay_seconds
            if not decision.accepted:
                rejected += 1
                continue
            benign_before = len(self._benign_peers(overlay, target))
            overlay.graph.add_node(clone)
            overlay.graph.add_edge(clone, target)
            clones_used += 1
            self._enforce_degree_bound_original(overlay, target)
            benign_after = len(self._benign_peers(overlay, target))
            displaced += max(0, benign_before - benign_after)

        contained = not self._benign_peers(overlay, target) and target in overlay.graph
        return SoapNodeResult(
            target=target,
            contained=contained,
            clones_used=clones_used,
            peering_requests=requests,
            requests_rejected=rejected,
            benign_peers_displaced=displaced,
            work_spent=node_work,
            time_spent=node_time,
            learned_addresses=learned,
        )

    def run_campaign(
        self,
        overlay: DDSROverlay,
        initial_compromised: Iterable[NodeId],
        *,
        max_targets: Optional[int] = None,
    ) -> SoapCampaignResult:
        """Original campaign loop: Python sets and a list-based FIFO."""
        benign_population = {node for node in overlay.nodes() if not is_clone(node)}
        total_benign = len(benign_population)

        contained: Set[NodeId] = set()
        known: Set[NodeId] = set()
        queue: List[NodeId] = []
        results: List[SoapNodeResult] = []
        timeline: List[Tuple[int, float]] = []
        clones_created = 0
        requests = 0
        rejected = 0

        for compromised in initial_compromised:
            if compromised not in overlay.graph or is_clone(compromised):
                continue
            contained.add(compromised)
            known.add(compromised)
            for peer in self._benign_peers(overlay, compromised):
                if peer not in known:
                    known.add(peer)
                    queue.append(peer)

        processed = 0
        while queue:
            if max_targets is not None and processed >= max_targets:
                break
            if self._budget_exhausted():
                break
            target = queue.pop(0)
            if target in contained or target not in overlay.graph:
                continue
            result = self.contain_node(overlay, target)
            processed += 1
            results.append(result)
            clones_created += result.clones_used
            requests += result.peering_requests
            rejected += result.requests_rejected
            if result.contained:
                contained.add(target)
            for peer in result.learned_addresses:
                if peer not in known and not is_clone(peer):
                    known.add(peer)
                    queue.append(peer)
            fraction = len(contained) / total_benign if total_benign else 0.0
            timeline.append((processed, fraction))

        return SoapCampaignResult(
            total_benign=total_benign,
            contained=contained,
            clones_created=clones_created,
            peering_requests=requests,
            requests_rejected=rejected,
            work_spent=self.work_spent,
            time_spent=self.time_spent,
            timeline=timeline,
            per_node=results,
        )
