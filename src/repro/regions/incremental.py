"""Incremental region-summary dataflow: O(dirty spine) re-solving.

:class:`RegionDataflow` keeps the four core analyses (available and
anticipatable expressions, liveness, reaching definitions) continuously
solved over a mutating CFG.  The flat solver re-iterates the whole graph
after every change; here each region's phase-1 summary is cached under a
*signature* -- its equation units plus its children's boundary keys --
so a statement edit invalidates exactly the regions whose equations or
node masks moved:

* the region owning the edited node re-summarizes;
* a parent re-summarizes only if a child's *summary* (not merely its
  internals) changed -- unchanged summaries cut the spine off early;
* everything else is a cache hit, and the top-down evaluation skips any
  subtree whose input fact and equations both held still.

Each solve runs three phases over the region systems:

1. **Summarize** (bottom-up, :func:`solve_system_functions`): a region
   system is solved in the *function domain* -- every computed edge
   gets a canonical ``(gen, kill)`` pair expressing its fact as a
   function of the region's input fact, with already-summarized
   children entering as single super-equations.  The value at the
   region's own boundary is its summary.
2. **Root solve** (:func:`solve_system_concrete`): the virtual root
   system is solved concretely, since its input (the boundary mask) is
   a known constant.
3. **Evaluate** (top-down): once a region's input fact is known, every
   computed edge is one ``apply`` of its cached phase-1 function.

Bitvector frameworks are distributive, so the summarized fixpoint
applied to the actual boundary equals the flat solver's unique
fixpoint; the ``hierarchical-vs-flat`` fuzz oracle re-checks that on
every fuzz trial.

The caches survive shape edits too: a splice/unsplice rebuilds the
region systems (cheap dict assembly, no fixpoints), and the signature
check retains every untouched region's summary.

Universes are *sticky*: bit numberings are fixed at build time and only
appended to (reaching-definition sites), never re-sorted, so cached
masks stay comparable across edits.  A bit whose fact can no longer be
generated (an unspliced definition site) simply never appears in a
solution, which keeps decoded answers equal to a from-scratch solve.
Two edits break stickiness and trigger a full rebuild instead: a
variable or expression outside the built universe (no bit to assign
without re-sorting), and a variable vanishing entirely (reaching seeds
``(v, start)`` for every *current* variable, so a stale variable would
diverge from a fresh solve).  The differential suite asserts
decoded-equality against from-scratch flat solves after every edit.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, NamedTuple

from repro.cfg.graph import CFG, NodeKind
from repro.dataflow.available import gen_expressions
from repro.lang.ast_nodes import expr_vars
from repro.regions.systems import (
    INPUT,
    NODE_UNIT,
    RegionSystems,
    System,
    build_systems,
)
from repro.regions.transfer import (
    IDENTITY,
    apply,
    compose_gk,
    compose_kg,
    meet_intersect,
    meet_union,
)
from repro.util.counters import WorkCounter

if TYPE_CHECKING:
    from repro.controldep.sese import ProgramStructure

#: The analyses the engine keeps solved, in report order.
ANALYSES = ("available", "anticipatable", "liveness", "reaching")


class _Spec(NamedTuple):
    """The solver-facing shape of one analysis (the node masks live in
    the engine's per-analysis tables, keyed by node id)."""

    direction: str
    meet_is_union: bool
    kill_then_gen: bool
    boundary_mask: int
    initial_mask: int


def solve_system_functions(
    system: System,
    problem: _Spec,
    node_gen: dict[int, int],
    node_kill: dict[int, int],
    summaries: dict[int, tuple[int, int]],
    boundary_node: int,
    counter: WorkCounter,
) -> dict[int, tuple[int, int]]:
    """Chaotic iteration of one region system in the function domain.

    Returns ``{edge id: (gen, kill)}`` for every edge the system
    computes, as functions of the system's input fact.  ``summaries``
    maps already-solved child *system indices* to their boundary
    functions.  ``boundary_node`` is the problem's root node (start
    forward / end backward): its meet input is the constant boundary
    mask wherever it lives, mirroring the flat solver's replacement.
    """
    units = (system.fwd_units if problem.direction == "forward"
             else system.bwd_units)
    compose = compose_kg if problem.kill_then_gen else compose_gk
    fmeet = meet_union if problem.meet_is_union else meet_intersect
    boundary_fn = (problem.boundary_mask, ~problem.boundary_mask)
    init = (problem.initial_mask, ~problem.initial_mask)
    empty_fn = (0, ~0)

    values: dict[int, tuple[int, int]] = {}
    for unit in units:
        if unit[0] == NODE_UNIT:
            for out in unit[3]:
                values[out] = init
        else:
            values[unit[3]] = init

    evals = 0
    changed = True
    while changed:
        changed = False
        for unit in units:
            evals += 1
            if unit[0] == NODE_UNIT:
                _, nid, refs, outs = unit
                if nid == boundary_node:
                    combined = boundary_fn
                elif not refs:
                    combined = empty_fn
                else:
                    ref = refs[0]
                    combined = IDENTITY if ref == INPUT else values[ref]
                    for ref in refs[1:]:
                        other = IDENTITY if ref == INPUT else values[ref]
                        combined = fmeet(combined, other)
                out = compose(
                    combined[0], combined[1], node_gen[nid], node_kill[nid]
                )
                for eid in outs:
                    if values[eid] != out:
                        values[eid] = out
                        changed = True
            else:
                _, pos, ref, out_edge = unit
                inval = IDENTITY if ref == INPUT else values[ref]
                child_summary = summaries[system.children[pos]]
                out = compose_kg(inval[0], inval[1], *child_summary)
                if values[out_edge] != out:
                    values[out_edge] = out
                    changed = True
    counter.tick("hier_unit_evals", evals)
    return values


def solve_system_concrete(
    system: System,
    problem: _Spec,
    node_gen: dict[int, int],
    node_kill: dict[int, int],
    summaries: dict[int, tuple[int, int]],
    boundary_node: int,
    counter: WorkCounter,
) -> dict[int, int]:
    """Chaotic iteration of the root system in the concrete domain
    (its input -- the boundary mask -- is known, so functions would be
    overhead).  Returns ``{edge id: fact mask}``."""
    units = (system.fwd_units if problem.direction == "forward"
             else system.bwd_units)
    union = problem.meet_is_union
    kill_then_gen = problem.kill_then_gen

    facts: dict[int, int] = {}
    for unit in units:
        if unit[0] == NODE_UNIT:
            for out in unit[3]:
                facts[out] = problem.initial_mask
        else:
            facts[unit[3]] = problem.initial_mask

    evals = 0
    changed = True
    while changed:
        changed = False
        for unit in units:
            evals += 1
            if unit[0] == NODE_UNIT:
                _, nid, refs, outs = unit
                if nid == boundary_node:
                    combined = problem.boundary_mask
                elif not refs:
                    combined = 0
                else:
                    combined = facts[refs[0]]
                    if union:
                        for ref in refs[1:]:
                            combined |= facts[ref]
                    else:
                        for ref in refs[1:]:
                            combined &= facts[ref]
                if kill_then_gen:
                    out = (combined & ~node_kill[nid]) | node_gen[nid]
                else:
                    out = (combined | node_gen[nid]) & ~node_kill[nid]
                for eid in outs:
                    if facts[eid] != out:
                        facts[eid] = out
                        changed = True
            else:
                _, pos, ref, out_edge = unit
                out = apply(summaries[system.children[pos]], facts[ref])
                if facts[out_edge] != out:
                    facts[out_edge] = out
                    changed = True
    counter.tick("hier_unit_evals", evals)
    return facts


class _CachedSummaries(dict):
    """Child-summary lookup that falls back to the per-region cache for
    systems the selective sweep never visited (their summaries are
    known-valid by the epoch check)."""

    def __init__(self, systems, cache) -> None:
        super().__init__()
        self._systems = systems
        self._cache = cache

    def __missing__(self, index: int) -> tuple[int, int]:
        summary = self._cache[self._systems[index].key][2]
        self[index] = summary
        return summary


class RegionDataflow:
    """Continuously-solved hierarchical dataflow over one CFG.

    ``solve_all()`` returns the decoded facts for every analysis;
    between calls, feed edits through :meth:`note_rewrite`,
    :meth:`note_splice` and :meth:`note_unsplice` (the
    :class:`~repro.regions.edits.EditSession` wrapper drives the graph
    and :class:`~repro.controldep.sese.ProgramStructure` mutations and
    these notifications together).
    """

    def __init__(
        self,
        graph: CFG,
        structure: "ProgramStructure | None" = None,
        counter: WorkCounter | None = None,
        live_out: frozenset[str] = frozenset(),
        balance: bool = True,
    ) -> None:
        if structure is None:
            from repro.controldep.sese import ProgramStructure

            structure = ProgramStructure(graph)
        self.graph = graph
        self.structure = structure
        self.counter = counter if counter is not None else WorkCounter()
        self.live_out = live_out
        self.balance = balance
        self._build()

    # -- construction --------------------------------------------------------

    def _build(self) -> None:
        graph = self.graph
        self.systems: RegionSystems = build_systems(
            graph, self.structure, self.counter, balance=self.balance
        )

        # Variable universe (liveness bits + the reaching seed set) and
        # per-variable reference counts for vanish detection.
        self.vars: list[str] = sorted(graph.variables() | self.live_out)
        self.var_index = {v: i for i, v in enumerate(self.vars)}
        self.var_refs: Counter = Counter()
        for node in graph.nodes.values():
            for var in node.defs() | node.uses():
                self.var_refs[var] += 1

        # Expression universe, as in ExpressionSpace.
        self.exprs = sorted(graph.expressions(), key=repr)
        self.expr_index = {e: i for i, e in enumerate(self.exprs)}
        self.expr_kill_by_var: dict[str, int] = {}
        for i, expr in enumerate(self.exprs):
            bit = 1 << i
            for var in expr_vars(expr):
                self.expr_kill_by_var[var] = (
                    self.expr_kill_by_var.get(var, 0) | bit
                )
        full = (1 << len(self.exprs)) - 1

        # Reaching-definition sites: sorted at build, appended on splice.
        sites = {(v, graph.start) for v in graph.variables()}
        for node in graph.assign_nodes():
            assert node.target is not None
            sites.add((node.target, node.id))
        self.sites: list[tuple[str, int]] = sorted(sites)
        self.site_index = {s: i for i, s in enumerate(self.sites)}
        self.site_by_var: dict[str, int] = {}
        for var, nid in self.sites:
            self.site_by_var[var] = (
                self.site_by_var.get(var, 0)
                | (1 << self.site_index[(var, nid)])
            )

        live_boundary = 0
        for var in self.live_out:
            live_boundary |= 1 << self.var_index[var]
        self.specs: dict[str, _Spec] = {
            "available": _Spec("forward", False, False, 0, full),
            "anticipatable": _Spec("backward", False, True, 0, full),
            "liveness": _Spec("backward", True, True, live_boundary, 0),
            "reaching": _Spec("forward", True, True, 0, 0),
        }

        # Node-keyed gen/kill tables per analysis.
        self.node_gen: dict[str, dict[int, int]] = {a: {} for a in ANALYSES}
        self.node_kill: dict[str, dict[int, int]] = {a: {} for a in ANALYSES}
        for nid in graph.nodes:
            self._compile_node(nid)

        # Per-analysis caches:  key -> (signature, values, summary) for
        # regions, plus the root entry under key None holding concrete
        # facts.  ``_facts``/``_prev_input`` persist phase-2/3 results.
        # ``_epoch`` stamps the current system assembly: signatures can
        # only move when the systems are rebuilt, so an analysis whose
        # cache epoch matches skips signature checks entirely and visits
        # only the dirty nodes' ancestor spines.
        self._cache: dict[str, dict] = {a: {} for a in ANALYSES}
        self._facts: dict[str, dict[int, int]] = {a: {} for a in ANALYSES}
        self._prev_input: dict[str, dict] = {a: {} for a in ANALYSES}
        self._dirty: dict[str, set[int]] = {a: set() for a in ANALYSES}
        self._decode_memo: dict[str, dict[int, frozenset]] = {
            a: {} for a in ANALYSES
        }
        self._epoch = getattr(self, "_epoch", 0) + 1
        self._cache_epoch: dict[str, int] = {a: -1 for a in ANALYSES}
        self._decoded: dict[str, dict[int, frozenset] | None] = {
            a: None for a in ANALYSES
        }
        # Persistent decoded tables, updated edge-by-edge: the fresh
        # solve path records exactly which edges' masks moved in
        # ``_stale``, so a quiescent-ish edit decodes O(changed edges)
        # instead of O(E).  ``None`` forces a full rebuild (first query,
        # shape edits -- edge ids appear/vanish there).
        self._decoded_base: dict[str, dict[int, frozenset] | None] = {
            a: None for a in ANALYSES
        }
        self._stale: dict[str, set[int]] = {a: set() for a in ANALYSES}
        # Signatures depend only on the systems, not the analysis, so
        # the four solvers share one per-epoch signature table.
        self._sig_cache: tuple[int, list] | None = None

    def _compile_node(self, nid: int) -> None:
        """(Re)derive every analysis's gen/kill masks for one node."""
        node = self.graph.node(nid)
        uses = 0
        for var in node.uses():
            uses |= 1 << self.var_index[var]
        defs = 0
        for var in node.defs():
            defs |= 1 << self.var_index[var]
        self.node_gen["liveness"][nid] = uses
        self.node_kill["liveness"][nid] = defs

        egen = 0
        for expr in gen_expressions(node):
            egen |= 1 << self.expr_index[expr]
        ekill = 0
        if node.kind is NodeKind.ASSIGN:
            assert node.target is not None
            ekill = self.expr_kill_by_var.get(node.target, 0)
        for name in ("available", "anticipatable"):
            self.node_gen[name][nid] = egen
            self.node_kill[name][nid] = ekill

        rgen = 0
        rkill = 0
        if node.kind is NodeKind.START:
            for var in self.graph.variables():
                rgen |= 1 << self.site_index[(var, nid)]
        elif node.kind is NodeKind.ASSIGN:
            assert node.target is not None
            rgen = 1 << self.site_index[(node.target, nid)]
            rkill = self.site_by_var[node.target]
        self.node_gen["reaching"][nid] = rgen
        self.node_kill["reaching"][nid] = rkill

    def rebuild(self, reason: str = "rebuild") -> None:
        """Drop everything and recompile from the current graph state
        (universe misses, vanished variables)."""
        self.counter.tick("inc_full_rebuilds")
        self.counter.tick(f"inc_rebuild_{reason}")
        self._build()

    # -- edit notifications --------------------------------------------------

    def _track_vars(self, added, removed) -> bool:
        """Adjust reference counts; returns True when the edit stays
        inside the built universe (False => caller must rebuild)."""
        ok = True
        for var in added:
            self.var_refs[var] += 1
            if var not in self.var_index:
                self.counter.tick("inc_universe_miss")
                ok = False
        for var in removed:
            self.var_refs[var] -= 1
            if self.var_refs[var] <= 0:
                del self.var_refs[var]
                self.counter.tick("inc_var_vanished")
                ok = False
        return ok

    def note_rewrite(self, nid: int, old_vars: frozenset[str]) -> None:
        """Node ``nid``'s expression text changed (same shape, same
        assignment target).  ``old_vars`` is ``defs() | uses()`` from
        before the rewrite."""
        node = self.graph.node(nid)
        new_vars = node.defs() | node.uses()
        if not self._track_vars(new_vars - old_vars, old_vars - new_vars):
            self.rebuild("universe")
            return
        for expr in gen_expressions(node):
            if expr not in self.expr_index:
                self.counter.tick("inc_universe_miss")
                self.rebuild("universe")
                return
        self._compile_node(nid)
        # Reaching gen/kill depend only on the target, which a rewrite
        # keeps -- the reaching caches stay entirely warm.
        self._dirty["available"].add(nid)
        self._dirty["anticipatable"].add(nid)
        self._dirty["liveness"].add(nid)

    def note_splice(self, nid: int) -> None:
        """A new straight-line node ``nid`` was spliced onto an edge
        (graph and structure already updated)."""
        node = self.graph.node(nid)
        if not self._track_vars(node.defs() | node.uses(), ()):
            self.rebuild("universe")
            return
        for expr in gen_expressions(node):
            if expr not in self.expr_index:
                self.counter.tick("inc_universe_miss")
                self.rebuild("universe")
                return
        if node.kind is NodeKind.ASSIGN:
            assert node.target is not None
            site = (node.target, nid)
            bit = 1 << len(self.sites)
            self.sites.append(site)
            self.site_index[site] = len(self.sites) - 1
            self.site_by_var[node.target] = (
                self.site_by_var.get(node.target, 0) | bit
            )
            self._decode_memo["reaching"].clear()
            # Every definition of the same variable now also kills the
            # new site's bit.
            for other in self.graph.assign_nodes():
                if other.target == node.target and other.id != nid:
                    self.node_kill["reaching"][other.id] |= bit
                    self._dirty["reaching"].add(other.id)
        self._compile_node(nid)
        for name in ANALYSES:
            self._dirty[name].add(nid)
        self._reshape()

    def note_unsplice(self, nid: int, node_vars: frozenset[str]) -> None:
        """Straight-line node ``nid`` was removed and its edges merged
        (graph and structure already updated).  ``node_vars`` is the
        removed node's ``defs() | uses()``."""
        if not self._track_vars((), node_vars):
            self.rebuild("universe")
            return
        for name in ANALYSES:
            self.node_gen[name].pop(nid, None)
            self.node_kill[name].pop(nid, None)
            self._dirty[name].discard(nid)
        # The removed definition site's bit goes stale: no node
        # generates it any more, so it can never enter a solution, and
        # killing a never-set bit is a no-op -- decoded facts match a
        # fresh universe without it.
        self._reshape()

    def _reshape(self) -> None:
        """Rebuild the equation systems after a shape edit.  Untouched
        regions keep their unit tuples from the previous assembly, and
        the signature check against the per-region caches then keeps
        every untouched summary too."""
        self.systems = build_systems(
            self.graph, self.structure, self.counter,
            prev=self.systems, touched=self.structure.consume_touched(),
            balance=self.balance,
        )
        self._epoch += 1
        self.counter.tick("inc_reshapes")

    # -- solving -------------------------------------------------------------

    def _signatures(self) -> list:
        """The per-system signature table for the current epoch (index 0
        is the virtual root's), computed once and shared by all four
        analyses' full sweeps."""
        if self._sig_cache is None or self._sig_cache[0] != self._epoch:
            systems = self.systems.systems
            keys = [s.key for s in systems]
            sigs: list = [None] * len(systems)
            for system in systems:
                child_keys = tuple(keys[i] for i in system.children)
                sigs[system.index] = system.signature(child_keys)
            self._sig_cache = (self._epoch, sigs)
        return self._sig_cache[1]

    def _solve(self, name: str) -> tuple[dict[int, int], bool]:
        """Bring ``name``'s facts up to date; returns ``(facts, moved)``
        where ``moved`` is False only when the cached facts (and the live
        edge set) are known unchanged since the previous solve."""
        spec = self.specs[name]
        systems = self.systems.systems
        node_gen = self.node_gen[name]
        node_kill = self.node_kill[name]
        cache = self._cache[name]
        dirty = self._dirty[name]
        facts = self._facts[name]
        prev_input = self._prev_input[name]
        forward = spec.direction == "forward"
        boundary_node = self.graph.start if forward else self.graph.end
        fresh = self._cache_epoch[name] == self._epoch

        if fresh and not dirty:
            return facts, False

        summaries = _CachedSummaries(systems, cache)
        recomputed: set[int] = set()
        root = systems[0]
        root_recomputed = False

        if fresh:
            # The systems are the same objects the cache was built from,
            # so every signature is known-valid: visit only the dirty
            # nodes' owning systems and their ancestor spines, pulling
            # skipped children's summaries straight from the cache.
            sys_of_node = self.systems.sys_of_node
            changed: set[int] = set()
            dirty_systems = {
                sys_of_node[n] for n in dirty if n in sys_of_node
            }
            spine: set[int] = set()
            for index in dirty_systems:
                walk: int | None = index
                while walk is not None and walk not in spine:
                    spine.add(walk)
                    walk = systems[walk].parent
            for index in sorted(spine - {0}, reverse=True):
                system = systems[index]
                if index not in dirty_systems and not any(
                    c in changed for c in system.children
                ):
                    continue  # children re-summarized to equal functions
                values = solve_system_functions(
                    system, spec, node_gen, node_kill,
                    summaries, boundary_node, self.counter,
                )
                summary = values[system.exit if forward else system.entry]
                self.counter.tick("inc_regions_resummarized")
                recomputed.add(index)
                sig, _, old_summary = cache[system.key]
                if summary != old_summary:
                    changed.add(index)
                cache[system.key] = (sig, values, summary)
                summaries[index] = summary
            if 0 in dirty_systems or any(c in changed for c in root.children):
                root_facts = solve_system_concrete(
                    root, spec, node_gen, node_kill,
                    summaries, boundary_node, self.counter,
                )
                stale = self._stale[name]
                for eid, val in root_facts.items():
                    if facts.get(eid) != val:
                        facts[eid] = val
                        stale.add(eid)
                self.counter.tick("inc_regions_resummarized")
                cache[None] = (cache[None][0], root_facts, None)
                root_recomputed = True
        else:
            # Systems were reassembled (shape edit or first solve): full
            # bottom-up sweep with signature checks, retaining every
            # region whose equations and children held still.
            sigs = self._signatures()
            sys_of_node = self.systems.sys_of_node
            dirty_systems = {
                sys_of_node[n] for n in dirty if n in sys_of_node
            }
            new_cache: dict = {}
            changed_keys: set = set()
            for system in reversed(systems):
                if system.region is None:
                    continue
                sig = sigs[system.index]
                cached = cache.get(system.key)
                needs = (
                    cached is None
                    or cached[0] != sig
                    or system.index in dirty_systems
                    or any(k in changed_keys for k in sig[4])
                )
                if needs:
                    values = solve_system_functions(
                        system, spec, node_gen, node_kill,
                        summaries, boundary_node, self.counter,
                    )
                    summary = values[
                        system.exit if forward else system.entry
                    ]
                    self.counter.tick("inc_regions_resummarized")
                    recomputed.add(system.index)
                    if cached is None or summary != cached[2]:
                        changed_keys.add(system.key)
                    new_cache[system.key] = (sig, values, summary)
                else:
                    summary = cached[2]
                    new_cache[system.key] = cached
                summaries[system.index] = summary

            root_sig = sigs[0]
            root_cached = cache.get(None)
            root_needs = (
                root_cached is None
                or root_cached[0] != root_sig
                or 0 in dirty_systems
                or any(k in changed_keys for k in root_sig[4])
            )
            if root_needs:
                root_facts = solve_system_concrete(
                    root, spec, node_gen, node_kill,
                    summaries, boundary_node, self.counter,
                )
                facts.update(root_facts)
                self.counter.tick("inc_regions_resummarized")
                new_cache[None] = (root_sig, root_facts, None)
                root_recomputed = True
            else:
                new_cache[None] = root_cached
            cache = self._cache[name] = new_cache
            self._cache_epoch[name] = self._epoch

        dirty.clear()
        if not recomputed and not root_recomputed and fresh:
            return facts, False

        # Early summary cutoffs leave recomputed regions below untouched
        # ancestors, so the walk must descend through clean levels that
        # have dirty subtrees (without re-applying their functions).
        dirty_below: set[int] = set()
        for index in recomputed:
            walk: int | None = index
            while walk is not None and walk != 0 and walk not in dirty_below:
                dirty_below.add(walk)
                walk = systems[walk].parent

        if root_recomputed or not fresh:
            seeds = list(root.children)
        else:
            # Root facts held still, so only subtrees containing a
            # recomputed region can see a new input or new functions.
            seeds = [c for c in root.children if c in dirty_below]
        stale = self._stale[name]
        stack = [
            (i, facts[systems[i].entry if forward else systems[i].exit])
            for i in reversed(seeds)
        ]
        while stack:
            index, inval = stack.pop()
            system = systems[index]
            input_changed = prev_input.get(system.key) != inval
            if not input_changed and index not in dirty_below:
                continue
            if input_changed or index in recomputed:
                prev_input[system.key] = inval
                for eid, fn in cache[system.key][1].items():
                    new = apply(fn, inval)
                    if facts.get(eid) != new:
                        facts[eid] = new
                        stale.add(eid)
                self.counter.tick("inc_regions_reevaluated")
            for child in reversed(system.children):
                child_sys = systems[child]
                boundary = child_sys.entry if forward else child_sys.exit
                stack.append((child, facts[boundary]))
        if not fresh:
            # Shape edits (and first solves) can add or drop edge ids,
            # so the persistent decoded table starts over.
            self._decoded_base[name] = None
        self._decoded[name] = None
        return facts, True

    def solve_masks(self, name: str) -> dict[int, int]:
        """The analysis's fact mask per live edge id."""
        facts, _ = self._solve(name)
        return {eid: facts[eid] for eid in self.graph.edges}

    def solve_all(self) -> dict[str, dict[int, frozenset]]:
        """Decoded facts for every analysis, keyed by edge id --
        comparable with the flat bitset twins and reference oracles."""
        return {name: self.decode(name) for name in ANALYSES}

    def decode(self, name: str) -> dict[int, frozenset]:
        facts, _ = self._solve(name)
        cached = self._decoded[name]
        if cached is not None:
            return cached
        universe: list = {
            "available": self.exprs,
            "anticipatable": self.exprs,
            "liveness": self.vars,
            "reaching": self.sites,
        }[name]
        memo = self._decode_memo[name]
        base = self._decoded_base[name]
        if base is None:
            base = self._decoded_base[name] = {}
            todo: "set[int] | object" = self.graph.edges
        else:
            todo = self._stale[name]
        for eid in todo:
            mask = facts[eid]
            got = memo.get(mask)
            if got is None:
                items = []
                rest = mask
                while rest:
                    low = rest & -rest
                    items.append(universe[low.bit_length() - 1])
                    rest ^= low
                got = frozenset(items)
                memo[mask] = got
            base[eid] = got
        self._stale[name].clear()
        # Hand out a snapshot so callers holding an earlier result never
        # see it mutate under a later edit; the copy is a C-level dict
        # copy, not a per-edge re-decode.
        out = dict(base)
        self._decoded[name] = out
        return out
