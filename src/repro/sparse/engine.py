"""The parameterized sparse dataflow engine (arXiv:1403.5952).

A client hands the engine a :class:`SplittingStrategy` -- which
variables it *defines* information about at each statement and which it
*refines* along each branch edge -- and the engine builds the
live-range-split representation:

* phi-joins on the iterated dominance frontier of each variable's
  information sites (via the existing machinery in
  :mod:`repro.graphs.frontier`),
* sigma-splits on the requested branch edges (a fresh name per refined
  variable per edge),
* names assigned by the classic Cytron dominator-tree renaming walk.

With the no-split :class:`SSAStrategy` the construction *is* Cytron SSA
-- byte-identical, tick-for-tick, to the historical implementation that
now lives in ``repro.ssa.cytron.build_ssa_cytron_reference`` -- and
def-use chains are a projection of it (:func:`sparse_chain_items`).
Clients with real splitting (range analysis) get SSI-style refinement
for free.

:func:`solve` then runs the client's transfer functions to the least
fixpoint over the *sparse propagation graph* (name -> consumer sites)
instead of iterating every (CFG edge, variable) pair: each site
re-evaluates only when one of its input names actually changes, which is
the whole point of sparseness and what the ``sparse-clients`` bench
workload measures.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field

from repro.cfg.graph import CFG, Node, NodeKind
from repro.graphs.dominance import cfg_dominators
from repro.graphs.frontier import dominance_frontiers, iterated_frontier
from repro.ssa.ssagraph import Phi, SSAForm
from repro.util.counters import WorkCounter


class SplittingStrategy:
    """Where an analysis gains information (defaults model plain SSA).

    Subclasses override:

    * :meth:`variables` -- the variables the client tracks;
    * :meth:`defs_at` -- variables (re)defined by a statement;
    * :meth:`uses_at` -- variables whose value the statement consumes;
    * :meth:`splits_on` -- variables *refined* along a branch edge
      (sigma splitting; the SSI half of the construction).
    """

    def variables(self, graph: CFG):
        return graph.variables()

    def defs_at(self, graph: CFG, node: Node):
        if node.kind is NodeKind.ASSIGN:
            return (node.target,)
        return ()

    def uses_at(self, graph: CFG, node: Node):
        return node.uses()

    def splits_on(self, graph: CFG, edge):
        return ()


class SSAStrategy(SplittingStrategy):
    """Defs at assignments, no edge splitting: classic (pruned) SSA."""


class DefUseStrategy(SplittingStrategy):
    """Identical sites to SSA; chains project out of the built form."""


@dataclass
class SparseForm:
    """The live-range-split overlay: SSA plus sigma names on edges.

    * ``def_names[(node, var)]`` -- name defined by a statement site;
    * ``use_names[(node, var)]`` -- name consumed by a use site;
    * ``phis[node][var]`` -- phi-joins at merges;
    * ``sigmas[(edge, var)]`` -- ``(fresh, input)`` names for an edge
      refinement;
    * ``entry_names[var]`` -- the variable's value at ``start``.
    """

    graph: CFG
    def_names: dict[tuple[int, str], str] = field(default_factory=dict)
    use_names: dict[tuple[int, str], str] = field(default_factory=dict)
    phis: dict[int, dict[str, Phi]] = field(default_factory=dict)
    sigmas: dict[tuple[int, str], tuple[str, str]] = field(
        default_factory=dict
    )
    entry_names: dict[str, str] = field(default_factory=dict)

    def all_phis(self) -> list[Phi]:
        return [p for by_var in self.phis.values() for p in by_var.values()]

    def phi_placement(self) -> frozenset[tuple[int, str]]:
        return frozenset(
            (nid, var) for nid, by_var in self.phis.items() for var in by_var
        )

    def definers(self) -> dict[str, tuple[str, object]]:
        """name -> ("assign"|"phi"|"sigma"|"entry", site)."""
        where: dict[str, tuple[str, object]] = {}
        for (nid, _var), name in self.def_names.items():
            where[name] = ("assign", nid)
        for phi in self.all_phis():
            where[phi.result] = ("phi", phi.node)
        for (eid, _var), (fresh, _src) in self.sigmas.items():
            where[fresh] = ("sigma", eid)
        for name in self.entry_names.values():
            where[name] = ("entry", self.graph.start)
        return where

    def size(self) -> int:
        phi_args = sum(len(p.args) for p in self.all_phis())
        return (
            len(self.use_names)
            + phi_args
            + len(self.all_phis())
            + len(self.sigmas)
        )

    def to_ssa(self) -> SSAForm:
        """Project the split-free part onto the classic SSA overlay."""
        ssa = SSAForm(self.graph)
        ssa.use_names = dict(self.use_names)
        ssa.phis = self.phis
        ssa.entry_names = dict(self.entry_names)
        for (nid, _var), name in self.def_names.items():
            ssa.def_names[nid] = name
        return ssa

    def validate(self) -> None:
        """Every used name has a definer; phi args cover in-edges."""
        defined = self.definers()
        for key, name in self.use_names.items():
            if name not in defined:
                raise ValueError(
                    f"use {key} of undefined sparse name {name!r}"
                )
        for phi in self.all_phis():
            in_edges = {e.id for e in self.graph.in_edges(phi.node)}
            if set(phi.args) != in_edges:
                raise ValueError(
                    f"phi at {phi.node} args {set(phi.args)} != in-edges "
                    f"{in_edges}"
                )
            for name in phi.args.values():
                if name not in defined:
                    raise ValueError(
                        f"phi argument uses undefined name {name!r}"
                    )
        for (eid, _var), (_fresh, src) in self.sigmas.items():
            if src not in defined:
                raise ValueError(
                    f"sigma on edge {eid} splits undefined name {src!r}"
                )


def build_sparse_form(
    graph: CFG,
    strategy: SplittingStrategy,
    counter: WorkCounter | None = None,
    prune_live: dict | None = None,
) -> SparseForm:
    """Build the live-range-split representation for ``strategy``.

    ``prune_live`` (a per-edge live-variable map) restricts phi placement
    to live variables -- pruned SSA, used by the Cytron wrapper.
    """
    counter = counter if counter is not None else WorkCounter()
    dom = cfg_dominators(graph)
    frontier = dominance_frontiers(dom, graph.preds)
    counter.tick("frontier_entries", sum(len(s) for s in frontier.values()))

    form = SparseForm(graph)
    def_sites: dict[str, set[int]] = defaultdict(set)
    for node in graph.nodes.values():
        for var in strategy.defs_at(graph, node):
            def_sites[var].add(node.id)
    for var in sorted(strategy.variables(graph)):
        def_sites[var].add(graph.start)

    # -- sigma sites --------------------------------------------------------
    # splits[eid] lists the variables refined along edge eid; a split is
    # an information site at the edge's destination for phi placement,
    # and a merge destination needs the phi even outside the frontier
    # (its other in-edges carry the unrefined name).
    splits: dict[int, tuple[str, ...]] = {}
    split_sites: dict[str, set[int]] = defaultdict(set)
    forced: dict[str, set[int]] = defaultdict(set)
    for eid in sorted(graph.edges):
        edge = graph.edge(eid)
        vars_ = tuple(sorted(set(strategy.splits_on(graph, edge))))
        if not vars_:
            continue
        splits[eid] = vars_
        for var in vars_:
            split_sites[var].add(edge.dst)
            if graph.node(edge.dst).kind is NodeKind.MERGE:
                forced[var].add(edge.dst)

    # -- phi placement ------------------------------------------------------
    for var, sites in def_sites.items():
        seeds = sites | split_sites.get(var, set())
        placed = iterated_frontier(frontier, seeds)
        for nid in placed:
            counter.tick("phi_candidates")
            if graph.node(nid).kind is not NodeKind.MERGE:
                # All joins are merges in normalized form; anything else
                # (e.g. END with one in-edge) cannot need a phi.
                continue
            if prune_live is not None:
                out_edge = graph.out_edge(nid)
                if var not in prune_live[out_edge.id]:
                    continue  # pruned: dead here, no phi
            form.phis.setdefault(nid, {})[var] = Phi(var, nid, result="")
        for nid in sorted(forced.get(var, set()) - placed):
            counter.tick("phi_candidates")
            if var not in form.phis.get(nid, {}):
                form.phis.setdefault(nid, {})[var] = Phi(var, nid, result="")

    # -- renaming -----------------------------------------------------------
    stacks: dict[str, list[str]] = defaultdict(list)
    version: dict[str, int] = defaultdict(int)

    def fresh(var: str) -> str:
        name = f"{var}.{version[var]}"
        version[var] += 1
        return name

    for var in sorted(strategy.variables(graph)):
        name = fresh(var)
        form.entry_names[var] = name
        stacks[var].append(name)

    dom_children = {nid: [] for nid in graph.nodes}
    for nid in graph.nodes:
        parent = dom.idom_of(nid) if nid != graph.start else None
        if parent is not None:
            dom_children[parent].append(nid)

    # Sigma names pushed at the entry of a single-predecessor successor
    # (its unique in-edge was split; the successor is dominated by the
    # branch, so the refined name scopes over exactly its subtree).
    sigma_entry: dict[int, list[tuple[str, str]]] = defaultdict(list)

    # Explicit-stack walk of the dominator tree: a frame with
    # ``pushed is None`` is a node entry, one with the list is its exit
    # (pop the names its subtree no longer sees).  No recursion, so
    # arbitrarily deep graphs rename without touching the interpreter's
    # recursion limit.
    stack: list[tuple[int, list[str] | None]] = [(graph.start, None)]
    while stack:
        nid, pushed = stack.pop()
        if pushed is not None:
            for var in reversed(pushed):
                stacks[var].pop()
            continue
        node = graph.node(nid)
        pushed = []
        for var, name in sigma_entry.get(nid, ()):
            stacks[var].append(name)
            pushed.append(var)
        if nid in form.phis:
            for var, phi in form.phis[nid].items():
                phi.result = fresh(var)
                stacks[var].append(phi.result)
                pushed.append(var)
        for var in sorted(strategy.uses_at(graph, node)):
            counter.tick("use_renames")
            form.use_names[(nid, var)] = stacks[var][-1]
        for var in strategy.defs_at(graph, node):
            name = fresh(var)
            form.def_names[(nid, var)] = name
            stacks[var].append(name)
            pushed.append(var)
        for edge in graph.out_edges(nid):
            succ = edge.dst
            for var in splits.get(edge.id, ()):
                counter.tick("sigma_splits")
                name = fresh(var)
                form.sigmas[(edge.id, var)] = (name, stacks[var][-1])
                if graph.node(succ).kind is not NodeKind.MERGE:
                    sigma_entry[succ].append((var, name))
            if succ in form.phis:
                for var, phi in form.phis[succ].items():
                    sigma = form.sigmas.get((edge.id, var))
                    phi.args[edge.id] = (
                        sigma[0] if sigma is not None else stacks[var][-1]
                    )
        stack.append((nid, pushed))
        for child in reversed(dom_children[nid]):
            stack.append((child, None))

    form.validate()
    return form


# ---------------------------------------------------------------------------
# The sparse fixpoint solver.


def _site_inputs(form: SparseForm, values: dict, node: Node) -> dict:
    inputs = {}
    for var in sorted(node.uses()):
        name = form.use_names.get((node.id, var))
        if name is not None:
            inputs[var] = values[name]
    return inputs


def solve(
    form: SparseForm,
    client,
    counter: WorkCounter | None = None,
) -> dict[str, object]:
    """Run ``client``'s transfers to the least fixpoint over ``form``.

    The client supplies ``bottom``, ``entry_value(graph, var)``,
    ``transfer_def(graph, node, var, inputs)``, ``join(a, b)`` and
    (for splitting clients) ``transfer_sigma(graph, edge, var, value,
    inputs)``; transfers must be monotone over a finite lattice.
    Returns the final ``name -> value`` map.
    """
    counter = counter if counter is not None else WorkCounter()
    graph = form.graph
    values: dict[str, object] = {}
    for name in form.definers():
        values[name] = client.bottom
    for var, name in form.entry_names.items():
        values[name] = client.entry_value(graph, var)

    # Sites in deterministic program order, plus the name each defines
    # and the names it consumes (the sparse propagation graph).
    sites: list[tuple] = []
    defined_by: dict[tuple, str] = {}
    consumers: dict[str, list[tuple]] = defaultdict(list)
    defs_by_node: dict[int, list[str]] = defaultdict(list)
    for (nid, var) in form.def_names:
        defs_by_node[nid].append(var)
    for nid in graph.nodes:
        node = graph.node(nid)
        for var, phi in form.phis.get(nid, {}).items():
            site = ("phi", nid, var)
            sites.append(site)
            defined_by[site] = phi.result
            for arg in phi.args.values():
                consumers[arg].append(site)
        for var in defs_by_node.get(nid, ()):
            site = ("def", nid, var)
            sites.append(site)
            defined_by[site] = form.def_names[(nid, var)]
            for uvar in sorted(node.uses()):
                use = form.use_names.get((nid, uvar))
                if use is not None:
                    consumers[use].append(site)
    for (eid, var), (fresh_name, src_name) in sorted(form.sigmas.items()):
        site = ("sigma", eid, var)
        sites.append(site)
        defined_by[site] = fresh_name
        consumers[src_name].append(site)
        src_node = graph.node(graph.edge(eid).src)
        for uvar in sorted(src_node.uses()):
            use = form.use_names.get((src_node.id, uvar))
            if use is not None and use != src_name:
                consumers[use].append(site)

    def evaluate(site: tuple):
        kind, a, b = site
        if kind == "phi":
            phi = form.phis[a][b]
            value = client.bottom
            for eid in sorted(phi.args):
                value = client.join(value, values[phi.args[eid]])
            return value
        if kind == "def":
            node = graph.node(a)
            return client.transfer_def(
                graph, node, b, _site_inputs(form, values, node)
            )
        edge = graph.edge(a)
        _fresh, src_name = form.sigmas[(a, b)]
        src_node = graph.node(edge.src)
        return client.transfer_sigma(
            graph, edge, b, values[src_name],
            _site_inputs(form, values, src_node),
        )

    work = deque(sites)
    pending = set(sites)
    while work:
        site = work.popleft()
        pending.discard(site)
        counter.tick("sparse_visits")
        new = evaluate(site)
        name = defined_by[site]
        if new != values[name]:
            values[name] = new
            for consumer in consumers.get(name, ()):
                if consumer not in pending:
                    pending.add(consumer)
                    work.append(consumer)
    return values


# ---------------------------------------------------------------------------
# Def-use chains as a projection of the no-split form.


def sparse_chain_items(form: SparseForm) -> list[tuple[str, int, int]]:
    """``(var, def_node, use_node)`` triples, canonically sorted.

    The *origins* of a name -- the assignment nodes (or ``start``) whose
    value it may carry -- are the least fixpoint of origin sets over the
    name graph (phi results union their arguments, sigmas pass through),
    which is exactly the reaching-definitions relation restricted to
    uses: the classic equivalence of def-use chains and SSA.
    """
    origins: dict[str, set[int]] = defaultdict(set)
    feeds: dict[str, list[str]] = defaultdict(list)
    for (nid, _var), name in form.def_names.items():
        origins[name].add(nid)
    for name in form.entry_names.values():
        origins[name].add(form.graph.start)
    for phi in form.all_phis():
        for arg in phi.args.values():
            feeds[arg].append(phi.result)
    for (_eid, _var), (fresh_name, src_name) in form.sigmas.items():
        feeds[src_name].append(fresh_name)

    work = deque(sorted(origins))
    pending = set(work)
    while work:
        name = work.popleft()
        pending.discard(name)
        for out in feeds.get(name, ()):
            if not origins[name] <= origins[out]:
                origins[out] |= origins[name]
                if out not in pending:
                    pending.add(out)
                    work.append(out)

    items = []
    for (nid, var), name in form.use_names.items():
        for def_node in origins.get(name, ()):
            items.append((var, def_node, nid))
    items.sort(key=lambda t: (t[2], t[0], t[1]))
    return items
