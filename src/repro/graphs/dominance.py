"""Dominators and postdominators, for nodes *and* edges.

Definition 2 of the paper extends dominance to edges: "a node or edge x is
said to dominate node or edge y if every path from start to y includes x".
The natural implementation is exactly the one the paper suggests for
control dependence ("insert a dummy node on each edge and compute the
property for nodes"): :func:`edge_dominators` runs node dominance on a
*split graph* where every CFG edge is materialized as a node.  Adding E
nodes leaves the asymptotic complexity unchanged.

The core is the Cooper-Harvey-Kennedy iterative algorithm on reverse
postorder, plus a dominator tree with Euler intervals so ``dominates`` is
an O(1) query.

Two implementations of the core fixpoint coexist:

* :func:`dominator_tree` -- generic over succ/pred functions and any
  hashable node type (the legacy path, and the oracle for the
  equivalence tests);
* the CSR fast path used by :func:`cfg_dominators`,
  :func:`cfg_postdominators`, :func:`edge_dominators` and
  :func:`edge_postdominators`, which runs
  :func:`repro.perf.kernels.csr_dominators` on a flat-array snapshot
  (deriving the split-graph trees from the node trees for the edge
  variants).  Immediate dominators are unique, so both paths produce
  identical trees.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable, Iterable, TypeVar

from repro.cfg.graph import CFG
from repro.graphs.dfs import depth_first_search

if TYPE_CHECKING:
    from repro.perf.csr import CSRGraph

N = TypeVar("N", bound=Hashable)

#: Split-graph key for a CFG node.
def node_key(nid: int) -> tuple[str, int]:
    return ("n", nid)


#: Split-graph key for a CFG edge.
def edge_key(eid: int) -> tuple[str, int]:
    return ("e", eid)


class DominatorTree:
    """An immediate-dominator tree with O(1) ancestor queries.

    ``idom[root] is None``; every other reachable node has an immediate
    dominator.  ``dominates(a, b)`` is reflexive, matching the convention
    used throughout the paper.
    """

    def __init__(self, root: N, idom: dict[N, N | None]) -> None:
        self.root = root
        self.idom = idom
        self.children: dict[N, list[N]] = {n: [] for n in idom}
        for node, parent in idom.items():
            if parent is not None:
                self.children[parent].append(node)
        order = depth_first_search([root], lambda n: self.children[n])
        self._pre = order.pre_number
        self._post = order.post_number
        self._depth: dict[N, int] = {root: 0}
        for node in order.preorder[1:]:
            self._depth[node] = self._depth[idom[node]] + 1  # type: ignore[index]

    def dominates(self, a: N, b: N) -> bool:
        """True when every path from the root to ``b`` passes through
        ``a`` (reflexively)."""
        return (
            self._pre[a] <= self._pre[b] and self._post[b] <= self._post[a]
        )

    def strictly_dominates(self, a: N, b: N) -> bool:
        return a != b and self.dominates(a, b)

    def depth(self, node: N) -> int:
        """Distance from the root in the dominator tree."""
        return self._depth[node]

    def idom_of(self, node: N) -> N | None:
        return self.idom[node]

    def nodes(self) -> Iterable[N]:
        return self.idom.keys()


def dominator_tree(
    root: N,
    succs: Callable[[N], Iterable[N]],
    preds: Callable[[N], Iterable[N]],
) -> DominatorTree:
    """Cooper-Harvey-Kennedy iterative dominators from ``root``.

    Nodes unreachable from ``root`` are absent from the result.
    """
    rpo = list(reversed(depth_first_search([root], succs).postorder))
    position = {node: i for i, node in enumerate(rpo)}
    idom: dict[N, N | None] = {root: root}  # temporarily self, None-ed below

    def intersect(a: N, b: N) -> N:
        while a != b:
            while position[a] > position[b]:
                a = idom[a]  # type: ignore[assignment]
            while position[b] > position[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    changed = True
    while changed:
        changed = False
        for node in rpo:
            if node == root:
                continue
            candidates = [
                p for p in preds(node) if p in position and p in idom
            ]
            if not candidates:
                continue
            new_idom = candidates[0]
            for p in candidates[1:]:
                new_idom = intersect(new_idom, p)
            if idom.get(node) != new_idom:
                idom[node] = new_idom
                changed = True
    idom[root] = None
    return DominatorTree(root, idom)


def _csr_of(graph: CFG, csr: "CSRGraph | None") -> "CSRGraph":
    if csr is not None:
        return csr.check()
    from repro.perf.csr import build_csr

    return build_csr(graph)


def _dense_tree_arrays(
    idom_arr: list[int], root_vertex: int, total: int
) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
    """Children (CSR, ascending dense order), Euler ``pre``/``post``
    intervals and depths of a dense dominator tree, all as flat arrays.
    Entries for unreachable vertices (``idom_arr[v] < 0``) are garbage;
    callers must filter on reachability first."""
    count = [0] * total
    for v in range(total):
        p = idom_arr[v]
        if p >= 0 and v != root_vertex:
            count[p] += 1
    off = [0] * (total + 1)
    for v in range(total):
        off[v + 1] = off[v] + count[v]
    kids = [0] * off[total]
    cursor = list(off[:-1])
    for v in range(total):
        p = idom_arr[v]
        if p >= 0 and v != root_vertex:
            kids[cursor[p]] = v
            cursor[p] += 1

    pre = [0] * total
    post = [0] * total
    depth = [0] * total
    clock = 0
    stack_v: list[int] = []
    stack_c: list[int] = []
    v = root_vertex
    c = off[v]
    pre[v] = clock
    clock += 1
    while True:
        if c < off[v + 1]:
            w = kids[c]
            c += 1
            stack_v.append(v)
            stack_c.append(c)
            depth[w] = depth[v] + 1
            pre[w] = clock
            clock += 1
            v = w
            c = off[v]
        else:
            post[v] = clock
            clock += 1
            if not stack_v:
                break
            v = stack_v.pop()
            c = stack_c.pop()
    return off, kids, pre, post, depth


class _DenseDominatorTree(DominatorTree):
    """A :class:`DominatorTree` backed by dense flat arrays.

    ``dominates``/``depth`` answer straight from Euler interval arrays
    through one key->vertex dict probe; the ``children`` dict (rarely
    consulted) is materialized lazily.  The public ``idom`` mapping and
    every query answer are identical to the eager dict-based tree."""

    def __init__(
        self,
        root,
        idom,
        keys: list,
        index: dict,
        off: list[int],
        kids: list[int],
        pre: list[int],
        post: list[int],
        depth: list[int],
    ) -> None:
        self.root = root
        self.idom = idom
        self._keys = keys
        self._index = index
        self._off = off
        self._kids = kids
        self._pre_arr = pre
        self._post_arr = post
        self._depth_arr = depth
        self._children: dict | None = None

    @property
    def children(self) -> dict:  # type: ignore[override]
        if self._children is None:
            keys, off, kids = self._keys, self._off, self._kids
            kid_keys = [keys[w] for w in kids]
            index = self._index
            self._children = {
                k: kid_keys[off[index[k]]:off[index[k] + 1]]
                for k in self.idom
            }
        return self._children

    def dominates(self, a, b) -> bool:
        index = self._index
        i = index[a]
        j = index[b]
        return (
            self._pre_arr[i] <= self._pre_arr[j]
            and self._post_arr[j] <= self._post_arr[i]
        )

    def depth(self, node) -> int:
        return self._depth_arr[self._index[node]]


def _tree_from_dense(
    idom_arr: list[int],
    root_vertex: int,
    total: int,
    keys: list,
    dense: tuple | None = None,
) -> DominatorTree:
    """Assemble a dominator tree straight from a dense ``idom`` array
    (``keys[v]`` is dense vertex ``v``'s external key), skipping the
    generic dict-based DFS of ``DominatorTree.__init__``.

    Semantically equivalent to ``DominatorTree(root, idom_dict)`` -- same
    tree, same ``dominates``/``depth`` answers.  ``dense`` supplies
    precomputed :func:`_dense_tree_arrays` output when the caller
    already has it.
    """
    off, kids, pre, post, depth = (
        dense
        if dense is not None
        else _dense_tree_arrays(idom_arr, root_vertex, total)
    )
    if all(p >= 0 for p in idom_arr):
        # Everything reachable: bulk-zip the key->vertex map.
        index = dict(zip(keys, range(total)))
        idom_d = {keys[v]: keys[idom_arr[v]] for v in range(total)}
    else:
        index = {}
        idom_d = {}
        for v in range(total):
            p = idom_arr[v]
            if p < 0:
                continue
            k = keys[v]
            index[k] = v
            idom_d[k] = keys[p]
    root_key = keys[root_vertex]
    idom_d[root_key] = None
    return _DenseDominatorTree(
        root_key, idom_d, keys, index, off, kids, pre, post, depth
    )


def _node_idom_from_csr(
    csr: "CSRGraph", forward: bool
) -> tuple[list[int], int]:
    """Dense node-graph immediate dominators for one direction, memoized
    on the (immutable) snapshot: the node-tree and split-tree builders
    both need them, and the pipeline's dom/edom passes share one
    snapshot."""
    key = ("node_idom", forward)
    hit = csr.memo.get(key)
    if hit is not None:
        return hit
    from repro.perf.kernels import csr_dominators

    if forward:
        idom_arr, _ = csr_dominators(
            csr.succ_off, csr.succ_node, csr.pred_off, csr.pred_node,
            csr.start, csr.n,
        )
        root_vertex = csr.start
    else:
        idom_arr, _ = csr_dominators(
            csr.pred_off, csr.pred_node, csr.succ_off, csr.succ_node,
            csr.end, csr.n,
        )
        root_vertex = csr.end
    result = (idom_arr, root_vertex)
    csr.memo[key] = result
    return result


def _node_euler_from_csr(csr: "CSRGraph", forward: bool) -> tuple:
    """Memoized :func:`_dense_tree_arrays` of the node dominator tree."""
    key = ("node_euler", forward)
    hit = csr.memo.get(key)
    if hit is not None:
        return hit
    idom_arr, root_vertex = _node_idom_from_csr(csr, forward)
    dense = _dense_tree_arrays(idom_arr, root_vertex, csr.n)
    csr.memo[key] = dense
    return dense


def _node_tree_from_csr(csr: "CSRGraph", forward: bool) -> DominatorTree:
    idom_arr, root_vertex = _node_idom_from_csr(csr, forward)
    return _tree_from_dense(
        idom_arr, root_vertex, csr.n, csr.node_ids,
        dense=_node_euler_from_csr(csr, forward),
    )


def cfg_dominators(graph: CFG, csr: "CSRGraph | None" = None) -> DominatorTree:
    """Dominator tree over CFG node ids, rooted at ``start``."""
    return _node_tree_from_csr(_csr_of(graph, csr), forward=True)


def cfg_postdominators(
    graph: CFG, csr: "CSRGraph | None" = None
) -> DominatorTree:
    """Postdominator tree over CFG node ids: dominators of the reversed
    graph, rooted at ``end``."""
    return _node_tree_from_csr(_csr_of(graph, csr), forward=False)


def _split_succs(graph: CFG) -> Callable:
    def succs(key: tuple[str, int]):
        kind, ident = key
        if kind == "n":
            return [edge_key(e.id) for e in graph.out_edges(ident)]
        return [node_key(graph.edge(ident).dst)]

    return succs


def _split_preds(graph: CFG) -> Callable:
    def preds(key: tuple[str, int]):
        kind, ident = key
        if kind == "n":
            return [edge_key(e.id) for e in graph.in_edges(ident)]
        return [node_key(graph.edge(ident).src)]

    return preds


def _split_tree_from_csr(csr: "CSRGraph", forward: bool) -> DominatorTree:
    """Split-graph dominators derived from *node* dominators in O(V+E).

    Rather than running the fixpoint on the materialized split graph,
    use the structure Definition 2 imposes:

    * an edge vertex ``(u, v)`` has the single predecessor ``u``, so its
      immediate dominator is ``u``;
    * an in-edge ``e = (u, v)`` dominates ``v`` iff every *other*
      in-edge of ``v`` starts at a node dominated by ``v`` (any path
      must first reach ``v`` through ``e``; conversely a second
      ``v``-free entry path kills dominance).  When exactly one such
      edge exists it is ``idom(v)`` in the split graph; otherwise no
      edge dominates ``v`` and ``idom(v)`` is the node-graph immediate
      dominator.

    Immediate dominators are unique, so this tree is identical to the
    one the generic fixpoint computes on the split graph (the
    ``*_reference`` functions below; the equivalence tests compare the
    two on reducible and irreducible CFGs alike).
    """
    from repro.perf.kernels import UNVISITED

    n, m = csr.n, csr.m
    node_idom, root_vertex = _node_idom_from_csr(csr, forward)
    if forward:
        in_off, in_node, in_edge = csr.pred_off, csr.pred_node, csr.pred_edge
        edge_source = csr.edge_src
    else:
        in_off, in_node, in_edge = csr.succ_off, csr.succ_node, csr.succ_edge
        edge_source = csr.edge_dst
    _, _, pre, post, _ = _node_euler_from_csr(csr, forward)

    total = n + m
    sidom = [UNVISITED] * total
    for e in range(m):
        u = edge_source[e]
        if node_idom[u] != UNVISITED:
            sidom[n + e] = u
    sidom[root_vertex] = root_vertex
    for v in range(n):
        if v == root_vertex or node_idom[v] == UNVISITED:
            continue
        pv, qv = pre[v], post[v]
        dominating_edge = -1
        entries = 0
        for i in range(in_off[v], in_off[v + 1]):
            u = in_node[i]
            if node_idom[u] == UNVISITED:
                continue
            if pv <= pre[u] and post[u] <= qv:
                continue  # u is dominated by v (e.g. a loop latch)
            entries += 1
            if entries > 1:
                break
            dominating_edge = in_edge[i]
        if entries == 1:
            sidom[v] = n + dominating_edge
        else:
            sidom[v] = node_idom[v]

    node_ids, edge_ids = csr.node_ids, csr.edge_ids
    keys: list = [("n", node_ids[v]) for v in range(n)]
    keys += [("e", edge_ids[e]) for e in range(m)]
    return _tree_from_dense(sidom, root_vertex, total, keys)


def edge_dominators(graph: CFG, csr: "CSRGraph | None" = None) -> DominatorTree:
    """Dominance over the split graph: keys are ``("n", node_id)`` and
    ``("e", edge_id)``, so node-node, node-edge and edge-edge dominance
    are all answerable (Definition 2)."""
    return _split_tree_from_csr(_csr_of(graph, csr), forward=True)


def edge_postdominators(
    graph: CFG, csr: "CSRGraph | None" = None
) -> DominatorTree:
    """Postdominance over the split graph, rooted at ``end``."""
    return _split_tree_from_csr(_csr_of(graph, csr), forward=False)


def edge_dominators_reference(graph: CFG) -> DominatorTree:
    """The legacy generic-path split-graph dominators (equivalence oracle)."""
    return dominator_tree(
        node_key(graph.start), _split_succs(graph), _split_preds(graph)
    )


def edge_postdominators_reference(graph: CFG) -> DominatorTree:
    """The legacy generic-path split-graph postdominators."""
    return dominator_tree(
        node_key(graph.end), _split_preds(graph), _split_succs(graph)
    )
