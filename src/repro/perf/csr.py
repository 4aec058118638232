"""Compressed-sparse-row snapshots of a CFG.

The dict-of-objects :class:`~repro.cfg.graph.CFG` is the right structure
for *mutation* -- stable ids survive node removal, edges are first-class
-- but its hot-path cost is brutal: every successor step is a dict probe
plus an attribute load on an ``Edge`` object.  A :class:`CSRGraph` is the
analysis-time twin: every node and edge is renumbered into a dense
``0..n-1`` / ``0..m-1`` index space and adjacency becomes three flat
integer arrays per direction (offsets / neighbor index / edge index), so
traversals touch nothing but ``list[int]`` indexing and locals.

Determinism: dense node order is the CFG's node-insertion order and the
per-node adjacency order is exactly the CFG's ``_out`` / ``_in`` edge
order, so every kernel that walks a snapshot visits in the same order as
its legacy dict-based twin -- class ids, DFS numberings and worklist
schedules come out identical, not merely equivalent.

Invalidation: a snapshot records the ``shape_version`` it was built
from.  The ``csr`` pass registered in
:mod:`repro.pipeline.passes` is shape-only (``uses_exprs=False``), so
the analysis manager drops it exactly when the graph's shape changes and
keeps it warm across expression rewrites; :func:`CSRGraph.check` guards
direct callers that hold a snapshot across mutations.
"""

from __future__ import annotations

from repro.cfg.graph import CFG
from repro.robust.errors import StaleSnapshotError


class CSRGraph:
    """An immutable flat-array view of one CFG shape version."""

    __slots__ = (
        "graph", "shape_version", "n", "m",
        "node_ids", "node_index", "edge_ids", "edge_index",
        "edge_src", "edge_dst",
        "succ_off", "succ_node", "succ_edge",
        "pred_off", "pred_node", "pred_edge",
        "start", "end", "memo",
    )

    def __init__(self, graph: CFG) -> None:
        self.graph = graph
        self.shape_version = graph.shape_version
        nodes = graph.nodes
        edges = graph.edges
        self.n = n = len(nodes)
        self.m = m = len(edges)

        #: dense index -> CFG node id (insertion order), and the inverse.
        self.node_ids: list[int] = list(nodes)
        self.node_index: dict[int, int] = {
            nid: i for i, nid in enumerate(self.node_ids)
        }
        #: dense index -> CFG edge id (insertion order), and the inverse.
        self.edge_ids: list[int] = list(edges)
        self.edge_index: dict[int, int] = {
            eid: i for i, eid in enumerate(self.edge_ids)
        }

        node_index = self.node_index
        edge_index = self.edge_index
        self.edge_src: list[int] = [0] * m
        self.edge_dst: list[int] = [0] * m
        for eid, edge in edges.items():
            e = edge_index[eid]
            self.edge_src[e] = node_index[edge.src]
            self.edge_dst[e] = node_index[edge.dst]

        # CSR adjacency in the CFG's own out-/in-edge order.
        out_lists = graph._out
        in_lists = graph._in
        self.succ_off = self._offsets(
            len(out_lists[nid]) for nid in self.node_ids
        )
        self.pred_off = self._offsets(
            len(in_lists[nid]) for nid in self.node_ids
        )
        self.succ_node: list[int] = [0] * m
        self.succ_edge: list[int] = [0] * m
        self.pred_node: list[int] = [0] * m
        self.pred_edge: list[int] = [0] * m
        edge_src, edge_dst = self.edge_src, self.edge_dst
        cursor = list(self.succ_off[:-1])
        for v, nid in enumerate(self.node_ids):
            for eid in out_lists[nid]:
                e = edge_index[eid]
                at = cursor[v]
                self.succ_node[at] = edge_dst[e]
                self.succ_edge[at] = e
                cursor[v] = at + 1
        cursor = list(self.pred_off[:-1])
        for v, nid in enumerate(self.node_ids):
            for eid in in_lists[nid]:
                e = edge_index[eid]
                at = cursor[v]
                self.pred_node[at] = edge_src[e]
                self.pred_edge[at] = e
                cursor[v] = at + 1

        self.start = node_index[graph.start] if graph.start in node_index else -1
        self.end = node_index[graph.end] if graph.end in node_index else -1

        #: Kernel scratch memo.  A snapshot is immutable, so derived
        #: arrays (dominator idoms, Euler tours) computed by one kernel
        #: are valid for every later kernel on the same snapshot; the
        #: dominance module keys entries by (kind, direction).
        self.memo: dict = {}

    @staticmethod
    def _offsets(degrees) -> list[int]:
        offsets = [0]
        total = 0
        for degree in degrees:
            total += degree
            offsets.append(total)
        return offsets

    # -- guards ------------------------------------------------------------

    @property
    def fresh(self) -> bool:
        """Does this snapshot still describe the graph's current shape?"""
        return self.shape_version == self.graph.shape_version

    def check(self) -> "CSRGraph":
        """Raise if the underlying CFG mutated since the snapshot."""
        if not self.fresh:
            raise StaleSnapshotError(
                f"stale CSR snapshot: built at shape_version "
                f"{self.shape_version}, graph is now at "
                f"{self.graph.shape_version}",
                phase="csr-check",
            )
        return self

    # -- convenience -------------------------------------------------------

    def succs(self, v: int) -> list[int]:
        """Dense successor indices of dense node ``v``."""
        return self.succ_node[self.succ_off[v]:self.succ_off[v + 1]]

    def preds(self, v: int) -> list[int]:
        """Dense predecessor indices of dense node ``v``."""
        return self.pred_node[self.pred_off[v]:self.pred_off[v + 1]]

    def __repr__(self) -> str:
        return (
            f"CSRGraph({self.n} nodes, {self.m} edges, "
            f"shape_version={self.shape_version})"
        )


def build_csr(graph: CFG) -> CSRGraph:
    """Snapshot ``graph`` into CSR form (O(V + E))."""
    return CSRGraph(graph)
