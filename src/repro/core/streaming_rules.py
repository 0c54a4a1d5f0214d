"""History-sensitive streaming vertex-cut edge rules from Table I.

The paper's Table I lists the streaming vertex-cut family — PowerGraph's
greedy heuristic [4], HDRF [16], and DBH [17] — and claims every one of
them is expressible in CuSP's two-function interface.  DBH is in
:mod:`repro.core.edge_rules` (stateless); this module adds the two
*stateful* members, which exercise the ``estate`` machinery end to end:

* :class:`GreedyVertexCut` — PowerGraph's oblivious greedy placement:
  prefer partitions already holding both endpoints, then either endpoint,
  then the least loaded;
* :class:`HDRFRule` — High-Degree Replicated First: like greedy, but an
  endpoint's vote is weighted by its *relative partial degree* so that
  low-degree vertices avoid replication and hubs absorb it, plus an
  explicit load-balance term.

Both maintain, in their partitioning state, the per-partition edge loads
and the set of partitions each vertex has been replicated to — the exact
state the original systems keep — updated locally and reconciled at
CuSP's periodic synchronization boundaries.
"""

from __future__ import annotations

import numpy as np

from ..runtime.comm import Communicator
from .edge_rules import EdgeRule
from .state import PartitioningState

__all__ = ["GreedyVertexCut", "HDRFRule", "ReplicationState"]


class ReplicationState(PartitioningState):
    """estate for streaming vertex-cuts: replica sets + loads + degrees.

    ``replicas`` is a (num_partitions, num_nodes) boolean presence map,
    ``edge_load`` the per-partition edge counts, ``partial_degree`` the
    number of stream edges seen per vertex so far.  Hosts update local
    deltas; ``sync_round`` ORs/sums them into the shared snapshot.
    """

    stateful = True

    def __init__(self, num_partitions: int, num_hosts: int, num_nodes: int):
        if num_partitions < 1 or num_hosts < 1 or num_nodes < 0:
            raise ValueError("invalid state dimensions")
        self.num_partitions = num_partitions
        self.num_hosts = num_hosts
        self.num_nodes = num_nodes
        self._snap_replicas = np.zeros((num_partitions, num_nodes), dtype=bool)
        self._snap_load = np.zeros(num_partitions, dtype=np.int64)
        self._snap_degree = np.zeros(num_nodes, dtype=np.int64)
        self._delta_replicas = [
            np.zeros((num_partitions, num_nodes), dtype=bool)
            for _ in range(num_hosts)
        ]
        self._delta_load = [
            np.zeros(num_partitions, dtype=np.int64) for _ in range(num_hosts)
        ]
        self._delta_degree = [
            np.zeros(num_nodes, dtype=np.int64) for _ in range(num_hosts)
        ]

    def host_view(self, host: int) -> "_ReplicationView":
        if not (0 <= host < self.num_hosts):
            raise ValueError(f"host {host} out of range")
        return _ReplicationView(self, host)

    def sync_round(self, comm: Communicator, blocking: bool = True) -> None:
        # Presence bitmaps reduce with OR, loads/degrees with sum; the
        # wire cost is one bitmap + two count vectors per host.
        payload_bytes = (
            self._snap_replicas.size / 8
            + self._snap_load.nbytes
            + self._snap_degree.nbytes
        )
        stacked = [
            np.concatenate(
                [
                    self._delta_load[h].astype(np.float64),
                    self._delta_degree[h].astype(np.float64),
                ]
            )
            for h in range(self.num_hosts)
        ]
        comm.allreduce_sum(stacked, blocking=blocking, nbytes=payload_bytes)
        # One reduction across the host axis per field (bit-equal to the
        # per-host fold: boolean OR and int64 sums are associative).
        self._snap_replicas |= np.logical_or.reduce(self._delta_replicas)
        self._snap_load += np.add.reduce(self._delta_load)
        self._snap_degree += np.add.reduce(self._delta_degree)
        for h in range(self.num_hosts):
            self._delta_replicas[h][:] = False
            self._delta_load[h][:] = 0
            self._delta_degree[h][:] = 0
        if blocking:
            comm.barrier()

    def reset(self) -> None:
        self._snap_replicas[:] = False
        self._snap_load[:] = 0
        self._snap_degree[:] = 0
        for h in range(self.num_hosts):
            self._delta_replicas[h][:] = False
            self._delta_load[h][:] = 0
            self._delta_degree[h][:] = 0


class _ReplicationView:
    """One host's view: snapshot + its own pending updates."""

    def __init__(self, owner: ReplicationState, host: int):
        self._owner = owner
        self._host = host

    def replicas_of(self, node: int) -> np.ndarray:
        return (
            self._owner._snap_replicas[:, node]
            | self._owner._delta_replicas[self._host][:, node]
        )

    @property
    def load(self) -> np.ndarray:
        return self._owner._snap_load + self._owner._delta_load[self._host]

    def degree(self, node: int) -> int:
        return int(
            self._owner._snap_degree[node]
            + self._owner._delta_degree[self._host][node]
        )

    def place(self, partition: int, src: int, dst: int) -> None:
        d = self._owner._delta_replicas[self._host]
        d[partition, src] = True
        d[partition, dst] = True
        self._owner._delta_load[self._host][partition] += 1
        self._owner._delta_degree[self._host][src] += 1
        self._owner._delta_degree[self._host][dst] += 1

    # Vectorized accessors for chunked batch scoring -------------------
    def degrees_of(self, nodes: np.ndarray) -> np.ndarray:
        return (
            self._owner._snap_degree[nodes]
            + self._owner._delta_degree[self._host][nodes]
        )

    def replicas_matrix(self, nodes: np.ndarray) -> np.ndarray:
        """(num_partitions, len(nodes)) presence matrix."""
        return (
            self._owner._snap_replicas[:, nodes]
            | self._owner._delta_replicas[self._host][:, nodes]
        )

    def replica_masks(self, nodes: np.ndarray) -> list[int]:
        """Each node's replica set as a Python ``int`` bitmask.

        Bit ``p`` is set iff the node has a replica on partition ``p``;
        packing runs over the partition axis, so any partition count
        (including more than 64) yields exact masks.
        """
        packed = np.packbits(self.replicas_matrix(nodes), axis=0,
                             bitorder="little")
        width = packed.shape[0]
        raw = np.ascontiguousarray(packed.T).tobytes()
        return [
            int.from_bytes(raw[i:i + width], "little")
            for i in range(0, len(raw), width)
        ]

    def place_batch(self, partitions: np.ndarray, src: np.ndarray,
                    dst: np.ndarray) -> None:
        d = self._owner._delta_replicas[self._host]
        d[partitions, src] = True
        d[partitions, dst] = True
        self._owner._delta_load[self._host] += np.bincount(
            partitions, minlength=self._owner.num_partitions
        )
        deg = self._owner._delta_degree[self._host]
        np.add.at(deg, src, 1)
        np.add.at(deg, dst, 1)


class GreedyVertexCut(EdgeRule):
    """PowerGraph's oblivious greedy vertex-cut heuristic [4].

    Case analysis per edge (classic formulation): if some partition holds
    both endpoints, use the least-loaded such partition; if the endpoints'
    replica sets are disjoint (and non-empty), place with the endpoint
    that has more unseen edges (higher partial degree -> keep spreading
    the hub); if only one endpoint is placed, follow it; else least
    loaded.
    """

    name = "Greedy"
    stateful = True
    invariant = "vertex-cut"

    def __init__(self, balance_cap: float = 1.25):
        # On a connected graph a purely affinity-driven sequential stream
        # cascades onto one partition (every edge shares an endpoint with
        # an already-placed edge).  Real deployments keep balance through
        # parallel loaders with stale state; the sequential formulation
        # needs an explicit overload guard: when the affinity choice is
        # more than ``balance_cap`` times the average load, fall back to
        # the least-loaded partition.
        if balance_cap < 1.0:
            raise ValueError("balance_cap must be >= 1")
        self.balance_cap = balance_cap

    def make_state(self, num_partitions, num_hosts, num_nodes=None):
        if num_nodes is None:
            raise ValueError("GreedyVertexCut needs num_nodes for its state")
        return ReplicationState(num_partitions, num_hosts, num_nodes)

    def owner(self, prop, src_id, dst_id, src_master, dst_master, estate=None):
        if estate is None:
            raise ValueError("GreedyVertexCut requires estate")
        a = estate.replicas_of(src_id)
        b = estate.replicas_of(dst_id)
        load = estate.load
        both = a & b
        if both.any():
            choice = _least_loaded(both, load)
        elif a.any() and b.any():
            # Disjoint: follow the endpoint with the larger remaining
            # degree (spread the hub's replicas).
            if estate.degree(src_id) >= estate.degree(dst_id):
                choice = _least_loaded(a, load)
            else:
                choice = _least_loaded(b, load)
        elif a.any():
            choice = _least_loaded(a, load)
        elif b.any():
            choice = _least_loaded(b, load)
        else:
            choice = int(np.argmin(load))
        cap = self.balance_cap * (load.sum() / load.size + 1.0)
        if load[choice] + 1 > cap and load[choice] - load.min() >= 4:
            # Overloaded relative to the average *and* by a real margin
            # (the margin keeps start-up noise from overriding affinity).
            choice = int(np.argmin(load))
        estate.place(choice, src_id, dst_id)
        return choice

    def owner_batch(self, prop, src_ids, dst_ids, src_masters, dst_masters,
                    estate=None):
        """Exact per-edge greedy over one host's stream, on scalar state.

        Reads the host view once into plain Python state — one replica
        bitmask per touched vertex, the load list and partial degrees —
        runs :meth:`owner`'s case analysis edge by edge on it (same
        ties, same float comparisons), and commits every decision with
        one :meth:`_ReplicationView.place_batch`.  Owners and the final
        estate are bit-identical to a loop of :meth:`owner`.
        """
        if estate is None:
            raise ValueError("GreedyVertexCut requires estate")
        src_ids = np.asarray(src_ids)
        dst_ids = np.asarray(dst_ids)
        n_edges = src_ids.size
        nodes, local = np.unique(
            np.concatenate([src_ids, dst_ids]), return_inverse=True
        )
        src_local = local[:n_edges].tolist()
        dst_local = local[n_edges:].tolist()
        masks = estate.replica_masks(nodes)
        degree = estate.degrees_of(nodes).tolist()
        load = estate.load.tolist()
        num_partitions = len(load)
        total = sum(load)
        balance_cap = self.balance_cap
        out = [0] * n_edges
        for i in range(n_edges):
            s = src_local[i]
            d = dst_local[i]
            a = masks[s]
            b = masks[d]
            if a & b:
                pick = a & b
            elif a and b:
                pick = a if degree[s] >= degree[d] else b
            else:
                pick = a or b
            if pick:
                # Least-loaded set bit, lowest index on ties (argmin).
                choice = -1
                best = 0
                while pick:
                    low = pick & -pick
                    p = low.bit_length() - 1
                    if choice < 0 or load[p] < best:
                        choice = p
                        best = load[p]
                    pick ^= low
            else:
                choice = load.index(min(load))
            cap = balance_cap * (total / num_partitions + 1.0)
            if load[choice] + 1 > cap and load[choice] - min(load) >= 4:
                choice = load.index(min(load))
            out[i] = choice
            bit = 1 << choice
            masks[s] |= bit
            masks[d] |= bit
            load[choice] += 1
            total += 1
            degree[s] += 1
            degree[d] += 1
        owners = np.array(out, dtype=np.int32)
        estate.place_batch(owners, src_ids, dst_ids)
        return owners


class HDRFRule(EdgeRule):
    """High-Degree Replicated First [16].

    Per-edge score for partition p:
        C_rep(p) = g(src) * [src in p] + g(dst) * [dst in p]
        C_bal(p) = lam * (max_load - load[p]) / (1 + max_load - min_load)
    with g(v) = 1 + (1 - theta(v)) and theta(v) the vertex's share of the
    edge's combined partial degree — so the *lower*-degree endpoint's
    presence counts more, pushing replication onto hubs.
    """

    name = "HDRF"
    stateful = True
    invariant = "vertex-cut"

    def __init__(self, balance_lambda: float = 4.0, chunk_size: int = 256):
        # The replication score is bounded by g(src) + g(dst) = 3, so a
        # lambda above 3 guarantees the balance term can override affinity
        # once partitions drift apart (the HDRF paper notes quality is
        # insensitive to lambda while balance improves with it).
        if balance_lambda < 0:
            raise ValueError("balance_lambda must be >= 0")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.balance_lambda = balance_lambda
        self.chunk_size = chunk_size

    def make_state(self, num_partitions, num_hosts, num_nodes=None):
        if num_nodes is None:
            raise ValueError("HDRFRule needs num_nodes for its state")
        return ReplicationState(num_partitions, num_hosts, num_nodes)

    def owner(self, prop, src_id, dst_id, src_master, dst_master, estate=None):
        if estate is None:
            raise ValueError("HDRFRule requires estate")
        d_src = estate.degree(src_id) + 1
        d_dst = estate.degree(dst_id) + 1
        theta_src = d_src / (d_src + d_dst)
        g_src = 1.0 + (1.0 - theta_src)
        g_dst = 1.0 + theta_src
        load = estate.load.astype(np.float64)
        max_load = load.max()
        min_load = load.min()
        c_rep = (
            g_src * estate.replicas_of(src_id)
            + g_dst * estate.replicas_of(dst_id)
        )
        c_bal = (
            self.balance_lambda
            * (max_load - load)
            / (1.0 + max_load - min_load)
        )
        choice = int(np.argmax(c_rep + c_bal))
        estate.place(choice, src_id, dst_id)
        return choice

    def owner_batch(self, prop, src_ids, dst_ids, src_masters, dst_masters,
                    estate=None):
        """Chunked vectorized scoring.

        Edges are processed in chunks of ``chunk_size``; within a chunk
        every edge scores against the same (frozen) replica/load/degree
        snapshot, and the state is updated once per chunk.  That is the
        same staleness CuSP's periodic synchronization already accepts
        *between hosts* (§IV-D4), applied within one host's stream for a
        ~100x speedup.  ``chunk_size=1`` reproduces the exact per-edge
        semantics.
        """
        if estate is None:
            raise ValueError("HDRFRule requires estate")
        n_edges = len(src_ids)
        out = np.empty(n_edges, dtype=np.int32)
        src_ids = np.asarray(src_ids)
        dst_ids = np.asarray(dst_ids)
        if self.chunk_size <= 1:
            return super().owner_batch(
                prop, src_ids, dst_ids, src_masters, dst_masters, estate
            )
        for lo in range(0, n_edges, self.chunk_size):
            hi = min(lo + self.chunk_size, n_edges)
            s = src_ids[lo:hi]
            d = dst_ids[lo:hi]
            deg_s = estate.degrees_of(s) + 1.0
            deg_d = estate.degrees_of(d) + 1.0
            theta = deg_s / (deg_s + deg_d)
            g_src = 2.0 - theta  # 1 + (1 - theta)
            g_dst = 1.0 + theta
            load = estate.load.astype(np.float64)
            c_bal = (
                self.balance_lambda
                * (load.max() - load)
                / (1.0 + load.max() - load.min())
            )
            scores = (
                g_src[None, :] * estate.replicas_matrix(s)
                + g_dst[None, :] * estate.replicas_matrix(d)
                + c_bal[:, None]
            )
            choice = np.argmax(scores, axis=0).astype(np.int32)
            out[lo:hi] = choice
            estate.place_batch(choice, s, d)
        return out


def _least_loaded(mask: np.ndarray, load: np.ndarray) -> int:
    candidates = np.flatnonzero(mask)
    return int(candidates[np.argmin(load[candidates])])
