"""Input generators and correctness oracles that share no code with flagcalc.

Graphs are plain ``dict[label, set[label]]`` adjacency maps here.  Every
structure the benchmark feeds to flagcalc is written out as text in
flagcalc's file formats, and every oracle below answers from this module's
own representation, so a defect in the library cannot hide in its own check.
"""

from __future__ import annotations

import itertools
import math
import random

Adj = dict[str, set[str]]


# ---------------------------------------------------------------------------
# generators


def copwin_graph(rng: random.Random, n: int, keep: float) -> Adj:
    """Dismantlable graph on n vertices, built as the project's baseline builds them.

    Each new vertex joins a random subset of an earlier vertex w's closed
    neighbourhood, and the subset always contains w, so the new vertex is
    dominated by w and the graph dismantles in reverse insertion order.
    """
    adj: Adj = {"v0": set()}
    order = ["v0"]
    for i in range(1, n):
        w = rng.choice(order)
        attach = {u for u in sorted(adj[w] | {w}) if u == w or rng.random() < keep}
        x = f"v{i}"
        adj[x] = set(attach)
        for u in attach:
            adj[u].add(x)
        order.append(x)
    return adj


def gnp_graph(rng: random.Random, n: int, p: float) -> Adj:
    labels = [f"x{i}" for i in range(n)]
    adj: Adj = {v: set() for v in labels}
    for a, b in itertools.combinations(labels, 2):
        if rng.random() < p:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def from_edges(vertices, edges) -> Adj:
    adj: Adj = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def cycle(n: int) -> Adj:
    vs = [f"c{i}" for i in range(n)]
    return from_edges(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def path(n: int) -> Adj:
    vs = [f"p{i}" for i in range(n)]
    return from_edges(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def complete(n: int) -> Adj:
    vs = [f"k{i}" for i in range(n)]
    return from_edges(vs, itertools.combinations(vs, 2))


def hypercube(d: int) -> Adj:
    vs = ["q" + format(i, f"0{d}b") for i in range(2 ** d)]
    return from_edges(vs, [(vs[i], vs[i ^ (1 << b)])
                           for i in range(2 ** d) for b in range(d) if i < i ^ (1 << b)])


def suspension(adj: Adj) -> Adj:
    out = {v: set(nb) for v, nb in adj.items()}
    for apex in ("s_top", "s_bot"):
        out[apex] = set(adj)
        for v in adj:
            out[v].add(apex)
    return out


def cone(adj: Adj) -> Adj:
    out = {v: set(nb) | {"apex"} for v, nb in adj.items()}
    out["apex"] = set(adj)
    return out


def relabel(adj: Adj, rng: random.Random) -> Adj:
    """An isomorphic copy under a random bijection onto fresh labels."""
    old = sorted(adj)
    new = [f"r{i}" for i in range(len(old))]
    rng.shuffle(new)
    mu = dict(zip(old, new))
    return {mu[v]: {mu[u] for u in nb} for v, nb in adj.items()}


def random_order(rng: random.Random, n: int, p: float) -> tuple[list[str], list[tuple[str, str]]]:
    """Elements and strict relations of a random order (i < j kept with prob p)."""
    labels = [f"e{i}" for i in range(n)]
    rels = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
            if rng.random() < p]
    return labels, rels


def random_facets(rng: random.Random, n: int, count: int, top: int) -> list[list[str]]:
    labels = [f"u{i}" for i in range(n)]
    facets = [rng.sample(labels, rng.randint(1, top)) for _ in range(count)]
    used = {v for f in facets for v in f}
    facets.extend([v] for v in labels if v not in used)
    return facets


# ---------------------------------------------------------------------------
# flagcalc's text formats, written independently of flagcalc.textio


def graph_text(adj: Adj) -> str:
    lines = [f"v {v}" for v in sorted(adj)]
    lines += [f"e {a} {b}" for a in sorted(adj) for b in sorted(adj[a]) if a < b]
    return "\n".join(lines) + "\n"


def poset_text(elements: list[str], rels: list[tuple[str, str]]) -> str:
    lines = [f"p {x}" for x in elements] + [f"< {a} {b}" for a, b in rels]
    return "\n".join(lines) + "\n"


def complex_text(facets: list[list[str]]) -> str:
    return "".join(" ".join(sorted(f)) + "\n" for f in facets)


def parse_graph_text(text: str) -> Adj:
    adj: Adj = {}
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "v":
            adj[parts[1]] = set()
        elif parts and parts[0] == "e":
            adj[parts[1]].add(parts[2])
            adj[parts[2]].add(parts[1])
    return adj


# ---------------------------------------------------------------------------
# graph invariants on bitmasks


def bitmasks(adj: Adj) -> tuple[list[str], list[int]]:
    labels = sorted(adj)
    index = {v: i for i, v in enumerate(labels)}
    return labels, [sum(1 << index[u] for u in adj[v]) for v in labels]


def clique_sizes(adj: Adj) -> list[int]:
    """Number of complete subgraphs of each size (index k = k vertices)."""
    _, nbr = bitmasks(adj)
    counts = [0] * (len(nbr) + 1)

    def extend(size: int, cand: int) -> None:
        counts[size] += 1
        while cand:
            low = cand & -cand
            cand ^= low
            extend(size + 1, cand & nbr[low.bit_length() - 1])

    for i in range(len(nbr)):
        extend(1, nbr[i] & ~((1 << (i + 1)) - 1))
    return counts


def all_cliques(adj: Adj) -> frozenset[frozenset[str]]:
    labels = sorted(adj)
    out: set[frozenset[str]] = set()

    def extend(members: tuple[str, ...], cand: list[str]) -> None:
        out.add(frozenset(members))
        for i, v in enumerate(cand):
            extend(members + (v,), [u for u in cand[i + 1:] if u in adj[v]])

    for i, v in enumerate(labels):
        extend((v,), [u for u in labels[i + 1:] if u in adj[v]])
    return frozenset(out)


def clique_count(adj: Adj) -> int:
    return sum(clique_sizes(adj))


def chain_count(adj: Adj) -> int:
    """Chains of complete subgraphs under inclusion: the size of the barycentric
    complex of the clique complex, and of the barycentric poset of the clique poset.

    A k-clique tops f(k) chains, where f(k) = 1 + sum_{j<k} C(k, j) f(j).
    """
    sizes = clique_sizes(adj)
    tops = [0, 1]
    for k in range(2, len(sizes)):
        tops.append(1 + sum(math.comb(k, j) * tops[j] for j in range(1, k)))
    return sum(c * tops[k] for k, c in enumerate(sizes) if k)


def euler_characteristic(adj: Adj) -> int:
    """chi of the clique complex: alternating sum of clique counts by dimension."""
    return sum((-1) ** (k - 1) * c for k, c in enumerate(clique_sizes(adj)) if k)


def comparable_pairs_of_cliques(adj: Adj) -> int:
    """Edges of the barycentric graph: pairs of cliques, one strictly inside the other."""
    return sum(c * (2 ** k - 2) for k, c in enumerate(clique_sizes(adj)) if k)


class SCollapse:
    """Exhaustive s-collapsibility on labelled vertex subsets.

    States are bitmasks of the input graph's vertices; both the reduction
    and the dismantlability of each open neighbourhood are decided by trying
    every move, with a memo of labelled states.  There is no isomorphism memo
    and no greedy shortcut, so the verdict does not lean on the theorems
    flagcalc's search relies on.
    """

    def __init__(self, adj: Adj):
        self.labels, self.nbr = bitmasks(adj)
        self.closed = [m | (1 << i) for i, m in enumerate(self.nbr)]
        self.full = (1 << len(self.labels)) - 1
        self._dism: dict[int, bool] = {}
        self._scol: dict[int, bool] = {}

    def dismantlable(self, s: int) -> bool:
        if s & (s - 1) == 0:
            return s != 0
        hit = self._dism.get(s)
        if hit is not None:
            return hit
        found = False
        rest = s
        while rest and not found:
            bit = rest & -rest
            rest ^= bit
            i = bit.bit_length() - 1
            mine = self.closed[i] & s
            others = self.nbr[i] & s
            while others:
                w = others & -others
                others ^= w
                if mine & ~self.closed[w.bit_length() - 1] == 0:
                    found = self.dismantlable(s ^ bit)
                    break
        self._dism[s] = found
        return found

    def s_removable(self, s: int, i: int) -> bool:
        nb = self.nbr[i] & s
        return nb != 0 and self.dismantlable(nb)

    def states(self) -> int:
        """Labelled states the reduction search has visited so far."""
        return len(self._scol)

    def collapsible(self, s: int | None = None) -> bool:
        if s is None:
            s = self.full
        if s & (s - 1) == 0:
            return True
        hit = self._scol.get(s)
        if hit is not None:
            return hit
        found = False
        rest = s
        while rest and not found:
            bit = rest & -rest
            rest ^= bit
            i = bit.bit_length() - 1
            found = self.s_removable(s, i) and self.collapsible(s ^ bit)
        self._scol[s] = found
        return found

    def has_s_move(self) -> bool:
        return any(self.s_removable(self.full, i) for i in range(len(self.labels)))


def is_dismantlable(adj: Adj) -> bool:
    oracle = SCollapse(adj)
    return oracle.dismantlable(oracle.full)


def is_dominating_step(adj: dict, v: str, w: str) -> bool:
    """N[v] inside N[w] for an adjacency mapping (any mapping of label -> set)."""
    return v != w and w in adj[v] and (adj[v] | {v}) <= (adj[w] | {w})


# ---------------------------------------------------------------------------
# simplicial collapse on small complexes


def collapsible_complex(simplices: frozenset[frozenset[str]]) -> bool:
    """Exhaustive search for a collapse onto a single vertex, memo of failed states."""
    failed: set[frozenset[frozenset[str]]] = set()

    def free_pairs(sims):
        for tau in sims:
            cofaces = [s for s in sims if tau < s]
            if len(cofaces) == 1 and len(cofaces[0]) == len(tau) + 1:
                yield cofaces[0], tau

    def search(sims) -> bool:
        if len(sims) == 1:
            return True
        if sims in failed:
            return False
        for sigma, tau in free_pairs(sims):
            if search(sims - {sigma, tau}):
                return True
        failed.add(sims)
        return False

    return search(simplices)
