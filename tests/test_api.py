"""The package's public surface: what `flagcalc` exports and how each of its
callables is called, and how the modules under src/flagcalc import each other.

The signature table was recorded from the code.  A change that adds, removes
or reorders a parameter of an exported callable has to edit it on purpose.
"""

import ast
import enum
import inspect
import os

import flagcalc


def _shape(obj) -> str:
    """A class by its constructor; enums by their values and errors by their
    base, whose constructors are the standard library's."""
    if isinstance(obj, enum.EnumMeta):
        return "enum " + " ".join(m.value for m in obj)
    if isinstance(obj, type) and issubclass(obj, BaseException):
        return "error " + obj.__mro__[1].__name__
    return str(inspect.signature(obj))


PUBLIC_SIGNATURES = {
    'BudgetExceededError':
        'error RuntimeError',
    'CertificateError':
        'error ValueError',
    'CheckReport':
        "(ok: 'bool', failed_at: 'Optional[int]' = None, reason: 'Optional[str]' = None) -> None",
    'CliqueFamily':
        "(parent: 'Graph', mode: 'str', cliques: 'tuple[frozenset[str], ...]') -> None",
    'CollapsePair':
        "(sigma: 'frozenset[str]', tau: 'frozenset[str]') -> None",
    'ComplexCertificate':
        "(start: 'SimplicialComplex', moves: 'tuple[tuple[str, CollapsePair], ...]', end: 'SimplicialComplex') -> None",
    'ComplexError':
        'error ValueError',
    'DismantlingOrder':
        "(steps: 'tuple[tuple[str, str], ...]') -> None",
    'Graph':
        "(vertices: 'frozenset[str]', edges: 'frozenset[frozenset[str]]') -> None",
    'GraphError':
        'error ValueError',
    'GraphMove':
        "(kind: 'MoveKind', target: 'str | frozenset[str]', witness: 'DismantlingOrder', attachment: 'frozenset[str] | None' = None) -> None",
    'IContractibility':
        "(node_budget: 'int' = 20000)",
    'IsoWitness':
        "(mapping: 'tuple[tuple[str, str], ...]') -> None",
    'MoveCertificate':
        "(start: 'Graph', moves: 'tuple[GraphMove, ...]', end: 'Graph') -> None",
    'MoveKind':
        'enum -v +v -e +e',
    'NormalizationError':
        'error ValueError',
    'Outcome':
        'enum yes no unknown',
    'Poset':
        "(elements: 'frozenset[str]', relation: 'frozenset[tuple[str, str]]') -> None",
    'PosetCertificate':
        "(start: 'Poset', moves: 'tuple[PosetMove, ...]', end: 'Poset') -> None",
    'PosetDismantlingOrder':
        "(steps: 'tuple[PosetStep, ...]') -> None",
    'PosetError':
        'error ValueError',
    'PosetMove':
        "(kind: 'PosetMoveKind', element: 'str', witness_side: 'str', witness: 'PosetDismantlingOrder', lower: 'frozenset[str]' = frozenset(), upper: 'frozenset[str]' = frozenset()) -> None",
    'PropertyReport':
        "(property_id: 'str', instance: 'str', verdict: 'str', detail: 'Optional[str]' = None) -> None",
    'SearchStats':
        "(nodes: 'int', budget: 'int') -> None",
    'SearchVerdict':
        "(outcome: 'Outcome', certificate: 'object | None', stats: 'SearchStats', obstruction: 'tuple[int, ...] | None' = None) -> None",
    'SimplicialComplex':
        "(simplices: 'frozenset[frozenset[str]]') -> None",
    'UnknownEdgeError':
        'error GraphError',
    'UnknownVertexError':
        'error GraphError',
    'antichain_poset':
        "(labels: 'Iterable[str]') -> 'Poset'",
    'apply_move':
        "(g: 'Graph', m: 'GraphMove') -> 'Graph'",
    'are_isomorphic':
        "(g1: 'Graph', g2: 'Graph') -> 'IsoWitness | None'",
    'barycentric_complex':
        "(k: 'SimplicialComplex') -> 'SimplicialComplex'",
    'barycentric_graph':
        "(g: 'Graph') -> 'Graph'",
    'barycentric_poset':
        "(p: 'Poset') -> 'Poset'",
    'canonical_form':
        "(g: 'Graph') -> 'tuple'",
    'chain_poset':
        "(labels: 'Iterable[str]') -> 'Poset'",
    'check_certificate':
        "(c: 'MoveCertificate') -> 'CheckReport'",
    'check_complex_certificate':
        "(c: 'ComplexCertificate') -> 'CheckReport'",
    'check_poset_certificate':
        "(c: 'PosetCertificate') -> 'CheckReport'",
    'clique_complex':
        "(g: 'Graph') -> 'SimplicialComplex'",
    'clique_poset':
        "(g: 'Graph') -> 'Poset'",
    'collapse_search':
        "(k: 'SimplicialComplex', target: 'SimplicialComplex | None' = None, budget: 'int' = 100000) -> 'SearchVerdict'",
    'comparability_graph':
        "(p: 'Poset') -> 'Graph'",
    'complete_graph':
        "(labels: 'Iterable[str]') -> 'Graph'",
    'complete_subgraphs':
        "(g: 'Graph') -> 'list[frozenset[str]]'",
    'cycle_graph':
        "(labels: 'Iterable[str]') -> 'Graph'",
    'delete_open_star':
        "(k: 'SimplicialComplex', sigma: 'Iterable[str]') -> 'SimplicialComplex'",
    'dismantles_onto':
        "(g: 'Graph', h: 'Graph', budget: 'int' = 100000) -> 'SearchVerdict'",
    'dismantling_core':
        "(g: 'Graph') -> 'tuple[Graph, DismantlingOrder]'",
    'dominated_vertices':
        "(g: 'Graph') -> 'list[tuple[str, str]]'",
    'domination_collapse':
        "(g: 'Graph', v: 'str', w: 'str') -> 'ComplexCertificate'",
    'edgeless_graph':
        "(labels: 'Iterable[str]') -> 'Graph'",
    'enumerate_complete_subgraphs':
        "(g: 'Graph', mode: 'str' = 'all') -> 'CliqueFamily'",
    'face_poset':
        "(k: 'SimplicialComplex') -> 'Poset'",
    'free_pairs':
        "(k: 'SimplicialComplex') -> 'list[CollapsePair]'",
    'full_simplex':
        "(labels: 'Iterable[str]') -> 'SimplicialComplex'",
    'inclusion_graph':
        "(k: 'SimplicialComplex') -> 'Graph'",
    'irreducible_points':
        "(p: 'Poset') -> 'list[str]'",
    'is_dismantlable':
        "(g: 'Graph') -> 'bool'",
    'is_dismantlable_poset':
        "(p: 'Poset') -> 'bool'",
    'is_flag':
        "(k: 'SimplicialComplex') -> 'tuple[bool, frozenset[str] | None]'",
    'is_i_contractible':
        "(g: 'Graph', checker: 'IContractibility | None' = None) -> 'str'",
    'is_s_dismantlable_edge':
        "(g: 'Graph', e: 'Iterable[str]') -> 'bool'",
    'is_s_dismantlable_vertex':
        "(g: 'Graph', v: 'str') -> 'bool'",
    'join':
        "(p: 'Poset', q: 'Poset') -> 'Poset'",
    'link':
        "(k: 'SimplicialComplex', sigma: 'Iterable[str]') -> 'SimplicialComplex'",
    'maximal_cliques':
        "(g: 'Graph') -> 'list[frozenset[str]]'",
    'normalize_certificate':
        "(c: 'MoveCertificate') -> 'MoveCertificate'",
    'one_skeleton':
        "(k: 'SimplicialComplex') -> 'Graph'",
    'order_complex':
        "(p: 'Poset') -> 'SimplicialComplex'",
    'path_graph':
        "(labels: 'Iterable[str]') -> 'Graph'",
    'product_with_two_chain':
        "(p: 'Poset') -> 'Poset'",
    'realize_edge_deletion':
        "(g: 'Graph', e: 'Iterable[str]') -> 'MoveCertificate'",
    'realize_s_neighborhood_deletion':
        "(g: 'Graph', v: 'str', witness: 'MoveCertificate | None' = None) -> 'SearchVerdict'",
    'rewrite_edge_moves':
        "(cert: 'MoveCertificate') -> 'tuple[MoveCertificate, IsoWitness]'",
    'run_property_suite':
        "(seed: 'int' = 0, max_size: 'int' = 6, budget: 'int' = 100000, samples: 'int' = 24) -> 'list[PropertyReport]'",
    's_collapse_search':
        "(g: 'Graph', budget: 'int' = 100000) -> 'SearchVerdict'",
    's_dismantlable_edges':
        "(g: 'Graph') -> 'list[frozenset[str]]'",
    's_dismantlable_vertices':
        "(g: 'Graph') -> 'list[str]'",
    'star_collapse_certificate':
        "(k: 'SimplicialComplex', sigma: 'Iterable[str]', link_certificate: 'ComplexCertificate') -> 'ComplexCertificate'",
    'subdivision_certificate':
        "(g: 'Graph') -> 'MoveCertificate'",
    'subset_label':
        "(members: 'Iterable[str]') -> 'str'",
    'weak_point_cascade':
        "(g: 'Graph', v: 'str') -> 'PosetCertificate'",
    'weak_points':
        "(p: 'Poset') -> 'list[str]'",
    'ws_reduction_search':
        "(g: 'Graph', target: 'Graph | None' = None, budget: 'int' = 100000) -> 'SearchVerdict'",
}


def test_exported_callables_keep_their_signatures():
    exported = {name: _shape(obj) for name, obj in vars(flagcalc).items()
                if not name.startswith("_") and callable(obj)}
    assert exported == PUBLIC_SIGNATURES


def test_no_module_imports_inside_a_function():
    src = os.path.dirname(flagcalc.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend(f"{name}:{node.lineno} in {fn.name}" for node in ast.walk(fn)
                             if isinstance(node, (ast.Import, ast.ImportFrom)))
    assert not found, found


def _named_outside(tree: ast.Module, path: str, names: set) -> None:
    """Add (name, (path, owner)) for every Name, Attribute or import alias in
    the module, where owner is the top-level definition it sits in, or None."""
    for stmt in tree.body:
        owner = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                               ast.ClassDef)) else None
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add((node.id, (path, owner)))
            elif isinstance(node, ast.Attribute):
                names.add((node.attr, (path, owner)))
            elif isinstance(node, ast.alias):
                names.update((n, (path, owner)) for n in (node.name, node.asname) if n)


def test_every_top_level_definition_is_named_elsewhere():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.abspath(flagcalc.__file__))
    defined, names = [], set()
    for folder in ("src", "tests", "benchmarks"):
        for dirpath, _, files in os.walk(os.path.join(root, folder)):
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), path)
                _named_outside(tree, path, names)
                if dirpath == src:
                    defined.extend((d.name, path) for d in tree.body if isinstance(
                        d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
    used = {}
    for name, where in names:
        used.setdefault(name, set()).add(where)
    unused = [f"{os.path.basename(path)}:{name}" for name, path in defined
              if not used.get(name, set()) - {(path, name)}]
    assert not unused, unused


def test_every_method_is_named_as_an_attribute_elsewhere():
    """Each non-dunder method of a class in src/flagcalc appears as `x.method`
    somewhere in src/, tests/ or benchmarks/ outside its own body."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.abspath(flagcalc.__file__))
    methods, used = [], {}
    for folder in ("src", "tests", "benchmarks"):
        for dirpath, _, files in os.walk(os.path.join(root, folder)):
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(dirpath, name)
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), path)
                owner = {}  # id of each node inside a method -> that method
                for cls in ast.walk(tree):
                    if not isinstance(cls, ast.ClassDef):
                        continue
                    for fn in cls.body:
                        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            where = (path, cls.name, fn.name)
                            owner.update((id(node), where) for node in ast.walk(fn))
                            if dirpath == src and not fn.name.startswith("__"):
                                methods.append(where)
                for node in ast.walk(tree):
                    if isinstance(node, ast.Attribute):
                        used.setdefault(node.attr, set()).add(owner.get(id(node)))
    unused = [f"{os.path.basename(path)}:{cls}.{fn}" for path, cls, fn in methods
              if not used.get(fn, set()) - {(path, cls, fn)}]
    assert methods and not unused, unused
