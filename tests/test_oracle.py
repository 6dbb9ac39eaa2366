import ast
import random
import re
import struct
import tracemalloc
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import grigtree as gt
from grigtree import Portrait, TruncationAutomorphism, closure, oracle
from grigtree.closure import _window_tables
from grigtree.oracle import (QuotientSet, _generator_moves, _key_halves, _left_product,
                             _left_tables)
from grigtree.tree import BLOCK_KEYS, vertex_index, vertex_label
from test_cli import traced_peak
from test_closure import MASK64, splitmix64_mix


def key_width_bytes(level):
    return {1: 1, 2: 1, 3: 1, 4: 2, 5: 4}[level]


def test_quotient_sizes_match_free_bit_counts(quotient4):
    assert len(gt.enumerate_quotient(1)) == 2
    assert len(gt.enumerate_quotient(2)) == 8
    assert len(gt.enumerate_quotient(3)) == 128
    assert len(quotient4) == 4096
    for n, qset in ((1, gt.enumerate_quotient(1)), (4, quotient4)):
        assert len(qset) == 2 ** gt.free_bit_count(n)


def test_identity_coset_present(quotient4):
    assert 0 in quotient4
    assert Portrait.unpack(0, 4) in quotient4
    assert quotient4.witness(0) == ""


def test_contains_rejects_mismatched_depth(quotient4):
    with pytest.raises(ValueError):
        Portrait.unpack(0, 3) in quotient4


def test_quotient_closed_under_generator_multiplication():
    q3 = gt.enumerate_quotient(3)
    letters = [gt.word_element(ch) for ch in "abcd"]
    for p in q3:
        g = TruncationAutomorphism(p)
        for h in letters:
            assert gt.portrait_of(gt.compose(g, h), 3) in q3


def test_witness_words_reproduce_their_cosets(quotient4):
    q3 = gt.enumerate_quotient(3)
    for key in q3.keys:
        word = q3.witness(int(key))
        assert gt.portrait_of(gt.word_element(word), 3).pack() == int(key)
    rng = random.Random(11)
    for key in rng.sample([int(k) for k in quotient4.keys], 60):
        word = quotient4.witness(key)
        gt.check_word(word)
        assert gt.portrait_of(gt.word_element(word), 4).pack() == key


def test_witness_unknown_key_raises(quotient4):
    # a lone level-3 bit breaks its window, so this key is not a coset
    assert (1 << 7) not in quotient4
    with pytest.raises(KeyError):
        quotient4.witness(1 << 7)


def test_level_bounds_are_enforced():
    for bad in (0, 6, -1):
        with pytest.raises(ValueError):
            gt.enumerate_quotient(bad)
        with pytest.raises(ValueError):
            gt.enumerate_admissible_decorations(bad)


def test_shallow_levels_are_unconstrained():
    assert len(gt.enumerate_admissible_decorations(1)) == 2
    assert len(gt.enumerate_admissible_decorations(2)) == 8
    assert len(gt.enumerate_admissible_decorations(3)) == 128


def test_admissible_equals_quotient_at_level4(quotient4, admissible4):
    assert np.array_equal(quotient4.keys, admissible4.keys)


def exhaustive_admissible(n):
    """Filter every depth-n decoration through the window constraints,
    one Portrait at a time (2^15 candidates at n = 4)."""
    roots = [format(i, f"0{m}b") if m else ""
             for m in range(n - 3) for i in range(1 << m)]
    return [key for key in range(1 << ((1 << n) - 1))
            if all(gt.simulates_grigorchuk(gt.window_at(Portrait.unpack(key, n), u))
                   for u in roots)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_admissible_extension_matches_exhaustive_filter(n):
    assert gt.enumerate_admissible_decorations(n).keys.tolist() == exhaustive_admissible(n)


def extension_reference(n):
    """Extend every key by the 5 free bits of each window rooted on the
    level, filling the 3 forced bits from the constraint table, and sort
    the keys at the end."""
    keys = np.arange(1 << ((1 << min(n, 3)) - 1), dtype=np.uint32)
    rows = _window_tables()[0]
    for level in range(3, n):
        above, mid, low = ((1 << (level - d)) - 1 for d in (2, 1, 0))
        out = keys[:, None]
        for i in range(1 << (level - 3)):
            ctx = np.zeros(keys.size, dtype=np.uint32)
            for pos in (above + 2 * i, above + 2 * i + 1,
                        mid + 4 * i, mid + 4 * i + 1, mid + 4 * i + 2, mid + 4 * i + 3):
                ctx = (ctx << 1) | ((keys >> pos) & 1)
            extension = rows[ctx] << (low + 8 * i)
            out = (out[:, :, None] | extension[:, None, :]).reshape(keys.size, -1)
        keys = out.ravel()
    return np.sort(keys)


def test_admissible_rows_of_every_context_are_a_coset_of_one_subspace():
    rows = _window_tables()[0].astype(int)
    space = sorted(set((rows[0] ^ rows[0, 0]).tolist()))
    assert len(space) == 32 and {u ^ v for u in space for v in space} == set(space)
    assert all(sorted((row ^ row[0]).tolist()) == space for row in rows)
    assert len({tuple(sorted(row)) for row in rows.tolist()}) == 8
    _, syndrome, coset = _window_tables()
    for ctx in range(64):
        assert set(np.flatnonzero(syndrome == coset[ctx]).tolist()) == set(rows[ctx].tolist())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_admissible_keys_are_built_sorted_and_read_only(n):
    keys = gt.enumerate_admissible_decorations(n).keys
    assert np.all(keys[1:] > keys[:-1]) and not keys.flags.writeable
    assert np.array_equal(keys, extension_reference(n))


def test_admissible_sets_are_computed_afresh():
    first, second = (gt.enumerate_admissible_decorations(5) for _ in range(2))
    assert np.array_equal(first.keys, second.keys)
    assert not np.shares_memory(first.keys, second.keys)


def test_level5_cache_round_trip(tmp_path):
    a5 = gt.enumerate_admissible_decorations(5)
    path = tmp_path / "level5.bin"
    gt.save_portrait_set(path, a5)
    assert path.stat().st_size == 8 + 4 * len(a5)
    loaded = gt.load_portrait_set(path)
    assert loaded.level == 5 and np.array_equal(loaded.keys, a5.keys)
    assert loaded.keys.dtype == np.uint32 and not loaded.keys.flags.writeable


TABLES = {n: _left_tables(n) for n in (3, 4, 5)}


def _left_products(keys, tables):
    """key(s*g) for every generator s (in ALPHABET order) and every key of g."""
    return [_left_product(_key_halves(keys), t) for t in tables]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 5]).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.integers(0, (1 << ((1 << n) - 1)) - 1), min_size=1, max_size=4))))
def test_left_products_match_tree_composition(case):
    n, keys = case
    products = _left_products(np.array(keys, dtype=np.uint32), TABLES[n])
    for letter, out in zip(gt.ALPHABET, products):
        s = gt.word_element(letter)
        for key, got in zip(keys, out.tolist()):
            g = TruncationAutomorphism(Portrait.unpack(key, n))
            assert got == gt.portrait_of(gt.compose(s, g), n).pack()


def reference_quotient(n):
    """The BFS without its shortcuts: every coset of a layer is multiplied
    by all four generators, and the candidates are checked against every
    coset visited so far.  Returns (sorted keys, discovery keys, parents,
    generators)."""
    tables = _left_tables(n)
    visited = np.zeros(1, dtype=np.uint32)
    disc_keys = [visited]
    parents = [np.full(1, -1, dtype=np.int32)]
    gens = [np.zeros(1, dtype=np.uint8)]
    frontier, start = visited, 0
    while frontier.size:
        size = frontier.size
        products = np.concatenate(_left_products(frontier, tables))
        # a stable sort puts the first candidate of each key first
        cand = np.argsort(products, kind="stable")
        keys = products[cand]
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys, cand = keys[first], cand[first]
        at = np.minimum(np.searchsorted(visited, keys), visited.size - 1)
        fresh = visited[at] != keys
        frontier, cand = keys[fresh], cand[fresh]
        disc_keys.append(frontier)
        parents.append((start + cand % size).astype(np.int32))
        gens.append((cand // size).astype(np.uint8))
        visited = np.sort(np.concatenate((visited, frontier)))
        start += size
    return visited, np.concatenate(disc_keys), np.concatenate(parents), np.concatenate(gens)


def layer_parents(q):
    """(parents, generators) of q's cosets in discovery order, rebuilt from
    its sorted layers by the rule `witness` walks: coset x of layer L > 0
    is ALPHABET[s] times coset s*x, for the first s with s*x in layer L-1.
    The dtypes are those of reference_quotient."""
    tables = _left_tables(q.level)
    keys, bounds = q._disc_keys, q._bounds
    parents = np.full(keys.size, -1, dtype=np.int32)
    gens = np.zeros(keys.size, dtype=np.uint8)
    for lo, mid, hi in zip(bounds, bounds[1:], bounds[2:]):
        below, found = keys[lo:mid], np.zeros(hi - mid, dtype=bool)
        for s, products in enumerate(_left_products(keys[mid:hi], tables)):
            at = np.minimum(np.searchsorted(below, products), below.size - 1)
            back = ~found & (below[at] == products)
            parents[mid:hi][back] = lo + at[back]
            gens[mid:hi][back] = s
            found |= back
        assert found.all()  # every coset of layer L has a neighbour in layer L-1
    return parents, gens


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_layer_local_bfs_matches_the_full_visited_bfs(n, quotient4):
    q = quotient4 if n == 4 else gt.enumerate_quotient(n)
    got = (q.keys, q._disc_keys, *layer_parents(q))
    for mine, ref in zip(got, reference_quotient(n)):
        assert mine.dtype == ref.dtype
        assert np.array_equal(mine, ref)


@pytest.mark.parametrize("n", [3, 4])
def test_bfs_from_small_buffers_matches_the_full_visited_bfs(n, monkeypatch):
    # buffers start at BUFFER_BYTES: this small, they grow with the layers
    monkeypatch.setattr("grigtree.oracle.BUFFER_BYTES", 8)
    q = gt.enumerate_quotient(n)
    for mine, ref in zip((q.keys, q._disc_keys, *layer_parents(q)), reference_quotient(n)):
        assert np.array_equal(mine, ref)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_every_witness_is_the_reference_parent_chain(n, quotient4):
    q = quotient4 if n == 4 else gt.enumerate_quotient(n)
    _, disc_keys, parents, gens = reference_quotient(n)
    words = [""]  # a parent is discovered before its child
    for parent, gen in zip(parents[1:].tolist(), gens[1:].tolist()):
        words.append(gt.ALPHABET[gen] + words[parent])
    bounds = q._bounds
    for depth, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        for key, word in zip(disc_keys[lo:hi].tolist(), words[lo:hi]):
            assert q.witness(key) == word and len(word) == depth


def test_the_first_witness_allocates_no_set_sized_array():
    q = gt.enumerate_quotient(4)
    key = int(q._disc_keys[-1])  # in the deepest layer: the longest walk
    tracemalloc.start()
    try:
        word = q.witness(key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(word) == len(q._bounds) - 2
    assert peak < q.keys.nbytes // 4


def _layers(n):
    """The BFS layers of the level-n quotient, as sets of keys, from the
    parent chains of reference_quotient."""
    _, disc_keys, parents, _ = reference_quotient(n)
    depth = np.zeros(disc_keys.size, dtype=int)
    for i in range(1, disc_keys.size):  # a parent is discovered before its child
        depth[i] = depth[parents[i]] + 1
    return [set(disc_keys[depth == d].tolist()) for d in range(depth.max() + 1)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_back_edge_pruning_never_returns_to_the_layer_before(n):
    # R(g) = {s : s*g in the layer before g's}.  The BFS multiplies g by a
    # only if a is not in R(g), and by b, c, d only if R(g) holds none of
    # them, and it reads R(g) off the generators of the candidates that
    # reached g.
    tables = _left_tables(n)
    layers = _layers(n) + [set()]
    reached_by = {0: set()}  # key -> generators of the candidates reaching it
    for before, layer, after in zip([set()] + layers, layers, layers[1:]):
        keys = sorted(layer)
        keys_array = np.array(keys, dtype=np.uint32)
        products = [out.tolist() for out in _left_products(keys_array, tables)]
        made = {}
        for i, g in enumerate(keys):
            r = {s for s in range(4) if products[s][i] in before}
            assert r == reached_by[g]
            for s in ([] if 0 in r else [0]) + ([] if r & {1, 2, 3} else [1, 2, 3]):
                made.setdefault(products[s][i], set()).add(s)
        assert not made.keys() & before  # no candidate lies in the layer before
        assert after <= made.keys()  # and no coset is lost
        reached_by = {key: made[key] for key in after}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 4, 5]).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.integers(0, (1 << ((1 << n) - 1)) - 1), min_size=1, max_size=8))))
def test_generator_steps_are_involutions(case):
    # the layer-local BFS relies on s*s = 1 for every generator s
    n, keys = case
    keys = np.array(keys, dtype=np.uint32)
    for table in TABLES[n]:
        once = _left_products(keys, [table])[0]
        assert np.array_equal(_left_products(once, [table])[0], keys)


#: The BFS layer sizes, |layer L| for word length L = 0, 1, ...
LAYER_SIZES = {
    3: [1, 4, 6, 12, 16, 20, 24, 28, 17],
    4: [1, 4, 6, 12, 17, 28, 40, 68, 92, 132, 168, 236, 291, 356, 436, 556, 493, 308,
        282, 268, 182, 60, 35, 20, 5],
    5: [1, 4, 6, 12, 17, 28, 40, 68, 95, 156, 216, 356, 488, 772, 1054, 1660, 2218, 3332,
        4450, 6700, 8773, 12716, 16538, 23924, 30161, 40820, 51444, 69836, 85796, 112372,
        138708, 182684, 202815, 216828, 240300, 267940, 278748, 282052, 290753, 293308,
        271007, 228380, 210627, 186868, 148625, 95804, 73495, 53044, 31765, 13004, 7305,
        4020, 1495, 368, 193, 96, 19],
}


@pytest.mark.parametrize("n", [3, 4])
def test_bfs_layer_sizes(n, quotient4):
    # level 5 is checked in criterion 8, on its one level-5 BFS
    q = quotient4 if n == 4 else gt.enumerate_quotient(n)
    assert np.diff(q._bounds).tolist() == LAYER_SIZES[n]
    assert sum(LAYER_SIZES[n]) == len(q)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_generator_moves_keep_the_top_vertex_but_for_a(n):
    # enumerate_quotient splits each layer at the bit of the top vertex
    # 1^(n-1), and routes a product by these two facts
    moved, shift = _generator_moves(n)
    top = (1 << n) - 2
    assert vertex_label(top) == "1" * (n - 1)
    high = 1 << top
    for s in (1, 2, 3):  # b, c and d fix it and are inactive there
        assert moved[s, top] == high and not shift[s] & high
    # a carries the bit of vertex 01^(n-2) onto it, and is active there
    # only at level 1, where the top vertex is the root
    below = vertex_index("0" + "1" * (n - 2)) if n > 1 else top
    assert moved[0, below] == high
    assert bool(shift[0] & high) == (n == 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_generator_moves_match_the_vertex_walk(n):
    # the tables read the action off level permutations (`tree._extend_image`),
    # as products do; this reference walks `apply` over vertex labels instead
    moved, shift = _generator_moves(n)
    for row, letter in enumerate(gt.ALPHABET):
        s = gt.word_element(letter)
        expected = [0] * ((1 << n) - 1)
        for p in range(len(expected)):
            expected[vertex_index(gt.apply(s, vertex_label(p)))] = 1 << p
        assert moved[row].tolist() == expected
        assert int(shift[row]) == gt.portrait_of(s, n).pack()


@pytest.mark.parametrize("n, candidates", [(3, 196), (4, 7_082)])
def test_bfs_candidate_count_is_gated(n, candidates, monkeypatch):
    # every candidate is one _left_product entry (7,533,446 at level 5)
    counted = []
    product = _left_product

    def counting(halves, table, out=None):
        counted.append(halves[0].size)
        return product(halves, table, out)

    monkeypatch.setattr("grigtree.oracle._left_product", counting)
    cosets = len(gt.enumerate_quotient(n))
    assert cosets - 1 <= sum(counted) <= candidates  # each coset but 1 is a candidate


def test_bfs_memory_is_gated():
    # with the buffer floor at 8 bytes for this test only, the peak is what
    # the BFS writes (224.5 MiB at the 32 MiB floor, allocated but never
    # written); levels 3 and 4 warm the tables up
    setup = ("from grigtree import oracle\noracle.BUFFER_BYTES = 8\n"
             "oracle.enumerate_quotient(3)\noracle.enumerate_quotient(4)")
    assert traced_peak(setup, "oracle.enumerate_quotient(4)") <= 1_182_040


def test_admissible_memory_is_gated():
    # the 16 MiB of level-5 keys and the level-4 tables beside them
    # (21,761,184 with a set-sized order check and intp row classes); the
    # first run is a warm-up
    setup = "import grigtree as gt\ngt.enumerate_admissible_decorations(5)"
    assert traced_peak(setup, "gt.enumerate_admissible_decorations(5)") <= 17_157_753


def test_load_memory_is_gated(tmp_path):
    # the 16 MiB of keys read (20,973,455 with a set-sized order check)
    path = tmp_path / "level5.bin"
    setup = ("import grigtree as gt\n"
             f"gt.save_portrait_set({str(path)!r}, gt.enumerate_admissible_decorations(5))")
    assert traced_peak(setup, f"gt.load_portrait_set({str(path)!r})") <= 16_844_792


PACKAGE = Path(gt.__file__).parent


def _imported_modules(source: str) -> set[str]:
    """The grigtree modules that a module's source imports anywhere, in
    functions too; "__init__" is the package itself, which imports all."""
    def module(path):  # a dotted path below the package, "" for itself
        name = path.split(".")[0]
        return name if (PACKAGE / f"{name}.py").exists() else "__init__"
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {module(a.name[9:]) for a in node.names if a.name.split(".")[0] == "grigtree"}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "grigtree"):
            base = (node.module or "") if node.level else node.module[9:]
            found |= {module(base)} if base else {module(a.name) for a in node.names}
    return found


def _package_imports(name: str) -> set[str]:
    """The grigtree modules that module `name` imports, followed through theirs."""
    found, todo = set(), {name}
    while todo:
        todo = set().union(*(_imported_modules((PACKAGE / f"{m}.py").read_text()) for m in todo))
        todo -= found
        found |= todo
    return found


def test_group_side_names_nothing_from_closure():
    # the BFS and the witness descent are derived from the tree action
    # only, and the admissible enumeration from the window constraints
    # only, so that their agreement means something: no import of either
    # module, followed through, reaches the other
    assert _package_imports("oracle") == {"tree", "words"}
    assert _package_imports("closure") == {"tree", "words"}
    assert "closure" in _package_imports("cli")  # the walk does see a use
    assert _imported_modules("def f():\n    from . import closure, tree\n") == {"closure", "tree"}
    assert _imported_modules("import grigtree.words as w\nfrom grigtree import Portrait\n"
                             "from .oracle import x\nimport numpy") == {"words", "__init__", "oracle"}


def _unused_private_names(sources: dict[str, str]) -> set[str]:
    """The module-level private names (one leading underscore) of module
    sources, as "module.name", that no source loads besides defining
    them: as a name, an attribute or an imported name."""
    defined, loaded = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            defined |= {(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
            elif isinstance(node, ast.alias):
                loaded.add(node.name)
    return {f"{module}.{name}" for module, name in defined if name not in loaded}


def test_every_private_name_is_used_in_the_package():
    # a private helper that only tests call is code kept for tests
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert _unused_private_names(sources) == set()
    assert _unused_private_names({
        "m": "_dead = 1\n_named = 2\ndef _attr(): pass\nclass _Alias: pass\n"
             "def f():\n    _dead = _named\n",
        "n": "from .m import _Alias\nfrom . import m\nx = m._attr\n",
    }) == {"m._dead"}


#: grigtree's public names, its submodules aside.
PUBLIC_NAMES = """
ALPHABET Automorphism BetaProfile CONSTRAINT_TABLE ClosureVerdict Distance IDENTITY
MealyAutomaton Portrait PortraitSet QuotientSet RecursionSystem TruncationAutomorphism
VerificationReport WindowDecoration activity activity_profile activity_rows apply
beta_from_counts beta_profile check_vertex check_word complete_window compose compose_all
count count_p count_pq decompose_word distance element_of enumerate_admissible_decorations
enumerate_quotient equal_to_depth f_automaton format_automaton free_bit_count
grigorchuk_automaton hausdorff_estimate in_closure_up_to invert is_bounded_automaton k_word
kbar_element load_portrait_set parse_automaton portrait_closure_verdict portrait_of reduce
sample_closure_element save_portrait_set scattered_element section_at section_words
simulates_grigorchuk verify_window_constraints window_at within_sixteenth_of_G word_element
""".split()


def test_public_namespace_is_pinned():
    names = sorted(name for name, value in vars(gt).items()
                   if not name.startswith("_") and not isinstance(value, ModuleType))
    assert names == PUBLIC_NAMES
    for module in (closure, oracle):
        assert all(getattr(gt, name) is getattr(module, name) for name in module.__all__)


def test_quotient_set_rejects_a_coset_found_twice():
    disc = np.array([0, 3, 1, 3], dtype=np.uint32)
    with pytest.raises(RuntimeError, match="twice"):
        QuotientSet(2, disc, [0, 1, 3, 4])


def test_witnesses_are_shortest_words():
    # every coset of the level-3 quotient, by BFS over single-letter steps
    q3 = gt.enumerate_quotient(3)
    distance = {0: 0}
    layer = [gt.IDENTITY]
    while layer:
        nxt = []
        for g in layer:
            for letter in gt.ALPHABET:
                h = gt.compose(g, gt.word_element(letter))
                key = gt.portrait_of(h, 3).pack()
                if key not in distance:
                    distance[key] = distance[gt.portrait_of(g, 3).pack()] + 1
                    nxt.append(h)
        layer = nxt
    assert sorted(distance) == q3.keys.tolist()
    assert all(len(q3.witness(key)) == d for key, d in distance.items())


def test_level5_extension(admissible4):
    a5 = gt.enumerate_admissible_decorations(5)
    assert len(a5) == 2 ** gt.free_bit_count(5)
    assert 0 in a5
    rng = random.Random(17)
    members = [int(a5.keys[rng.randrange(len(a5))]) for _ in range(20)]
    for key in members:
        p = Portrait.unpack(key, 5)
        assert all(gt.simulates_grigorchuk(gt.window_at(p, u))
                   for u in ("", "0", "1"))
        assert (key & 0x7FFF) in admissible4
    checked = 0
    while checked < 20:
        key = rng.randrange(1 << 31)
        if key in a5:
            continue
        p = Portrait.unpack(key, 5)
        assert not all(gt.simulates_grigorchuk(gt.window_at(p, u))
                       for u in ("", "0", "1"))
        checked += 1


def test_random_words_never_violate_the_windows():
    report = gt.verify_window_constraints(samples=50, max_len=30, seed=7)
    assert report.ok
    assert report.violations == []
    assert report.summary() == "seed=7 samples=50 max_len=30 violations=0"


GOLDEN = 0x9E3779B97F4A7C15


def _rng_loop_words(samples, max_len, seed):
    """The words verify_window_constraints draws, in sample order, one
    hash at a time: word i has mix64(key + 2i golden) (max_len + 1) >> 64
    letters, and letter j of the running stream is bits 2(j mod 32) of
    mix64(key + (2 floor(j / 32) + 1) golden), with key = mix64(seed)."""
    key = splitmix64_mix(seed)

    def hashed(n):
        return splitmix64_mix((key + n * GOLDEN) & MASK64)

    out, j = [], 0
    for i in range(samples):
        length = hashed(2 * i) * (max_len + 1) >> 64
        out.append("".join(gt.ALPHABET[hashed(2 * (k // 32) + 1) >> 2 * (k % 32) & 3]
                           for k in range(j, j + length)))
        j += length
    return out


def _drawer_words(seed, max_len, counts):
    """The words of successive `_sampled_words` calls of `counts` words."""
    out, letter = [], 0
    for count in counts:
        words, letter = closure._sampled_words(seed, len(out), count, max_len, letter)
        out += words
    return out


@pytest.mark.parametrize("chunk", [1, 3, 64, 32768])
@pytest.mark.parametrize("max_len", [0, 1, 2, 7, 8, 15, 16, 31, 32, 100, 127, 128, 129])
def test_drawer_words_equal_the_rng_loop(max_len, chunk):
    # calls of `chunk` words start words and letters inside a hash
    for seed in (0, 1, 5, 2024, 2 ** 64 - 1):
        for samples in (0, 1, 2, 33, 70):
            counts = [min(chunk, samples - start) for start in range(0, samples, chunk)]
            assert _drawer_words(seed, max_len, counts) == _rng_loop_words(samples, max_len, seed)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), max_len=st.integers(0, 300),
       counts=st.lists(st.integers(0, 40), max_size=6))
def test_drawer_words_do_not_depend_on_the_split_into_calls(seed, max_len, counts):
    assert _drawer_words(seed, max_len, counts) == _drawer_words(seed, max_len, [sum(counts)])


@pytest.mark.parametrize("samples, chunk", [(20, 7), (21, 7), (4095, None), (4096, None),
                                            (4097, None)])
def test_verify_checks_the_rng_loop_words_across_chunks(monkeypatch, samples, chunk):
    if chunk:
        monkeypatch.setattr("grigtree.closure.VERIFY_CHUNK", chunk)
    seen = []
    word_state = gt.words.WordAutomorphism
    monkeypatch.setattr("grigtree.closure.WordAutomorphism",
                        lambda w: seen.append(w) or word_state(w))
    assert gt.verify_window_constraints(samples, 9, 3).ok
    assert seen == _rng_loop_words(samples, 9, 3)


def test_forced_violations_are_listed_at_their_sample_positions(monkeypatch):
    words = _rng_loop_words(20, 12, 5)
    # positions 2 and 9 lie in the first and second chunks of 7 samples
    targets = [words[2], words[9]]
    assert all(words.count(w) == 1 for w in targets)

    def flipped(w):
        """w's depth-8 portrait with the bit at vertex 0000 flipped, which
        breaks the window below vertex 0."""
        bits = gt.portrait_of(gt.word_element(w), 8).bits.copy()
        bits[gt.tree.vertex_index("0000")] ^= 1
        return TruncationAutomorphism(Portrait.unpack(
            int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little"), 8))

    word_state = gt.words.WordAutomorphism
    monkeypatch.setattr("grigtree.closure.VERIFY_CHUNK", 7)
    monkeypatch.setattr("grigtree.closure.WordAutomorphism",
                        lambda w: flipped(w) if w in targets else word_state(w))
    report = gt.verify_window_constraints(20, 12, 5)
    assert report.violations == targets
    assert report.summary() == "seed=5 samples=20 max_len=12 violations=2"


def test_verify_accepts_empty_runs():
    assert gt.verify_window_constraints(0, 10).summary() == "seed=0 samples=0 max_len=10 violations=0"
    assert gt.verify_window_constraints(5, 0).ok


def test_verification_report_flags_violations():
    report = gt.VerificationReport(samples=1, max_len=1, seed=0,
                                   violations=["bad"])
    assert not report.ok
    assert report.summary().endswith("violations=1")


def test_save_load_round_trip(tmp_path, quotient4):
    small = gt.PortraitSet(3, np.array([5, 1, 5], dtype=np.uint32))
    assert [int(k) for k in small.keys] == [1, 5]
    for pset in (small, gt.enumerate_admissible_decorations(3), quotient4):
        path = tmp_path / f"level{pset.level}.bin"
        gt.save_portrait_set(path, pset)
        size = path.stat().st_size
        assert size == 8 + len(pset) * key_width_bytes(pset.level)
        loaded = gt.load_portrait_set(path)
        assert loaded.level == pset.level
        assert np.array_equal(loaded.keys, pset.keys)


@pytest.mark.parametrize("level, key", [(4, 70000), (4, 1 << 15), (3, 1 << 7)])
def test_save_rejects_a_key_too_wide_for_the_level(tmp_path, level, key):
    path = tmp_path / "wide.bin"
    pset = gt.PortraitSet(level, np.array([1, key], dtype=np.uint32))
    bits = (1 << level) - 1
    with pytest.raises(ValueError, match=f"^portrait cache key {key} does not fit "
                                         f"in the {bits} bits of level {level}$"):
        gt.save_portrait_set(path, pset)
    assert not path.exists()


@pytest.mark.parametrize("keys", [[], [7], [1, 5, 9], [9, 1, 5], [1, 5, 5, 9], [5, 5]])
def test_portrait_set_sorts_and_dedupes_only_when_needed(keys):
    keys = np.array(keys, dtype=np.uint32)
    pset = gt.PortraitSet(4, keys)
    assert pset.keys.tolist() == sorted(set(keys.tolist()))


def test_portrait_set_owns_a_writable_sorted_input():
    keys = np.array([1, 5, 9], dtype=np.uint32)
    pset = gt.PortraitSet(4, keys)
    keys[:] = [9, 0, 0]
    assert pset.keys.tolist() == [1, 5, 9]
    assert 5 in pset and 0 not in pset


def test_portrait_set_keeps_a_read_only_sorted_input():
    keys = np.array([1, 5, 9], dtype=np.uint32)
    keys.flags.writeable = False
    assert gt.PortraitSet(4, keys).keys is keys
    keys = np.arange(2, 2 * (3 * BLOCK_KEYS + 6), 2, dtype=np.uint32)  # several blocks
    keys.flags.writeable = False
    assert gt.PortraitSet(5, keys).keys is keys


def _one_fault(at: int, kind: str) -> np.ndarray:
    """Even keys spanning several order-check blocks, with keys[at] turned
    into a descent or a repeat of keys[at - 1]."""
    keys = np.arange(2, 2 * (3 * BLOCK_KEYS + 6), 2, dtype=np.uint32)
    keys[at] = keys[at - 1] - (kind == "descent")
    return keys


#: Faults on the pairs that end a block, start one or end the array
FAULTS = [1, BLOCK_KEYS - 1, BLOCK_KEYS, BLOCK_KEYS + 1, 2 * BLOCK_KEYS,
          3 * BLOCK_KEYS + 4]


@pytest.mark.parametrize("kind", ["descent", "repeat"])
@pytest.mark.parametrize("at", FAULTS)
def test_portrait_set_order_check_sees_faults_at_block_boundaries(at, kind):
    keys = _one_fault(at, kind)
    keys.flags.writeable = False
    assert gt.PortraitSet(5, keys).keys.tolist() == sorted(set(keys.tolist()))


@pytest.mark.parametrize("at", [BLOCK_KEYS, 3 * BLOCK_KEYS + 4])
def test_load_rejects_keys_unsorted_at_a_block_boundary(tmp_path, at):
    keys = _one_fault(at, "descent")
    path = tmp_path / "level5.bin"
    path.write_bytes(struct.pack("<II", 5, keys.size) + keys.astype("<u4").tobytes())
    with pytest.raises(ValueError, match="^portrait cache keys are not sorted ascending$"):
        gt.load_portrait_set(path)


def test_quotient_set_rejects_a_coset_discovered_twice_across_a_block():
    # sorted, the repeated keys are the last of block 0 and the first of block 1
    disc_keys = _one_fault(BLOCK_KEYS, "repeat")[::-1].copy()
    with pytest.raises(RuntimeError, match="^the BFS discovered a coset twice$"):
        QuotientSet(5, disc_keys, [0, disc_keys.size])


@pytest.mark.parametrize("buffer_bytes, copied", [
    (oracle.BUFFER_BYTES, True),  # 16 KiB of keys, not a view into 32 MiB
    (2 * 4 * 4096, False),  # exactly half of the buffer, as at level 5
    (2 * 4 * 4096 + 4, True),
])
def test_quotient_set_copies_discovery_keys_far_smaller_than_their_buffer(
        buffer_bytes, copied, monkeypatch):
    monkeypatch.setattr("grigtree.oracle.BUFFER_BYTES", buffer_bytes)
    disc = gt.enumerate_quotient(4)._disc_keys
    assert disc.nbytes == 4 * 4096
    assert (disc.base is None) == copied
    if not copied:
        assert disc.base.nbytes == 2 * disc.nbytes


def test_load_rejects_truncated_header(tmp_path):
    path = tmp_path / "short.bin"
    path.write_bytes(b"\x03\x00\x00")
    with pytest.raises(ValueError, match="truncated"):
        gt.load_portrait_set(path)


def test_load_rejects_count_mismatch(tmp_path):
    path = tmp_path / "mismatch.bin"
    path.write_bytes(struct.pack("<II", 3, 10) + bytes([1, 2]))
    with pytest.raises(ValueError, match="declares"):
        gt.load_portrait_set(path)


def test_load_rejects_unsorted_keys(tmp_path):
    path = tmp_path / "unsorted.bin"
    path.write_bytes(struct.pack("<II", 3, 2) + bytes([5, 1]))
    with pytest.raises(ValueError, match="sorted"):
        gt.load_portrait_set(path)


def test_load_rejects_key_out_of_range(tmp_path):
    path = tmp_path / "range3.bin"
    path.write_bytes(struct.pack("<II", 3, 2) + bytes([1, 255]))
    with pytest.raises(ValueError, match="does not fit"):
        gt.load_portrait_set(path)
    path = tmp_path / "range5.bin"
    path.write_bytes(struct.pack("<II", 5, 1) + struct.pack("<I", 1 << 31))
    with pytest.raises(ValueError, match="does not fit"):
        gt.load_portrait_set(path)


def test_load_rejects_partial_key(tmp_path):
    path = tmp_path / "partial.bin"
    path.write_bytes(struct.pack("<II", 5, 1) + bytes([1, 2, 3]))
    with pytest.raises(ValueError, match="whole number"):
        gt.load_portrait_set(path)


@pytest.mark.parametrize("level, count, body, message", [
    (5, 2, struct.pack("<II", 1, 7) + b"\x01",
     "portrait cache body of 9 bytes is not a whole number of 4-byte keys"),
    (4, 1, struct.pack("<H", 3) + b"\x00",
     "portrait cache body of 3 bytes is not a whole number of 2-byte keys"),
    (3, 2, bytes([1, 5, 9]), "portrait cache declares 2 keys but contains 3"),
])
def test_load_rejects_one_trailing_byte(tmp_path, level, count, body, message):
    path = tmp_path / "trailing.bin"
    path.write_bytes(struct.pack("<II", level, count) + body)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gt.load_portrait_set(path)


def test_load_of_a_header_only_file(tmp_path):
    path = tmp_path / "empty.bin"
    path.write_bytes(struct.pack("<II", 5, 0))
    empty = gt.load_portrait_set(path)
    assert (empty.level, len(empty), empty.keys.dtype) == (5, 0, np.uint32)
    path.write_bytes(struct.pack("<II", 4, 3))
    with pytest.raises(ValueError, match="^portrait cache declares 3 keys but contains 0$"):
        gt.load_portrait_set(path)


def test_load_rejects_bad_level(tmp_path):
    path = tmp_path / "badlevel.bin"
    path.write_bytes(struct.pack("<II", 9, 0))
    with pytest.raises(ValueError, match="level"):
        gt.load_portrait_set(path)


def test_portrait_set_iteration_yields_sorted_portraits():
    pset = gt.PortraitSet(2, np.array([6, 0, 3], dtype=np.uint32))
    packs = [p.pack() for p in pset]
    assert packs == [0, 3, 6]
    assert all(p.depth == 2 for p in pset)


def test_no_numpy_set_routines_in_src():
    # numpy 2 runs these through hashing, which took most of the level-5
    # BFS time; sort plus a neighbour mask does the same job far faster
    src = Path(gt.__file__).parent
    banned = re.compile(r"np\.(unique|isin|union1d)\b")
    hits = [f"{path.name}:{i}" for path in sorted(src.glob("*.py"))
            for i, line in enumerate(path.read_text().splitlines(), 1)
            if banned.search(line)]
    assert hits == []
