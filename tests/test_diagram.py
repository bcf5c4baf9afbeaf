import itertools
from collections import Counter

import pytest

from conftest import (all_lattices, all_posets, enumerate_cirls, oracle_in_hs,
                      oracle_monolith_info, oracle_search_hom)
from splitbench.cli import algebra_from_json, upalgebra_to_json
from splitbench.diagram import (CIRL, DHEYTING, HPLUS, KINDS, Assignment,
                                TableAlgebra, build_diagram,
                                delta_power_witness, embedding_by_diagram,
                                eval_diagram, get_signature, in_hs,
                                search_embedding, search_hom, si_structure,
                                witness_suite)
from splitbench.duality import up_set_algebra
from splitbench.errors import BadParameter, NotSI, SignatureMismatch
from splitbench.poset import build_poset, is_connected
from splitbench.residuated import monolith_info, wajsberg_hoop


def test_signature_dispatch():
    assert get_signature("cirl") is CIRL
    with pytest.raises(BadParameter):
        get_signature("boolean")
    c3 = wajsberg_hoop(3)
    with pytest.raises(SignatureMismatch):
        build_diagram(c3, HPLUS)


def _watched_conjuncts(a, sig, d) -> int:
    # the watch lists against a's own operations: per method, each
    # argument tuple once, with the position of the operation's value, at
    # the rank of the last of its variables; returns how many there are
    pos = {e: p for p, e in enumerate(d.variables)}
    rank = {p: k for k, p in enumerate(d.order)}
    got = Counter()
    for k, level in enumerate(d.watch):
        for meth, binary, conjuncts in level:
            for c in conjuncts:
                assert len(c) == (3 if binary else 2)
                assert max(rank[p] for p in c) == k
                args = tuple(d.variables[p] for p in c[:-1])
                assert c[-1] == pos[getattr(a, meth)(*args)]
                got[meth, c[:-1]] += 1
    want = Counter((meth, args) for arity, ops in ((2, sig.binary),
                                                  (1, sig.unary))
                   for _, meth in ops
                   for args in itertools.product(range(d.var_count),
                                                 repeat=arity))
    assert got == want
    return sum(got.values())


def test_diagram_shape_and_identity_value():
    c3 = wajsberg_hoop(3)
    d = build_diagram(c3, CIRL)
    assert d.var_count == 3
    assert _watched_conjuncts(c3, CIRL, d) == 4 * 9
    assert eval_diagram(d, Assignment(c3, tuple(c3.elements))) == c3.one

    alg = up_set_algebra(build_poset(2, [(0, 1)]))
    dh = build_diagram(alg, DHEYTING)
    assert len(dh.const_conjuncts) == 2
    assert {c for c, _ in dh.const_conjuncts} == {"zero", "one"}
    assert eval_diagram(dh, Assignment(alg, tuple(alg.elements))) == alg.one
    hp = build_diagram(alg, HPLUS)
    assert eval_diagram(hp, Assignment(alg, tuple(alg.elements))) == alg.one


def test_si_structure():
    c3 = wajsberg_hoop(3)
    got = si_structure(c3, CIRL)
    assert got.is_si and got.mu_bottom == 2 and got.simple
    alg = up_set_algebra(build_poset(2, [(0, 1)]))
    got = si_structure(alg, HPLUS)
    assert got.is_si and got.simple and got.mu_bottom == alg.zero
    boolean4 = up_set_algebra(build_poset(2, []))
    assert not si_structure(boolean4, HPLUS).is_si


def test_si_structure_matches_monolith_info():
    # the delta-fixed-join rule against the congruence-filter monolith
    algebras = [c for lat in all_lattices(5) for c in enumerate_cirls(lat)]
    algebras += [wajsberg_hoop(n) for n in range(2, 7)]
    for a in algebras:
        info = oracle_monolith_info(a)
        got = si_structure(a, CIRL)
        assert got.is_si == info.is_si
        assert got.mu_bottom == info.mu_bottom
        assert got.simple == (info.is_si and info.mu_bottom == a.bottom)


def test_embedding_by_diagram_on_hoops():
    c2, c3 = wajsberg_hoop(2), wajsberg_hoop(3)
    assert embedding_by_diagram(c2, c3, CIRL) is not None
    assert embedding_by_diagram(c3, c2, CIRL) is None
    got = embedding_by_diagram(c2, c3, CIRL)
    d = build_diagram(c2, CIRL)
    assert eval_diagram(d, got) == c3.one


def test_diagram_embedding_agreement_cirl_all_small_pairs():
    algebras = []
    for lat in all_lattices(5):
        algebras.extend(enumerate_cirls(lat))
    si = [a for a in algebras if monolith_info(a).is_si]
    assert len(si) >= 30
    for a in si:
        for b in si:
            via_diagram = embedding_by_diagram(a, b, CIRL) is not None
            direct = search_embedding(a, b, CIRL) is not None
            assert via_diagram == direct


def test_diagram_embedding_agreement_hplus_small_pairs():
    sources = []
    targets = []
    for p in all_posets(4, dedupe=True):
        alg = up_set_algebra(p)
        targets.append(alg)
        if is_connected(p):
            sources.append(alg)
    for a in sources:
        for b in targets:
            via_diagram = embedding_by_diagram(a, b, HPLUS) is not None
            direct = search_embedding(a, b, HPLUS) is not None
            assert via_diagram == direct


def test_search_hom_matches_rescanning_oracle():
    # same placement order, so the planned and filtered search must return
    # the identical first map, and the diagram's injective search the
    # oracle's first homomorphism that keeps the monolith bottom off 1
    si = [c for lat in all_lattices(5) for c in enumerate_cirls(lat)
          if monolith_info(c).is_si]
    cases = [(a, b, CIRL) for a in si for b in si]
    chains = [wajsberg_hoop(n) for n in range(2, 9)]
    cases += [(a, b, CIRL) for a in chains for b in chains]
    sources = [up_set_algebra(p)
               for p in all_posets(3, connected_only=True, dedupe=True)]
    targets = [up_set_algebra(p) for p in all_posets(4, dedupe=True)]
    cases += [(a, b, sig) for sig in (HPLUS, DHEYTING)
              for a in sources for b in targets]
    found = 0
    for a, b, sig in cases:
        got = search_hom(a, b, sig)
        assert got == oracle_search_hom(a, b, sig, require_injective=True)
        forbid = (si_structure(a, sig).mu_bottom, b.one)
        hom = oracle_search_hom(a, b, sig, require_injective=False,
                                forbid=forbid)
        asg = embedding_by_diagram(a, b, sig)
        if hom is None:
            assert asg is None
        else:
            assert asg.values == tuple(hom[e] for e in a.elements)
        found += got is not None
    assert len(cases) == 35 * 35 + 7 * 7 + 2 * 5 * 24 and found


def test_search_plan_watches_each_diagram_conjunct_once():
    # the sources of test_search_hom_matches_rescanning_oracle: each
    # table entry of the source is on its watch lists exactly once, under
    # its own method, at the rank of the last of its variables, and the
    # placement order is a permutation of the positions
    sources = [(a, CIRL) for lat in all_lattices(5)
               for a in enumerate_cirls(lat) if monolith_info(a).is_si]
    sources += [(wajsberg_hoop(n), CIRL) for n in range(2, 9)]
    sources += [(up_set_algebra(p), sig) for sig in (HPLUS, DHEYTING)
                for p in all_posets(3, connected_only=True, dedupe=True)]
    assert len(sources) == 35 + 7 + 2 * 5
    for a, sig in sources:
        d = build_diagram(a, sig)
        assert sorted(d.order) == list(range(d.var_count))
        n = d.var_count
        assert _watched_conjuncts(a, sig, d) == \
            len(sig.binary) * n * n + len(sig.unary) * n


def _not_si_sources():
    # fresh algebras: every non-SI CIRL on a lattice of at most five
    # elements, and Up(2-antichain), the four-element Boolean algebra
    cases = [(c, CIRL) for lat in all_lattices(5) for c in enumerate_cirls(lat)
             if not monolith_info(c).is_si]
    boolean4 = build_poset(2, [])
    cases += [(up_set_algebra(boolean4), sig) for sig in (HPLUS, DHEYTING)]
    assert [(a.size, sig.tag) for a, sig in cases] == \
        [(1, "cirl"), (4, "cirl"), (5, "cirl"), (4, "hplus"), (4, "dheyting")]
    return cases


def test_not_si_sources_are_refused_fresh_and_compiled():
    refusals = (lambda a, sig: embedding_by_diagram(a, a, sig),
                lambda a, sig: delta_power_witness(a, a, 0, sig))
    for first in refusals:
        cases = _not_si_sources()
        for a, sig in cases:
            with pytest.raises(NotSI):
                first(a, sig)
        for a, sig in cases:
            assert search_hom(a, a, sig) == {e: e for e in a.elements}
            for refuse in refusals:
                with pytest.raises(NotSI):
                    refuse(a, sig)


def test_each_algebra_is_compiled_once(monkeypatch):
    from splitbench import diagram

    a, b = wajsberg_hoop(3), wajsberg_hoop(5)
    assert build_diagram(b, CIRL) is build_diagram(b, CIRL)
    si_calls = []
    indices = {}    # (algebra id, tag) -> every index returned, kept alive
    si_structure, delta_indices = diagram.si_structure, diagram._delta_indices

    def counting_si(alg, sig):
        si_calls.append(alg)
        return si_structure(alg, sig)

    def recording_delta(alg, sig):
        index = delta_indices(alg, sig)
        indices.setdefault((id(alg), sig.tag), []).append(index)
        return index

    monkeypatch.setattr(diagram, "si_structure", counting_si)
    monkeypatch.setattr(diagram, "_delta_indices", recording_delta)
    got = [embedding_by_diagram(a, b, CIRL).values for _ in range(3)]
    assert got[0] == got[1] == got[2]
    assert si_calls == [a]
    # one index per algebra and signature, however often it is asked for
    up = up_set_algebra(build_poset(3, [(0, 1), (2, 1)]))
    for sig in (HPLUS, DHEYTING):
        assert search_hom(up, up, sig) == search_hom(up, up, sig)
    assert build_diagram(up, HPLUS) is not build_diagram(up, DHEYTING)
    assert sorted(indices) == sorted([(id(a), "cirl"), (id(b), "cirl"),
                                      (id(up), "hplus"), (id(up), "dheyting")])
    for got in indices.values():
        assert len(got) > 1 and all(index is got[0] for index in got)


def test_a_compiled_table_is_freed_by_reference_counting():
    import gc
    import weakref

    a = wajsberg_hoop(4)
    assert embedding_by_diagram(a, wajsberg_hoop(7), CIRL) is not None
    assert build_diagram(a, CIRL).mu is not None
    ref = weakref.ref(a)
    gc.disable()
    try:
        del a
        assert ref() is None
    finally:
        gc.enable()


def _trivial_hplus():
    # zero == one: the one-element hplus algebra
    return algebra_from_json({"kind": "hplus", "size": 1, "meet": [[0]],
                              "join": [[0]], "arrow": [[0]], "dpc": [0],
                              "zero": 0, "one": 0})


def test_search_hom_is_injective():
    # both elements of Up(1 point) are constants, and the one-element
    # target sends both constants to its one element: a homomorphism
    # that only the injectivity check refuses
    point = up_set_algebra(build_poset(1, []))
    trivial = _trivial_hplus()
    assert oracle_search_hom(point, trivial, HPLUS,
                             require_injective=False) == {0: 0, 1: 0}
    assert search_hom(point, trivial, HPLUS) is None
    assert oracle_search_hom(point, trivial, HPLUS,
                             require_injective=True) is None


def test_delta_power_monotone_in_i():
    c3 = wajsberg_hoop(3)
    c9 = wajsberg_hoop(9)
    d = build_diagram(c3, CIRL)
    for values in itertools.product(range(9), repeat=3):
        val = eval_diagram(d, Assignment(c9, values))
        prev = val
        for _ in range(3):
            nxt = CIRL.delta(c9, prev)
            assert c9.leq(nxt, prev)
            prev = nxt


def test_witness_at_large_power_gives_witness_at_small():
    # a witness for a later delta power is one for every earlier power
    c3 = wajsberg_hoop(3)
    c9 = wajsberg_hoop(9)
    for i in (0, 1, 2):
        late = delta_power_witness(c3, c9, i + 1, CIRL)
        if late is not None:
            early = delta_power_witness(c3, c9, i, CIRL,
                                        candidates=[late.values])
            assert early is not None and early.values == late.values


def test_delta_power_witness_identity_case():
    c3 = wajsberg_hoop(3)
    got = delta_power_witness(c3, c3, 0, CIRL,
                              candidates=[tuple(c3.elements)])
    assert got is not None and got.values == tuple(c3.elements)


def test_in_hs():
    c2, c3, c5 = wajsberg_hoop(2), wajsberg_hoop(3), wajsberg_hoop(5)
    assert in_hs(c2, c3, CIRL)
    assert in_hs(c3, c5, CIRL)
    assert not in_hs(c3, wajsberg_hoop(4), CIRL)
    # a trivial target admits nothing but trivial sources
    from splitbench.residuated import congruence_filters, quotient

    full = congruence_filters(c3)[-1]
    triv = quotient(c3, full).algebra
    assert not in_hs(c2, triv, CIRL)
    assert in_hs(triv, c2, CIRL)


def test_in_hs_hplus():
    three = up_set_algebra(build_poset(2, [(0, 1)]))
    f4 = up_set_algebra(build_poset(4, [(0, 1), (2, 1), (2, 3)]))
    assert in_hs(three, f4, HPLUS)
    assert not in_hs(f4, three, HPLUS)
    # the one-element algebra is the quotient by the total congruence
    trivial = _trivial_hplus()
    assert in_hs(trivial, f4, HPLUS) and oracle_in_hs(trivial, f4, HPLUS)


def test_in_hs_matches_table_quotient_oracle():
    # Up(G) quotients on the dual against table quotients of b, and the
    # same answers when b arrives as a JSON table
    sources = [up_set_algebra(p) for p in all_posets(3, connected_only=True)]
    targets = [up_set_algebra(p) for p in all_posets(4, dedupe=True)]
    assert len(sources) * len(targets) * 2 == 240
    found = 0
    for sig in (HPLUS, DHEYTING):
        for b in targets:
            table = algebra_from_json(upalgebra_to_json(b, sig.tag))
            for a in sources:
                got = in_hs(a, b, sig)
                assert got == oracle_in_hs(a, b, sig)
                assert in_hs(a, table, sig) == got
                found += got
    assert found == 125


def test_in_hs_builds_no_quotient_smaller_than_a(monkeypatch):
    # |Up(G)| is counted before Up(G) is built; building first made 282
    # quotients over these pairs, 170 of them too small to search
    from splitbench import duality

    sources = [up_set_algebra(p) for p in all_posets(3, connected_only=True)]
    targets = [up_set_algebra(p) for p in all_posets(4, dedupe=True)]
    built = []

    def counting(p, *args, **kwargs):
        q = up_set_algebra(p, *args, **kwargs)
        built.append(q.size)
        return q

    monkeypatch.setattr(duality, "up_set_algebra", counting)
    for sig in (HPLUS, DHEYTING):
        for b in targets:
            for a in sources:
                del built[:]
                in_hs(a, b, sig)
                assert all(size >= a.size for size in built), (a, b, sig)


def test_witness_suite_cirl_c3():
    rep = witness_suite(wajsberg_hoop(3), 1, CIRL)
    assert not rep.exempt
    for entry in rep.entries:
        assert entry.delta_witness_found
        assert entry.excluded is True
        assert entry.detail["prime"] >= entry.detail["expansion_size"]


def test_small_si_algebras_excluded_from_their_glued_products():
    # every 3- and 4-element SI algebra misses every quotient of its own
    # glued expansion product, and the delta witness is found
    from conftest import all_lattices, enumerate_cirls

    si = []
    for lat in all_lattices(4):
        for c in enumerate_cirls(lat):
            if 3 <= c.size <= 4 and monolith_info(c).is_si:
                si.append(c)
    assert len(si) == 8
    for a in si:
        rep = witness_suite(a, 0, CIRL)
        entry = rep.entries[0]
        assert entry.delta_witness_found and entry.excluded is True


def test_two_element_tuple_value():
    # the canonical pair computation for the two-element source
    from splitbench.diagram import _canonical_tuple, _first_prime_at_least, \
        _pair_index
    from splitbench.expansion import expand_to_depth
    from splitbench.residuated import truncated_product

    c2 = wajsberg_hoop(2)
    exp = expand_to_depth(c2, 3)          # expansion of depth 4
    e = exp.algebra
    e_info = monolith_info(e)
    hoop = wajsberg_hoop(_first_prime_at_least(e.size) + 1)
    big = truncated_product(e, hoop)
    pair_of = _pair_index(e, hoop, big)
    w = _canonical_tuple(c2, e, exp.embedding, hoop, big)
    assert w[c2.one] == pair_of[(e.one, hoop.one)]
    assert w[1] == pair_of[(exp.embedding[1], 1)]
    d = build_diagram(c2, CIRL)
    value = eval_diagram(d, Assignment(big, w))
    assert value == pair_of[(e_info.coatom, 1)]
    # powers stay above the bottom variable strictly below the depth
    mu_pos = d.position(1)
    for k in range(1, exp.depth):
        assert not big.leq(big.power(value, k), w[mu_pos])


def test_some_assignment_witnesses_the_depth_boundary():
    # the canonical tuple stops at the depth, but some assignment still
    # witnesses the depth power itself
    from splitbench.diagram import _canonical_tuple, _first_prime_at_least, \
        _pair_index, delta_power_witness
    from splitbench.expansion import expand_to_depth
    from splitbench.residuated import truncated_product

    a = wajsberg_hoop(3)
    exp = expand_to_depth(a, 3)
    e = exp.algebra
    m = exp.depth
    hoop = wajsberg_hoop(_first_prime_at_least(e.size) + 1)
    big = truncated_product(e, hoop)
    w = _canonical_tuple(a, e, exp.embedding, hoop, big)
    d = build_diagram(a, CIRL)
    value = eval_diagram(d, Assignment(big, w))
    mu_pos = d.position(monolith_info(a).mu_bottom)
    assert big.leq(big.power(value, m), w[mu_pos])
    found = None
    for values in itertools.product(range(big.size), repeat=3):
        v = eval_diagram(d, Assignment(big, values))
        if not big.leq(big.power(v, m), values[mu_pos]):
            found = values
            break
    assert found is not None


def test_witness_suite_cirl_c2_partial():
    rep = witness_suite(wajsberg_hoop(2), 1, CIRL)
    assert not rep.exempt and "two-element" in rep.note
    for entry in rep.entries:
        assert entry.delta_witness_found
        assert entry.excluded is None


def test_witness_suite_hplus_exempt_for_three():
    three = up_set_algebra(build_poset(2, [(0, 1)]))
    rep = witness_suite(three, 1, HPLUS)
    assert rep.exempt


def test_witness_suite_hplus_fence():
    f4 = up_set_algebra(build_poset(4, [(0, 1), (2, 1), (2, 3)]))
    rep = witness_suite(f4, 0, HPLUS)
    assert not rep.exempt
    for entry in rep.entries:
        assert entry.delta_witness_found
        assert entry.excluded is True


def test_cirl_and_order_tables_are_one_table_algebra():
    # a hoop is the TableAlgebra of kind cirl: mult and res read its mul
    # and arrow tables, meet and join its lattice's
    c3 = wajsberg_hoop(3)
    assert isinstance(c3, TableAlgebra) and c3.kind == "cirl"
    assert c3.bottom == c3.lattice.zero == 2
    for x in c3.elements:
        for y in c3.elements:
            assert c3.mult(x, y) == c3.mul[x][y]
            assert c3.res(x, y) == c3.arrow[x][y]
            assert c3.meet(x, y) == c3.lattice.meet[x][y]
            assert c3.join(x, y) == c3.lattice.join[x][y]
            assert c3.iff(x, y) == CIRL.iff(c3, x, y) == \
                c3.meet(c3.res(x, y), c3.res(y, x))
    # every operation of an order kind is bound under its method name
    # from the table under its key
    up = up_set_algebra(build_poset(4, [(0, 1), (2, 1), (2, 3)]))
    for kind, sig in KINDS.items():
        if kind == "cirl":
            continue
        obj = upalgebra_to_json(up, kind)
        alg = algebra_from_json(obj)
        assert type(alg) is TableAlgebra and alg.kind == kind
        assert alg.bottom == alg.zero == alg.lattice.zero
        for key, meth in sig.binary:
            fn = getattr(alg, meth)
            assert [[fn(x, y) for y in alg.elements]
                    for x in alg.elements] == obj[key], (kind, key)
        for key, meth in sig.unary:
            fn = getattr(alg, meth)
            assert [fn(x) for x in alg.elements] == obj[key], (kind, key)
