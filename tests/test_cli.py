import argparse
import json
import re
import time

import pytest

from conftest import (all_posets, oracle_coarrow_law, oracle_order_laws,
                      single_cell_mutations)
from splitbench import cli, residuated
from splitbench.diagram import KINDS, TableAlgebra
from splitbench.duality import up_set_algebra
from splitbench.errors import AxiomError, SplitbenchError
from splitbench.lattice import FinLattice
from splitbench.poset import build_poset, is_connected
from splitbench.residuated import truncated_product, wajsberg_hoop


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def chain2(tmp_path):
    return write(tmp_path, "ch2.json",
                 {"kind": "poset", "size": 2, "le": [[0, 1]],
                  "bot": 0, "top": 1})


@pytest.fixture
def fence4(tmp_path):
    return write(tmp_path, "f4.json",
                 {"kind": "poset", "size": 4,
                  "le": [[0, 1], [2, 1], [2, 3]], "bot": 0, "top": 1})


def test_round_trip_every_kind(tmp_path, capsys):
    p = build_poset(4, [(0, 1), (2, 1), (2, 3)])
    pj = cli.poset_to_json(p, 0, 1)
    p2, bot, top = cli.poset_from_json(pj, 24)
    assert p2 == p and (bot, top) == (0, 1)
    assert cli.poset_to_json(p2, bot, top) == pj

    c4 = wajsberg_hoop(4)
    aj = cli.algebra_to_json(c4, "cirl")
    back = cli.algebra_from_json(aj)
    assert cli.algebra_to_json(back, "cirl") == aj

    alg = up_set_algebra(p)
    for kind in ("heyting", "hplus", "dheyting", "dp"):
        obj = cli.upalgebra_to_json(alg, kind)
        back = cli.algebra_from_json(obj)
        emitted = cli.algebra_to_json(back, kind, labels=obj["labels"])
        assert emitted == obj


def test_validate_and_analyze(tmp_path, capsys, chain2):
    code, out = run_cli(capsys, "validate", chain2)
    assert code == 0 and out["ok"]
    code, out = run_cli(capsys, "analyze", chain2)
    assert code == 0 and out["connected"] and out["fence"]

    hoop = write(tmp_path, "c4.json",
                 cli.algebra_to_json(wajsberg_hoop(4), "cirl"))
    code, out = run_cli(capsys, "analyze", hoop)
    assert code == 0 and out["si"] and out["depth"] == 3


def test_validate_rejects_garbage(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", {"kind": "poset", "size": 2,
                                       "le": [[0, 1], [1, 0]]})
    code, _ = run_cli(capsys, "validate", bad)
    assert code == 1
    worse = tmp_path / "nope.json"
    worse.write_text("{not json")
    assert cli.run(["validate", str(worse)]) == 3
    capsys.readouterr()


def _two_element(**changes):
    # Up of the one-point poset, as an hplus table, with some entries replaced
    obj = cli.upalgebra_to_json(up_set_algebra(build_poset(1, [])), "hplus")
    obj.update(changes)
    return obj


_CHAIN2 = {"kind": "poset", "size": 2, "le": [[0, 1]]}
_ONE_BY_ONE = {"kind": "hplus", "size": True, "meet": [[0]], "join": [[0]],
               "arrow": [[0]], "dpc": [0], "zero": 0, "one": 0}


@pytest.mark.parametrize("obj, command, message", [
    ([1, 2], ["validate"], "top-level JSON value is not an object"),
    ({"kind": "poset", "size": 3, "le": [[0, 1, 2]]}, ["validate"],
     "le[0] is not a pair"),
    (_two_element(dpc=[-1, 0]), ["validate"], "table dpc at (0) = -1"),
    (_two_element(one=True), ["validate"], "constant one = True"),
    (_two_element(meet=[[0, 5], [5, 1]]), ["validate"],
     "table meet at (0,1) = 5"),
    ({"kind": "poset", "size": True, "le": []}, ["validate"],
     "poset size = True"),
    (_ONE_BY_ONE, ["validate"], "algebra size = True"),
    ({**_CHAIN2, "bot": "0", "top": 1}, ["validate"], "bot = '0'"),
    ({**_CHAIN2, "bot": 0, "top": 5}, ["validate"], "top = 5"),
    (_CHAIN2, ["filtrate", "--gens", "x"], "argument --gens"),
    (_CHAIN2, ["filtrate", "--gens", "99"], "--gens mask 99"),
    ({**_CHAIN2, "kind": ["poset"]}, ["validate"], "unknown algebra kind"),
], ids=["array", "le-triple", "negative-dpc", "bool-constant",
        "meet-out-of-range", "bool-poset-size", "bool-algebra-size",
        "string-bot", "top-out-of-range", "gens-not-int",
        "gens-outside-poset", "list-kind"])
def test_malformed_input_exits_three(tmp_path, capsys, obj, command, message):
    path = write(tmp_path, "bad.json", obj)
    argv = [command[0], path, *command[1:]]
    try:
        code = cli.run(argv)
    except SystemExit as stop:     # argparse usage errors
        code = stop.code
    assert code == 3
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_usage_errors_and_bad_caps_exit_three(capsys, monkeypatch):
    with pytest.raises(SystemExit) as stop:
        cli.run(["hoop"])
    assert stop.value.code == 3
    assert "required: n" in capsys.readouterr().err
    with pytest.raises(SystemExit) as stop:
        cli.run(["--budget", "lots", "hoop", "3"])
    assert stop.value.code == 3
    assert "--budget" in capsys.readouterr().err
    # count arguments out of range are refused before any file is read
    for argv, name in ((["hoop", "1"], "argument n"),
                       (["powerchain", "p.json", "0"], "argument n"),
                       (["witness", "a.json", "--sig", "cirl", "--imax", "-1"],
                        "--imax"),
                       (["hwitness", "x.json", "auto", "--n", "-1"], "--n"),
                       (["expand", "a.json", "--depth", "-1"], "--depth"),
                       (["expand", "a.json", "--rounds", "-1"], "--rounds")):
        with pytest.raises(SystemExit) as stop:
            cli.run(argv)
        assert stop.value.code == 3, argv
        assert name in capsys.readouterr().err, argv
    for env in (cli.ENV_MAX_POSET, cli.ENV_MAX_UPSETS, cli.ENV_BUDGET):
        monkeypatch.setenv(env, "lots")
        with pytest.raises(SystemExit) as stop:
            cli.run(["hoop", "3"])
        assert stop.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == "" and env in captured.err
        monkeypatch.delenv(env)
    assert cli.run(["hoop", "3"]) == 0


def test_hoop_expand_pipeline(tmp_path, capsys):
    code, hoop3 = run_cli(capsys, "hoop", "3")
    assert code == 0 and hoop3["size"] == 3
    path = write(tmp_path, "c3.json", hoop3)
    code, out = run_cli(capsys, "expand", path, "--depth", "4")
    assert code == 0 and out["size"] == 5
    code, out = run_cli(capsys, "expand", path, "--rounds", "2")
    assert code == 0 and out["size"] == 9


def test_truncprod(tmp_path, capsys):
    a = write(tmp_path, "a.json", cli.algebra_to_json(wajsberg_hoop(3), "cirl"))
    b = write(tmp_path, "b.json", cli.algebra_to_json(wajsberg_hoop(4), "cirl"))
    code, out = run_cli(capsys, "truncprod", a, b)
    assert code == 0 and out["size"] == 2 * 3 + 1


def test_truncprod_refuses_elements_outside_the_factors(tmp_path, capsys):
    a = write(tmp_path, "a.json", cli.algebra_to_json(wajsberg_hoop(3), "cirl"))
    b = write(tmp_path, "b.json", cli.algebra_to_json(wajsberg_hoop(4), "cirl"))
    for flags, message in ((["--c", "99"], "--c = 99 is not an element "
                                           "index below 3"),
                           (["--c", "-1"], "--c = -1"),
                           (["--q", "4"], "--q = 4 is not an element "
                                          "index below 4"),
                           (["--q", "-1"], "--q = -1")):
        assert cli.run(["truncprod", a, b, *flags]) == 3, flags
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, flags
    code, out = run_cli(capsys, "truncprod", a, b, "--c", "1", "--q", "3")
    assert code == 0 and out["size"] == 2 * 1 + 1


def test_splittings_exit_codes(tmp_path, capsys):
    m3 = write(tmp_path, "m3.json",
               {"kind": "poset", "size": 5,
                "le": [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]]})
    code, out = run_cli(capsys, "splittings", m3)
    assert code == 2 and out["pairs"] == []
    ch = write(tmp_path, "ch3.json",
               {"kind": "poset", "size": 3, "le": [[0, 1], [1, 2]]})
    code, out = run_cli(capsys, "splittings", ch)
    assert code == 0 and len(out["pairs"]) == 2


def test_dual_and_upalg(tmp_path, capsys, fence4):
    code, out = run_cli(capsys, "upalg", fence4)
    assert code == 0 and out["size"] == 8
    alg_path = write(tmp_path, "f4alg.json", out)
    code, out = run_cli(capsys, "dual", alg_path)
    assert code == 0 and out["size"] == 4


def test_searrow_powerchain(tmp_path, capsys, chain2):
    code, out = run_cli(capsys, "searrow", chain2, chain2)
    assert code == 0 and out["size"] == 4
    code, out = run_cli(capsys, "powerchain", chain2, "3")
    assert code == 0 and out["size"] == 6 and out["bot"] == 0


def test_diagram_witness(tmp_path, capsys, fence4):
    code, out = run_cli(capsys, "upalg", fence4)
    alg_path = write(tmp_path, "alg.json", out)
    code, out = run_cli(capsys, "diagram", alg_path, "--sig", "hplus")
    assert code == 0 and out["identity_value_is_one"]

    hoop = write(tmp_path, "c3.json",
                 cli.algebra_to_json(wajsberg_hoop(3), "cirl"))
    code, out = run_cli(capsys, "witness", hoop, "--imax", "1",
                        "--sig", "cirl")
    assert code == 0
    assert all(e["delta_witness_found"] and e["excluded"]
               for e in out["entries"])


def test_witness_on_table_hplus_file(tmp_path, capsys, fence4):
    code, out = run_cli(capsys, "upalg", fence4)
    alg_path = write(tmp_path, "alg.json", out)
    code, out = run_cli(capsys, "witness", alg_path, "--imax", "0",
                        "--sig", "hplus")
    assert code == 0
    assert all(e["delta_witness_found"] and e["excluded"]
               for e in out["entries"])


def test_hwitness(tmp_path, capsys, fence4):
    code, out = run_cli(capsys, "hwitness", fence4, "auto", "--n", "0",
                        "--sig", "hplus")
    assert code == 0 and out["delta_power_nonempty"]
    assert out["fence_case"] == "both-tails"


def test_morphisms(tmp_path, capsys, fence4, chain2):
    code, out = run_cli(capsys, "morphisms", fence4, chain2,
                        "--kind", "hplus", "--surjective")
    assert code == 0 and out["count"] > 0
    ch3 = write(tmp_path, "ch3.json",
                {"kind": "poset", "size": 3, "le": [[0, 1], [1, 2]]})
    code, out = run_cli(capsys, "morphisms", chain2, ch3,
                        "--kind", "hplus", "--surjective")
    assert code == 2 and out["count"] == 0


def test_filtrate_command(tmp_path, capsys, fence4):
    code, out = run_cli(capsys, "filtrate", fence4, "--gens", "2",
                        "--close-dpc")
    assert code == 0 and out["preserved"]
    assert sum(len(c) for c in out["classes"]) == 4


def test_caps_give_exit_three(tmp_path, capsys, fence4, chain2, monkeypatch):
    big = write(tmp_path, "big.json",
                {"kind": "poset", "size": 6, "le": []})
    assert cli.run(["--max-poset", "5", "validate", big]) == 3
    capsys.readouterr()
    monkeypatch.setenv(cli.ENV_MAX_POSET, "5")
    assert cli.run(["validate", big]) == 3
    capsys.readouterr()
    # a starved morphism-search budget is a cap error, not a miss
    assert cli.run(["--budget", "2", "morphisms", fence4, chain2,
                    "--kind", "hplus"]) == 3
    capsys.readouterr()


def test_dp_must_be_distributive(tmp_path, capsys):
    # the pentagon 0<1<2<4, 0<3<4 with its two pseudocomplements
    lat = FinLattice(build_poset(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)]))
    n5 = write(tmp_path, "n5.json",
               {"kind": "dp", "size": 5, "meet": lat.meet, "join": lat.join,
                "neg": [4, 3, 3, 2, 0], "dpc": [4, 3, 3, 1, 0],
                "zero": 0, "one": 4})
    for command in ("validate", "analyze"):
        assert cli.run([command, n5]) == 1
        err = capsys.readouterr().err
        assert re.search(r"distributive law fails at \(\d+,\d+,\d+\)", err)


def test_order_laws_match_oracle(monkeypatch):
    # every single-cell mutation of meet, the constants and the tables
    # beyond meet and join of Up(X), for the 23 labelled X of size <= 3:
    # each table that reaches the laws fails with the same message, or
    # passes, under the law checker and under the per-kind oracle loops
    check = residuated.validate_order_algebra
    verdicts = []

    def message(law, *args):
        try:
            law(*args)
        except AxiomError as exc:
            return str(exc)
        return None

    def both(kind, lattice, tables, consts):
        verdicts.append((
            message(check, kind, lattice, tables, consts),
            message(oracle_order_laws,
                    TableAlgebra(kind, lattice, tables, consts))))

    monkeypatch.setattr(residuated, "validate_order_algebra", both)
    cases = 0
    for p in all_posets(3):
        alg = up_set_algebra(p)
        for kind in ("heyting", "hplus", "dheyting", "dp"):
            sig = KINDS[kind]
            keys = [k for k, _ in sig.binary + sig.unary if k != "join"]
            for obj in single_cell_mutations(cli.upalgebra_to_json(alg, kind),
                                             keys + list(sig.consts)):
                cases += 1
                try:
                    cli.algebra_from_json(obj)
                except SplitbenchError:
                    pass
    assert (cases, len(verdicts)) == (11414, 6190)
    for got, want in verdicts:
        assert got == want
    laws = {got.split(" fails")[0] for got, _ in verdicts if got}
    assert laws == {"arrow residuation", "coarrow residuation",
                    "dual pseudocomplement law", "pseudocomplement law",
                    "constants are not the lattice bounds"}


def test_heyting_laws_match_oracle_on_up_of_four_points(monkeypatch):
    # the cover-wise residuation scan on a 10-element non-chain lattice:
    # Up of a vee beside a point, loaded as heyting and hplus
    check = residuated.validate_order_algebra
    verdicts = []

    def message(law, *args):
        try:
            law(*args)
        except AxiomError as exc:
            return str(exc)
        return None

    def both(kind, lattice, tables, consts):
        verdicts.append((
            message(check, kind, lattice, tables, consts),
            message(oracle_order_laws,
                    TableAlgebra(kind, lattice, tables, consts))))

    monkeypatch.setattr(residuated, "validate_order_algebra", both)
    alg = up_set_algebra(build_poset(4, [(0, 1), (2, 1)]))
    assert alg.size == 10
    for kind, keys in (("heyting", ["arrow"]), ("hplus", ["arrow", "dpc"])):
        obj = cli.upalgebra_to_json(alg, kind)
        for mutated in single_cell_mutations(obj, keys):
            cli.algebra_from_json(mutated)
    assert len(verdicts) == 2 * 10 * 10 * 9 + 10 * 9
    for got, want in verdicts:
        assert got == want and got is not None


def _law_message(law, *args):
    try:
        law(*args)
    except AxiomError as exc:
        return str(exc)
    return None


def test_coarrow_law_matches_oracle_on_up_of_four_points(monkeypatch):
    # the coarrow law on the reversed covers of a 10-element non-chain
    # lattice: every single-cell arrow and coarrow mutation of Up of a vee
    # beside a point, loaded as dheyting, fails with the oracle's message,
    # and each coarrow failure with the old coarrow loop's
    check = residuated.validate_order_algebra
    verdicts = []

    def both(kind, lattice, tables, consts):
        verdicts.append((
            _law_message(check, kind, lattice, tables, consts),
            _law_message(oracle_order_laws,
                         TableAlgebra(kind, lattice, tables, consts)),
            _law_message(oracle_coarrow_law, lattice, tables["coarrow"])))

    monkeypatch.setattr(residuated, "validate_order_algebra", both)
    alg = up_set_algebra(build_poset(4, [(0, 1), (2, 1)]))
    assert alg.size == 10
    obj = cli.upalgebra_to_json(alg, "dheyting")
    for mutated in single_cell_mutations(obj, ["arrow", "coarrow"]):
        cli.algebra_from_json(mutated)
    assert len(verdicts) == 2 * 10 * 10 * 9
    laws = []
    for got, want, coarrow in verdicts:
        assert got == want and got is not None
        laws.append(got.split(" fails")[0])
        if laws[-1] == "coarrow residuation":
            assert got == coarrow
    assert laws.count("arrow residuation") == laws.count(
        "coarrow residuation") == 10 * 10 * 9


def test_witness_and_diagram_keep_the_poset_cap(tmp_path, capsys,
                                                monkeypatch):
    vee = write(tmp_path, "vee.json",
                {"kind": "poset", "size": 3, "le": [[0, 1], [2, 1]]})
    for argv in (["witness", vee, "--sig", "hplus", "--imax", "0"],
                 ["diagram", vee, "--sig", "dheyting"]):
        assert cli.run(["--max-poset", "2", *argv]) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert "poset size 3 exceeds cap 2" in captured.err, argv
        monkeypatch.setenv(cli.ENV_MAX_POSET, "2")
        assert cli.run(argv) == 3, argv
        assert "exceeds cap 2" in capsys.readouterr().err, argv
        monkeypatch.delenv(cli.ENV_MAX_POSET)
        assert cli.run(["--max-poset", "3", *argv]) == 0, argv
        capsys.readouterr()


def test_glued_carriers_keep_the_builder_cap(tmp_path, capsys):
    # --n 2 glues four copies of the 5-chain and a 6-point fence: 26 points
    chain5 = write(tmp_path, "c5.json",
                   {"kind": "poset", "size": 5,
                    "le": [[0, 1], [1, 2], [2, 3], [3, 4]],
                    "bot": 0, "top": 4})
    start = time.perf_counter()
    assert cli.run(["--max-poset", "100", "hwitness", chain5, "auto",
                    "--n", "2"]) == 3
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "poset size 26 exceeds cap 24" in captured.err


def test_witness_refuses_tables_without_the_operations(tmp_path, capsys):
    up = up_set_algebra(build_poset(4, [(0, 1), (2, 1), (2, 3)]))
    tables = {kind: cli.upalgebra_to_json(up, kind)
              for kind in ("heyting", "hplus", "dheyting", "dp")}
    tables["cirl"] = cli.algebra_to_json(wajsberg_hoop(3), "cirl")
    for kind, sigs in (("cirl", ("hplus", "dheyting")),
                       ("dp", ("hplus", "dheyting")),
                       ("heyting", ("hplus", "dheyting")),
                       ("hplus", ("dheyting",)),
                       ("dheyting", ("hplus",))):
        path = write(tmp_path, f"{kind}.json", tables[kind])
        for sig in sigs:
            for argv in (["witness", path, "--sig", sig, "--imax", "0"],
                         ["diagram", path, "--sig", sig]):
                assert cli.run(argv) == 1, argv
                captured = capsys.readouterr()
                assert captured.out == "", argv
                assert f"does not carry the {sig} operations" in \
                    captured.err, argv


def test_truncated_products_past_the_cap_exit_three(tmp_path, capsys):
    # witness on C5 x C5 would build a 2651-element product, and the
    # product of two 20-element hoops has 19 * 19 + 1 elements
    c5 = wajsberg_hoop(5)
    product = write(tmp_path, "c5c5.json",
                    cli.algebra_to_json(truncated_product(c5, c5), "cirl"))
    hoop = write(tmp_path, "c20.json",
                 cli.algebra_to_json(wajsberg_hoop(20), "cirl"))
    for argv, size in ((["witness", product, "--sig", "cirl", "--imax", "0"],
                        2651),
                       (["truncprod", hoop, hoop], 362)):
        start = time.perf_counter()
        assert cli.run(argv) == 3, argv
        assert time.perf_counter() - start < 10, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert f"truncated product of {size} elements exceeds cap 256" in \
            captured.err, argv


def test_hoop_past_the_product_cap_exits_three(capsys):
    # building and printing a hoop grows with n squared; the cap is the
    # truncated products' own
    start = time.perf_counter()
    assert cli.run(["hoop", "257"]) == 3
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: hoop of 257 elements exceeds cap 256\n"
    code, hoop = run_cli(capsys, "hoop", "256")
    assert code == 0 and hoop["size"] == 256


def test_expansions_past_the_cap_exit_three(tmp_path, capsys):
    # the C2 tower reaches depth 64 in a 65-element round, and the next
    # round, which depth 256 ran into for over 300 s, takes a 129-element
    # monoid; so does the first round of the 65-hoop
    c2 = write(tmp_path, "c2.json",
               cli.algebra_to_json(wajsberg_hoop(2), "cirl"))
    c65 = write(tmp_path, "c65.json",
                cli.algebra_to_json(wajsberg_hoop(65), "cirl"))
    for argv in (["expand", c2, "--depth", "256"],
                 ["expand", c65, "--depth", "128"],
                 ["expand", c65, "--rounds", "1"]):
        start = time.perf_counter()
        assert cli.run(argv) == 3, argv
        assert time.perf_counter() - start < 30, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert "expansion monoid of 129 elements exceeds cap 128" in \
            captured.err, argv


# the cap variables are read on every call, so each cli.run obeys the
# value current at that call: (variable, argv, a value that refuses, its
# message, a value that passes)
def _cap_cases(tmp_path):
    antichain3 = write(tmp_path, "a3.json", {"kind": "poset", "size": 3,
                                             "le": []})
    vee = write(tmp_path, "vee.json",
                {"kind": "poset", "size": 3, "le": [[0, 1], [2, 1]]})
    fence = write(tmp_path, "fence.json",
                  {"kind": "poset", "size": 4,
                   "le": [[0, 1], [2, 1], [2, 3]]})
    chain = write(tmp_path, "chain.json",
                  {"kind": "poset", "size": 2, "le": [[0, 1]]})
    return ((cli.ENV_MAX_POSET, ["validate", vee], "2",
             "poset size 3 exceeds cap 2", "3"),
            (cli.ENV_MAX_UPSETS, ["upalg", antichain3], "4",
             "2^3 up-set candidates exceed cap 4", "8"),
            (cli.ENV_BUDGET, ["morphisms", fence, chain, "--kind", "hplus"],
             "1", "morphism search budget exceeded", "1000"))


def test_cap_variables_are_read_on_every_call(tmp_path, capsys,
                                              monkeypatch):
    for env, argv, refuse, message, allow in _cap_cases(tmp_path):
        monkeypatch.delenv(env, raising=False)
        assert cli.run(argv) == 0, env
        capsys.readouterr()
        for value, code in ((refuse, 3), (allow, 0), (refuse, 3)):
            monkeypatch.setenv(env, value)
            assert cli.run(argv) == code, (env, value)
            captured = capsys.readouterr()
            assert (message in captured.err) == (code == 3), (env, value)
        monkeypatch.delenv(env)
        assert cli.run(argv) == 0, env
        assert capsys.readouterr().err == "", env


USAGE = """\
usage: splitbench [-h] [--max-poset MAX_POSET] [--max-upsets MAX_UPSETS]
                  [--budget BUDGET]
                  {validate,analyze,hoop,expand,truncprod,dual,upalg,searrow,powerchain,diagram,witness,hwitness,morphisms,splittings,filtrate}
                  ...
"""


def test_bad_cap_variable_messages_are_exact(capsys, monkeypatch):
    # argparse wraps usage to the terminal width it reads from COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    for env, flag in ((cli.ENV_MAX_POSET, "--max-poset"),
                      (cli.ENV_MAX_UPSETS, "--max-upsets"),
                      (cli.ENV_BUDGET, "--budget")):
        expected = (USAGE + f"splitbench: error: argument {flag}: invalid "
                    f"int value 'lots' (from the flag or {env})\n")
        # a bad variable is reported even before a missing command
        for argv in (["hoop", "3"], []):
            monkeypatch.setenv(env, "lots")
            with pytest.raises(SystemExit) as stop:
                cli.run(argv)
            assert stop.value.code == 3
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == expected, argv
        monkeypatch.delenv(env)
        assert cli.run(["hoop", "3"]) == 0
        assert capsys.readouterr().err == ""
        monkeypatch.setenv(env, "lots")
        # the flag wins over the variable, as at parse time
        assert cli.run([flag, "1000", "hoop", "3"]) == 0
        assert capsys.readouterr().err == ""
        monkeypatch.delenv(env)


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    assert cli.run(["hoop", "3"]) == 0
    assert len(built) == 16     # the top parser and its 15 subcommands
    assert cli.run(["hoop", "4"]) == 0
    with pytest.raises(SystemExit):
        cli.run(["hoop"])
    assert len(built) == 16
    capsys.readouterr()


def test_witness_on_a_disconnected_poset_names_connectedness(tmp_path,
                                                              capsys):
    # up to isomorphism: 1, 2 and 6 of the posets of 2, 3 and 4 points,
    # three of them antichains, which have no comparable (bot, top) pair
    disconnected = [p for p in all_posets(4, dedupe=True)
                    if not is_connected(p)]
    assert len(disconnected) == 1 + 2 + 6
    for k, p in enumerate(disconnected):
        path = write(tmp_path, f"d{k}.json", cli.poset_to_json(p))
        for sig in ("hplus", "dheyting"):
            assert cli.run(["witness", path, "--sig", sig]) == 1, (k, sig)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "invalid: x must be connected\n", (k, sig)


def test_witness_on_a_one_element_algebra_names_si(tmp_path, capsys):
    # the one-element algebra is not SI in any signature, and its dual
    # poset is empty: every signature gives the cirl side's reason
    trivial = {"size": 1, "meet": [[0]], "join": [[0]], "arrow": [[0]],
               "zero": 0, "one": 0}
    objs = {"hplus": dict(trivial, kind="hplus", dpc=[0]),
            "dheyting": dict(trivial, kind="dheyting", coarrow=[[0]]),
            "cirl": dict(trivial, kind="cirl", mul=[[0]])}
    for sig, obj in objs.items():
        path = write(tmp_path, f"{sig}.json", obj)
        assert cli.run(["witness", path, "--sig", sig]) == 1, sig
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "invalid: witness suite needs an SI algebra\n", sig
