"""Generated input through ``cli.run``: every outcome is an exit code of
the 0/1/2/3 contract and no exception escapes."""

import contextlib
import copy
import io
import json
import sys

from hypothesis import given, settings, strategies as st

from splitbench import cli
from splitbench.duality import up_set_algebra
from splitbench.poset import build_poset
from splitbench.residuated import wajsberg_hoop

_UP_VEE = up_set_algebra(build_poset(3, [(0, 1), (2, 1)]))
# one valid document of each kind, small enough for every command
VALID = [
    {"kind": "poset", "size": 3, "le": [[0, 1], [2, 1]], "bot": 0, "top": 1},
    {"kind": "poset", "size": 4, "le": [[0, 1], [2, 1], [2, 3]],
     "bot": 0, "top": 1},
    cli.algebra_to_json(wajsberg_hoop(3), "cirl"),
    cli.algebra_to_json(wajsberg_hoop(4), "cirl"),
    *(cli.upalgebra_to_json(_UP_VEE, kind)
      for kind in ("heyting", "hplus", "dheyting", "dp")),
]
SIGS = ["cirl", "hplus", "dheyting"]
COMMANDS = st.one_of(
    st.sampled_from([["validate"], ["analyze"], ["dual"], ["splittings"],
                     ["expand", "--rounds", "1"]]),
    st.sampled_from(SIGS).map(lambda s: ["diagram", "--sig", s]),
    st.sampled_from(SIGS).map(lambda s: ["witness", "--imax", "0",
                                         "--sig", s]),
)
# sizes past 6 only where they are refused, so no command meets a big carrier
SIZES = st.one_of(st.integers(-1, 6),
                  st.sampled_from([True, 2.5, "3", None, 25, 10 ** 9]))
# explicit alphabets: a default text strategy first builds a Unicode table
KEYS = st.sampled_from(["kind", "size", "le", "meet", "join", "mul", "arrow",
                        "coarrow", "dpc", "neg", "zero", "one", "bot", "top",
                        "poset", "cirl", ""])
JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 6), KEYS,
              st.text(alphabet="ab01-", max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(KEYS, inner, max_size=3)),
    max_leaves=8)


@st.composite
def documents(draw) -> str:
    how = draw(st.sampled_from(["text", "shape", "field", "size", "cell",
                                "valid"]))
    if how == "text":
        return draw(st.text(alphabet='{}[]":,01 -eflnrstu', max_size=12))
    if how == "shape":
        return json.dumps(draw(JUNK))
    doc = copy.deepcopy(draw(st.sampled_from(VALID)))
    if how == "field":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(JUNK)
    elif how == "size":
        doc["size"] = draw(SIZES)
    elif how == "cell":
        tables = sorted(k for k, v in doc.items()
                        if isinstance(v, list) and k != "labels")
        row = doc[draw(st.sampled_from(tables))]
        if isinstance(row[0], list):
            row = row[draw(st.integers(0, len(row) - 1))]
        cell = st.one_of(st.integers(-1, doc["size"]), JUNK)
        row[draw(st.integers(0, len(row) - 1))] = draw(cell)
    return json.dumps(doc)


def run_on_stdin(argv, text) -> int:
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.run(argv)
    finally:
        sys.stdin = stdin


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(command=COMMANDS, text=documents())
def test_generated_input_keeps_the_exit_code_contract(command, text):
    code = run_on_stdin([command[0], "-", *command[1:]], text)
    assert code in (0, 1, 2, 3)
