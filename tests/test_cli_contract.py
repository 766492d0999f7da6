"""Property test of the CLI contract: for any argv and matrix file, `main`
exits with 0, 1 or 2 (argparse's SystemExit(2) counts as 2) and never
prints a traceback."""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from alphadet.cli import main
from alphadet.partitions import format_partition, partitions_of
from alphadet.rationals import format_rational

free_text = st.text(alphabet="0123456789,-/.e_ x", max_size=6)
fraction_token = st.fractions(min_value=-3, max_value=3, max_denominator=4).map(format_rational)
rational_token = st.one_of(
    fraction_token,
    fraction_token,
    st.sampled_from(["1/0", "0.5", "1e3", "1_000", "3.", " 2/3 ", "+1", ""]),
    free_text,
)
any_list_token = st.lists(st.integers(-1, 5), max_size=4).map(
    lambda items: ",".join(map(str, items))
)


def _mostly(valid):
    """Three parts valid tokens, two parts any integer list or free text."""
    return st.one_of(valid, valid, valid, any_list_token, free_text)


def partition_token(n):
    return _mostly(st.sampled_from(partitions_of(n)).map(format_partition))


def perm_token(n):
    return _mostly(st.permutations(range(1, n + 1)).map(lambda p: ",".join(map(str, p))))


@st.composite
def matrix_dict(draw):
    rows = draw(st.integers(0, 4))
    cols = draw(st.sampled_from([rows, rows // 2, rows // 3, draw(st.integers(0, 4))]))
    entries = [[draw(fraction_token) for _ in range(cols)] for _ in range(rows)]
    return {"rows": rows, "cols": cols, "entries": entries}


@st.composite
def spoiled(draw, matrix):
    """One bad entry, or a declared size that is off by one."""
    if matrix["rows"] and matrix["cols"] and draw(st.booleans()):
        row = draw(st.sampled_from(matrix["entries"]))
        row[draw(st.integers(0, len(row) - 1))] = draw(rational_token)
    else:
        matrix[draw(st.sampled_from(["rows", "cols"]))] += 1
    return matrix


valid_matrix = matrix_dict()
json_leaf = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), rational_token)
any_json = st.recursive(
    json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["rows", "cols", "entries"]), inner),
    ),
    max_leaves=6,
)
# nesting deep enough to exhaust the JSON parser's recursion
nested_text = st.integers(1, 10**5).flatmap(
    lambda depth: st.sampled_from(
        ["[" * depth + "]" * depth, '{"entries":' * depth + "[]" + "}" * depth]
    )
)
matrix_text = st.one_of(
    st.one_of(
        valid_matrix, valid_matrix, valid_matrix, valid_matrix.flatmap(spoiled), any_json
    ).map(json.dumps),
    st.text(max_size=10),
    nested_text,
)

MATRIX = "<matrix path>"


def _pair(flag, token):
    """flag with a drawn value, as "--flag value" or as "--flag=value"."""
    return token.flatmap(lambda t: st.sampled_from([[flag, t], [f"{flag}={t}"]]))


def _opt(flag, token):
    return st.one_of(st.just([]), _pair(flag, token))


@st.composite
def argv(draw):
    command = draw(st.sampled_from(["adet", "adet2", "wrdet", "kostka", "character", "omega"]))
    if command == "adet":
        return ["adet", "--matrix", MATRIX] + draw(_opt("--alpha", rational_token))
    if command == "adet2":
        return (
            ["adet2", "--matrix", MATRIX]
            + draw(_opt("--alpha", rational_token))
            + draw(_opt("--beta", rational_token))
        )
    if command == "wrdet":
        return ["wrdet", "--matrix", MATRIX] + draw(_pair("--k", st.integers(-1, 4).map(str)))
    # sizes usually agree, so the commands get past their checks
    n = draw(st.integers(1, 6))
    if command == "kostka":
        method = st.sampled_from(["oracle", "rect-formula"] * 3 + ["other"])
        return [
            "kostka",
            *draw(_pair("--shape", partition_token(n))),
            *draw(_pair("--weight", partition_token(n))),
            *draw(_pair("--method", method)),
        ]
    if command == "character":
        return [
            "character",
            *draw(_pair("--shape", partition_token(n))),
            *draw(_pair("--cycle-type", partition_token(n))),
        ]
    return [
        "omega",
        *draw(_pair("--shape", partition_token(n))),
        *draw(_pair("--mu", partition_token(n))),
        *draw(_pair("--perm", perm_token(n))),
    ]


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(text=matrix_text, args=argv())
def test_cli_exit_code_contract(tmp_path_factory, text, args):
    path = tmp_path_factory.getbasetemp() / "contract-matrix.json"
    path.write_text(text, encoding="utf-8")
    args = [str(path) if a == MATRIX else a for a in args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (args, text, err.getvalue())
    assert "Traceback" not in err.getvalue()
