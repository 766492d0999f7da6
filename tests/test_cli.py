import contextlib
import io
import json
import os
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from alphadet.adet import ADET_CAP
from alphadet.cli import _SUITE_COMMON, COMMANDS, SUITES, _plain_args, build_parser, main
from alphadet.errors import IdentityViolation, SizeCapExceeded
from alphadet.matrices import RatMatrix
from alphadet.perms import Perm
import alphadet.adet as adet_module
import alphadet.cli as cli_module
from alphadet.verify import CaseResult, SuiteReport
from test_bench_digests import workloads


@pytest.fixture
def ones3(tmp_path):
    path = tmp_path / "ones3.json"
    path.write_text(RatMatrix.ones(3, 3).to_json())
    return str(path)


@pytest.fixture
def tall42(tmp_path):
    path = tmp_path / "tall.json"
    path.write_text(RatMatrix([[1, 0], [0, 1], [1, 1], [1, 2]]).to_json())
    return str(path)


def test_adet_default_is_symbolic(ones3, capsys):
    assert main(["adet", "--matrix", ones3]) == 0
    assert json.loads(capsys.readouterr().out) == ["1", "3", "2"]


def test_adet_at_value(ones3, capsys):
    assert main(["adet", "--matrix", ones3, "--alpha", "1"]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_adet2_symbolic(tmp_path, capsys):
    path = tmp_path / "i2.json"
    path.write_text(RatMatrix.identity(2).to_json())
    assert main(["adet2", "--matrix", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == [["1", "0"], ["0", "1"]]


def test_adet2_at_point(tmp_path, capsys):
    path = tmp_path / "i2.json"
    path.write_text(RatMatrix.identity(2).to_json())
    assert main(["adet2", "--matrix", str(path), "--alpha", "1/2", "--beta", "1/3"]) == 0
    assert capsys.readouterr().out.strip() == "7/6"


def test_negative_rationals_use_equals_form(ones3, capsys):
    # "--alpha -1/2" would be read as a flag; the "=" form must work
    assert main(["adet", "--matrix", ones3, "--alpha=-1/2"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["adet2", "--matrix", ones3, "--alpha=-1/3", "--beta=-1/3"]) == 0
    assert capsys.readouterr().out.strip() == "4/81"


def test_adet2_requires_both_parameters(tmp_path, capsys):
    path = tmp_path / "i2.json"
    path.write_text(RatMatrix.identity(2).to_json())
    assert main(["adet2", "--matrix", str(path), "--alpha", "1/2"]) == 2


def test_wrdet(tall42, capsys):
    assert main(["wrdet", "--matrix", tall42, "--k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "-3/8"


def test_kostka_both_methods(capsys):
    assert main(["kostka", "--shape", "2,2", "--weight", "2,1,1"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["kostka", "--shape", "2,2", "--weight", "2,1,1", "--method", "rect-formula"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_kostka_rect_formula_needs_rectangle(capsys):
    assert main(["kostka", "--shape", "2,1", "--weight", "2,1", "--method", "rect-formula"]) == 2


def test_kostka_rect_formula_needs_matching_weight_size(capsys):
    assert main(["kostka", "--shape", "2,2", "--weight", "2,1", "--method", "rect-formula"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "permutation size" not in err


def test_character(capsys):
    assert main(["character", "--shape", "2,2", "--cycle-type", "2,2"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_omega(capsys):
    assert main(["omega", "--shape", "2,2", "--mu", "2,2", "--perm", "1,3,2,4"]) == 0
    assert capsys.readouterr().out.strip() == "-1/2"


def test_verify_pass_and_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(
        [
            "verify",
            "theorem",
            "--k",
            "2",
            "--n",
            "2",
            "--trials",
            "2",
            "--seed",
            "5",
            "--json",
            str(report_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "status=pass" in out
    data = json.loads(report_path.read_text())
    assert data["suite"] == "theorem"
    assert data["seed"] == 5
    assert data["status"] == "pass"


def test_verify_cap_exit_code(capsys):
    assert main(["verify", "theorem", "--k", "3", "--n", "3", "--trials", "1", "--seed", "0"]) == 0
    assert "status=pass" in capsys.readouterr().out
    assert main(["verify", "theorem", "--k", "2", "--n", "5", "--trials", "1", "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert err == "error: kn=10 exceeds cap 9\n"


def test_kostka_rect_formula_checks_the_cap_before_the_identity(monkeypatch, capsys):
    real = Perm.identity

    def capped(cls, n):
        if n > ADET_CAP:
            raise AssertionError("the cap must be checked before the identity is built")
        return real(n)

    monkeypatch.setattr(Perm, "identity", classmethod(capped))
    argv = ["kostka", "--shape", "3,3,3", "--weight", "3,3,3", "--method", "rect-formula"]
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == "1"
    for size in ("10", "3000000"):
        argv = ["kostka", "--shape", size, "--weight", size, "--method", "rect-formula"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: kn={size} exceeds cap 9\n"


def test_verify_usage_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "theorem", "--k", "2", "--n", "2"])  # missing --seed
    assert exc.value.code == 2


def test_missing_matrix_file(capsys):
    assert main(["adet", "--matrix", "/nonexistent/m.json"]) == 2


def test_verify_failure_exit_code(monkeypatch, capsys):
    # exit-code contract for a failing case, independent of the identities
    # (which hold); substitute a canned failing report
    def fake(k, n, trials, seed):
        return SuiteReport(
            suite="theorem",
            params={"k": k, "n": n, "trials": trials},
            seed=seed,
            case_count=1,
            cases=[CaseResult("trial=0", "fail", witness={"lhs": ["0"], "rhs": ["1"]})],
            status="fail",
            wall_time_s=0.0,
        )

    monkeypatch.setattr(cli_module, "verify_theorem", fake)
    code = main(["verify", "theorem", "--k", "2", "--n", "2", "--trials", "1", "--seed", "0"])
    assert code == 1
    out = capsys.readouterr().out
    assert "status=fail" in out
    assert "FAIL trial=0" in out


def test_disagreeing_class_table_markings_exit_1(monkeypatch, capsys):
    # cycle-type keys that count every 2-cycle as two fixed points make the
    # markings of (2, 1) disagree; the builder must refuse, at the grid and
    # at the point that chi reads, and the CLI must report a falsified claim
    # rather than a usage error
    key_units = adet_module._key_units

    def twos_as_fixed_points(n):
        units = key_units(n)
        return units[:2] + (2 * units[1],) + units[3:]

    monkeypatch.setattr(adet_module, "_key_units", twos_as_fixed_points)
    adet_module._tables.cache_clear()  # a memoized reading would skip the builder
    try:
        disagree = r"the markings of cycle type \(2, 1\) in S_3 disagree"
        with pytest.raises(IdentityViolation, match=disagree):
            adet_module._tables(3, None, None)
        with pytest.raises(IdentityViolation, match=disagree):
            adet_module._tables(3, None, Fraction(-1))
        with pytest.raises(IdentityViolation, match=disagree):
            adet_module._tables(3, Fraction(-1), Fraction(1, 3))
        assert main(["verify", "chi", "--k", "1", "--n", "3", "--seed", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("FALSIFIED CLAIM:")
        assert "Traceback" not in err
    finally:
        adet_module._tables.cache_clear()


def test_verify_workers_flag(capsys):
    code = main(
        ["verify", "zsf", "--k", "2", "--n", "2", "--seed", "1", "--workers", "2"]
    )
    assert code == 0
    assert "status=pass" in capsys.readouterr().out


def _exits_2_without_traceback(argv, capsys) -> None:
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_zero_denominator_option_exits_2(ones3, capsys):
    # the wire format is "p/q": zero denominators, decimals, exponents and
    # digit separators are all usage errors
    for bad in ["1/0", "0.5", "1e3", "1_000", "3."]:
        _exits_2_without_traceback(["adet", "--matrix", ones3, "--alpha", bad], capsys)
        _exits_2_without_traceback(
            ["adet2", "--matrix", ones3, "--alpha", "1", "--beta", bad], capsys
        )


@pytest.mark.parametrize("suite", ["chi", "zsf"])
def test_verify_rejects_negative_samples(suite, capsys):
    argv = ["verify", suite, "--k", "2", "--n", "2", "--samples", "-3", "--seed", "0"]
    _exits_2_without_traceback(argv, capsys)


def test_omega_answers_any_mu_at_twelve_letters(capsys):
    # mu = (12) has 12! translates, yet the average is one walk of a 12x12
    perm = ",".join(str(i) for i in range(1, 13))
    assert main(["omega", "--shape", "12", "--mu", "12", "--perm", perm]) == 0
    assert capsys.readouterr().out == "1\n"
    perm13 = ",".join(str(i) for i in range(1, 14))
    _exits_2_without_traceback(["omega", "--shape", "13", "--mu", "13", "--perm", perm13], capsys)


@pytest.mark.parametrize(
    "payload",
    [
        {"rows": 1, "cols": 1, "entries": [["1/0"]]},
        {"rows": 1, "cols": 1},
        {"rows": 1, "cols": 1, "entries": [[1]]},
        {"rows": 1, "cols": 1, "entries": 5},
        {"rows": 2, "cols": 2, "entries": ["12", "34"]},
        [["1"]],
        {"rows": 1, "cols": 1, "entries": [["0.5"]]},
        {"rows": 1, "cols": 1, "entries": [["1e3"]]},
        {"rows": 1, "cols": 1, "entries": [["1_000"]]},
        {"rows": 1, "cols": 1, "entries": [["3."]]},
    ],
)
def test_malformed_matrix_json_exits_2(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    _exits_2_without_traceback(["adet", "--matrix", str(path)], capsys)


@pytest.mark.parametrize("depth", [10**4, 10**5])
def test_deeply_nested_matrix_json_exits_2(tmp_path, capsys, depth):
    # too deep for the JSON parser is a malformed file, not a falsified claim
    path = tmp_path / "deep.json"
    for text in ("[" * depth + "]" * depth, '{"rows":' * depth + "1" + "}" * depth):
        path.write_text(text)
        _exits_2_without_traceback(["adet", "--matrix", str(path)], capsys)


@pytest.mark.parametrize(
    "flag", [["--seed", "-1"], ["--seed", str(2**64)], ["--workers", "0"], ["--workers", "-3"]]
)
def test_verify_rejects_out_of_range_seed_and_workers(flag, capsys):
    argv = ["verify", "theorem", "--k", "1", "--n", "2", "--trials", "1", "--seed", "0"]
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_verify_accepts_largest_seed(capsys):
    argv = ["verify", "theorem", "--k", "1", "--n", "2", "--trials", "1"]
    assert main(argv + ["--seed", str(2**64 - 1)]) == 0


def _parse(parse, argv):
    """(exit code, stdout, stderr, result) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    code = result = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), result


_SEED = ["--seed", "3"]
_PARSER_ARGVS = [
    [],
    ["-h"],
    ["verify", "-h"],
    *([command, "-h"] for command in COMMANDS),
    *(["verify", suite, "-h"] for suite in SUITES),
    ["verfy"],
    ["verify", "chii"],
    ["verify"],
    ["verify", "--seed", "3", "chi"],
    *(workloads.suite_argv(w, 0) for w in workloads.WORKLOADS.values()),
    ["verify", "omega", "--k", "2", "--n", "2", "--mu", "2,2", *_SEED],
    ["omega", "--shape", "2,2", "--mu", "2,2", "--perm", "2,1,3,4"],
    ["verify", "omega", "--k", "2"],
    ["omega", "--shape", "2,2"],
    ["adet", "--matrix", "m.json", "extra"],  # the top-level usage line
    ["verify", "chi", "--k", "2", "--n", "2", *_SEED, "extra"],
    ["verify", "zsf", "--k", "2", "--n", "2", *_SEED, "--workers", "0"],
    ["kostka", "--shape", "2,2", "--weight", "2,2", "--method", "bad"],
]


def _main_parse(argv, monkeypatch):
    """(exit code, stdout, stderr, namespace) of main's parse of argv, on the
    plain path or through the full parser: every handler in the tables is
    replaced by one that only records the namespace it is given."""
    seen = []
    for table in (COMMANDS, SUITES):
        for name, (help_text, _, options) in table.items():
            monkeypatch.setitem(table, name, (help_text, seen.append, options))
    code, out, err, _ = _parse(main, argv)
    return code, out, err, seen[0] if seen else None


@pytest.mark.parametrize("argv", _PARSER_ARGVS, ids=" ".join)
def test_branch_parser_acts_as_the_full_parser(argv, monkeypatch):
    # whichever branch main takes, plain path or fallback, help, usage
    # errors and the namespace's attributes are the full parser's, byte for
    # byte (the plain path returns a SimpleNamespace, argparse a Namespace)
    *streams, namespace = _main_parse(argv, monkeypatch)
    *expected_streams, expected = _parse(build_parser().parse_args, argv)
    assert streams == expected_streams
    assert (namespace is None) == (expected is None)
    if expected is not None:
        assert vars(namespace) == vars(expected)


def _readme_cli_examples():
    """The argv of every `alphadet` line in the README's sh blocks."""
    examples, in_sh = [], False
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("alphadet "):
            examples.append(shlex.split(line, comments=True)[1:])
    return examples


_WORKLOAD_ARGVS = [
    workloads.suite_argv(w, slot)
    for w in workloads.WORKLOADS.values()
    for slot in range(workloads.DIGEST_SLOTS)
]


@pytest.mark.parametrize("argv", [*_WORKLOAD_ARGVS, *_readme_cli_examples()], ids=" ".join)
def test_plain_path_reads_workloads_and_readme_examples(argv):
    plain = _plain_args(argv)
    assert plain is not None
    assert vars(plain) == vars(build_parser().parse_args(argv))


def test_readme_cli_examples_are_found():
    assert _readme_cli_examples()


def test_workloads_parse_without_argparse(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a well-formed argv must not build an ArgumentParser")

    import argparse

    monkeypatch.setattr(argparse, "ArgumentParser", refuse)
    for w in workloads.WORKLOADS.values():
        assert main(workloads.suite_argv(w, 0)) == 0


_FLAGS = sorted(
    {flag for table in (COMMANDS, SUITES) for *_, options in table.values() for flag, _ in options}
    | {flag for flag, _ in _SUITE_COMMON}
)
_bad_values = st.sampled_from(
    ["-1", "-3", "", "0", "x", "1.5", " 2", "0x1", "2,2", "1/2", "-1/2",
     str(2**64), str(2**64 - 1), "Oracle", "-h", "--"]
)
_noise = st.sampled_from(
    [*_FLAGS, *(flag + "=2" for flag in _FLAGS), *(flag[:-1] for flag in _FLAGS if len(flag) > 4),
     "-h", "--help", "--", "extra", "-k", "verify", "chi"]
)


@st.composite
def _argvs(draw):
    """(argv, well_formed): a plain argv with valid values when well_formed,
    else one with bad values, words or flags, or a stray or missing token."""
    well_formed = draw(st.booleans())
    argv = [draw(st.sampled_from(list(COMMANDS) + ([] if well_formed else ["verfy"])))]
    options = COMMANDS.get(argv[0], (None, None, []))[2]
    if argv[0] == "verify":
        argv.append(draw(st.sampled_from(list(SUITES) + ([] if well_formed else ["chii", "-h"]))))
        options = [*SUITES.get(argv[1], (None, None, []))[2], *_SUITE_COMMON]
    pairs = []
    for flag, spec in options:
        if spec.get("required") or draw(st.booleans()):
            valid = st.sampled_from(spec.get("choices", ["1", "2", "3"]))
            pairs.append([flag, draw(valid if well_formed else st.one_of(valid, _bad_values))])
    argv += [token for pair in draw(st.permutations(pairs)) for token in pair]
    if not well_formed:
        for _ in range(draw(st.integers(0, 2))):
            argv.insert(draw(st.integers(0, len(argv))), draw(st.one_of(_noise, _bad_values)))
        if pairs and draw(st.booleans()):
            flag, value = draw(st.sampled_from(pairs))
            argv += draw(st.sampled_from([[flag, value], [f"{flag}={value}"], [flag]]))
    return argv, well_formed


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(drawn=_argvs())
def test_plain_path_is_the_full_parse_or_declines(drawn):
    argv, well_formed = drawn
    plain = _plain_args(argv)
    assert plain is not None or not well_formed
    if plain is not None:
        code, out, err, namespace = _parse(build_parser().parse_args, argv)
        assert (code, out, err) == (None, "", "")
        assert vars(plain) == vars(namespace)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "omega", "--k", "2", "--n", "2", "--mu", "", "--seed", "1"],
        ["verify", "omega", "--k", "2", "--n", "2", "--perm", "", "--seed", "1"],
        ["verify", "chi", "--k", "2", "--n", "2", "--seed", "1", "--json", ""],
    ],
    ids=["mu", "perm", "json"],
)
def test_verify_empty_option_value_exits_2(argv, capsys):
    # an empty value is a malformed value, not an absent option
    _exits_2_without_traceback(argv, capsys)


def _suite_must_not_run(*args, **kwargs):
    raise AssertionError("the suite ran before its --json path was opened")


@pytest.mark.parametrize("where", ["empty", "missing directory", "directory"])
def test_unwritable_json_path_exits_2_before_the_suite(where, tmp_path, monkeypatch, capsys):
    # the report's path is opened first: an unwritable one wastes no run,
    # prints no summary and leaves no file behind
    path = {"empty": "", "missing directory": str(tmp_path / "missing" / "r.json"),
            "directory": str(tmp_path)}[where]
    monkeypatch.setattr(cli_module, "verify_chi", _suite_must_not_run)
    argv = ["verify", "chi", "--k", "2", "--n", "2", "--seed", "1", "--json", path]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "missing").exists()


def test_failed_suite_leaves_the_json_path_as_it_was(tmp_path, monkeypatch, capsys):
    # a suite that raises after the path is opened truncates no existing
    # report and removes a file it created
    def refuse(*args, **kwargs):
        raise SizeCapExceeded("refused")

    monkeypatch.setattr(cli_module, "verify_chi", refuse)
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text("earlier report\n")
    for path in (old, new):
        argv = ["verify", "chi", "--k", "2", "--n", "2", "--seed", "1", "--json", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: refused\n")
    assert old.read_text() == "earlier report\n"
    assert not new.exists()


def test_json_report_replaces_an_existing_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    path.write_text("x" * 100000)
    assert main(["verify", "chi", "--k", "2", "--n", "2", "--seed", "1", "--json", str(path)]) == 0
    assert json.loads(path.read_text())["suite"] == "chi"
    assert "status=pass" in capsys.readouterr().out


def test_json_report_to_a_device_that_exists(capsys):
    # a path that is not a regular file, such as the null device, takes the
    # report as a plain write does
    assert main(["verify", "chi", "--k", "2", "--n", "2", "--seed", "1", "--json", os.devnull]) == 0
    assert "status=pass" in capsys.readouterr().out


@pytest.mark.parametrize("argv, choices", [(["verfy"], COMMANDS), (["verify", "chii"], SUITES)])
def test_mistyped_choice_lists_every_choice(argv, choices, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err
    assert all(repr(name) in err for name in choices)
