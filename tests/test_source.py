import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import alphadet
from test_bench_digests import workloads

PACKAGE = Path(alphadet.__file__).parent


def test_every_error_type_is_raised():
    # an error class that nothing raises is dead surface in the public API
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    defined = {
        node.name
        for node in errors.body
        if isinstance(node, ast.ClassDef) and node.name != "AlphadetError"
    }
    assert defined
    raised = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert not defined - raised, f"never raised: {sorted(defined - raised)}"


def test_every_cap_is_checked():
    # a cap that no comparison reads bounds no work and is dead surface
    defined, compared = set(), set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.Assign):
                defined.update(
                    t.id for t in node.targets if isinstance(t, ast.Name) and t.id.endswith("_CAP")
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                compared.update(
                    n.id for n in ast.walk(node) if isinstance(n, ast.Name) and n.id.endswith("_CAP")
                )
    assert defined
    assert not defined - compared, f"never compared: {sorted(defined - compared)}"


def test_the_caps_are_pinned():
    # a new cap needs a deliberate edit here; every run over all of S_m
    # shares EXHAUSTIVE_CAP
    defined = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                defined.update(
                    f"{path.name}:{t.id}"
                    for t in node.targets
                    if isinstance(t, ast.Name) and t.id.endswith("_CAP")
                )
    assert sorted(defined) == [
        "adet.py:ADET_CAP",
        "adet.py:DET_POWER_TERM_CAP",
        "characters.py:CHARACTER_CAP",
        "partitions.py:KOSTKA_CAP",
        "partitions.py:PARTITIONS_CAP",
        "perms.py:EXHAUSTIVE_CAP",
        "perms.py:FOURIER_JM_CAP",
        "randmat.py:MATRIX_CELL_CAP",
        "verify.py:CASE_CAP",
    ]


def test_package_has_no_assert_statements():
    # `python -O` strips asserts, so invariants in the package must raise
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) >= 10
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


_HEAVY = ["concurrent.futures", "multiprocessing", "dataclasses", "inspect",
          "argparse", "gettext", "json"]


def _loaded_heavy_modules(code):
    """The modules of _HEAVY loaded after code runs in a fresh interpreter;
    -S keeps site's own imports out of the count."""
    code += f"\nimport sys\nprint([m for m in {_HEAVY!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.splitlines()[-1]


def test_cli_import_loads_no_process_pool_dataclasses_argparse_or_json():
    # every `alphadet` run pays for what `import alphadet.cli` loads
    assert _loaded_heavy_modules("import alphadet.cli") == "[]"


def test_plain_runs_load_no_argparse_or_json(tmp_path):
    # a lazy import that a well-formed run still reaches would move its cost
    # from process start into the suite's own time: one serial run of every
    # suite, and every benchmark workload with a --json report
    argvs = [
        ["verify", "theorem", "--k", "1", "--n", "2", "--trials", "1"],
        ["verify", "omega", "--k", "2", "--n", "2"],
        ["verify", "chi", "--k", "2", "--n", "2"],
        ["verify", "stanley", "--k", "2", "--n", "2", "--m", "2"],
        ["verify", "zsf", "--k", "2", "--n", "2"],
        ["verify", "weak-alt", "--size", "3", "--k", "1", "--trials", "1"],
        ["verify", "fourier", "--size", "3"],
    ]
    argvs = [[*argv, "--seed", "1", "--workers", "1"] for argv in argvs]
    argvs += [
        [*workloads.suite_argv(w, 0), "--json", str(tmp_path / f"{name}.json")]
        for name, w in workloads.WORKLOADS.items()
    ]
    runs = f"{{alphadet.cli.main(a) for a in {argvs!r}}}"
    code = f"import alphadet.cli\nif {runs} != {{0}}:\n    raise SystemExit('a run failed')"
    assert _loaded_heavy_modules(code) == "[]"


def _readers(name):
    """file:function for each function of the package that reads the name,
    by a bare name or an attribute."""
    readers = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id == name
                ) or (isinstance(node, ast.Attribute) and node.attr == name):
                    readers.add(f"{path.name}:{func.name}")
    return sorted(readers)


def test_only_the_table_reader_runs_the_builder():
    # every class table of S_n, as grids, rows in alpha or values at one
    # point, is read through the one memoized reader _tables
    assert _readers("_cut_and_join") == ["adet.py:_tables"]


def test_every_enumeration_of_s_n_is_pinned():
    # every place the package lists S_n; the coefficient route lists it only
    # through the memoized signed cells, which only det_power_coeff reads
    assert _readers("perm_tuples") == [
        "adet.py:_column_average_sums",
        "adet.py:_signed_cells",
        "perms.py:enumerate_perms",
    ]
    assert _readers("_signed_cells") == ["adet.py:det_power_coeff"]
    # and each function that lists S_n, directly or through the signed
    # cells, reads the one cap on such listings
    listers = (set(_readers("perm_tuples")) - {"adet.py:_signed_cells"}) | set(_readers("_signed_cells"))
    capped = set(_readers("EXHAUSTIVE_CAP"))
    assert listers <= capped, sorted(listers - capped)


def test_one_route_for_the_inflation_and_one_builder_of_p_g_1_mu():
    # every k >= 2 sums the inflation by block profile, so the profile count
    # that chose a dense route is gone, as are the listing wrapper and the
    # second builder of the rows of P(g) 1_mu; a block profile has one form,
    # the flat cells of perms.profile_cells, so the type-count helpers and
    # the listing memo beside the orbit memo are gone too
    defined = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
    gone = {
        "block_profile_count",
        "_profile_class_sums",
        "coset_word",
        "block_word_rows",
        "materialize",
        "int_rows",
        "block_type_counts",
        "profile_type_counts",
        "_block_labels",
        "_profile_listing",
        "BlockProfile",
    }
    assert not gone & defined
    assert all(_readers(name) == [] for name in gone)
    # a zsf case builds g's block profile itself, and the suite the
    # identity's for its denominator; the cells are read as they are, by the
    # class sums, the coefficient route and the double-coset index, and
    # Mackey's product is taken in one place
    assert _readers("profile_cells") == [
        "adet.py:translate_class_sums",
        "perms.py:block_profile",
        "verify.py:_zsf_case",
        "verify.py:verify_zsf",
    ]
    assert _readers("block_profile") == ["perms.py:double_coset_index"]
    assert _readers("profile_coset_index") == [
        "perms.py:double_coset_index",
        "verify.py:_zsf_case",
    ]
    assert _readers("block_profiles") == ["adet.py:listing"]
    assert _readers("listing") == ["adet.py:_inflation_int_sums"]
    # the orbit memo's listing packs each distinct row once, from the rows
    # that the profile enumerator grows
    assert _readers("_rows_within") == [
        "adet.py:listing",
        "perms.py:_rows_within",
        "perms.py:block_profiles",
        "perms.py:grow",
    ]


def test_one_integer_formula_per_side_of_the_main_identity():
    # the inflation's sum is taken once per call, with no memo, in two
    # layers: the checks and scaling of a matrix for the public wrappers,
    # and behind them the one integer sum, which the theorem's trial reads
    # from its integer draw.  The average weighs the table rows, read once
    # per suite, with the one weigher, and its helper is gone; the wreath
    # determinant has one integer helper, read by its public wrapper and by
    # the trial, and the rectangle's content coefficients by content_poly
    # and the suite.  zsf reads the wreath determinant's
    # numerator too, per case and once for its denominator, from the class
    # sums of the translates, which it reads by the cells it built, as
    # translate_class_sums does; the character average's numerator has one
    # helper, read by the public average and by the omega and zsf cases
    tree = ast.parse((PACKAGE / "adet.py").read_text(encoding="utf-8"))
    layers = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name in ("_inflation_class_sums", "_inflation_int_sums")
    ]
    assert len(layers) == 2 and all(node.decorator_list == [] for node in layers)
    assert _readers("_inflation_class_sums") == [
        "adet.py:wrdet",
        "adet.py:wreath_average_poly",
    ]
    assert _readers("_inflation_int_sums") == [
        "adet.py:_inflation_class_sums",
        "verify.py:_theorem_case",
    ]
    assert _readers("random_int_rows") == ["randmat.py:random_matrix", "verify.py:_theorem_case"]
    assert _readers("_wrdet_numerator") == [
        "adet.py:wrdet",
        "verify.py:_theorem_case",
        "verify.py:_weak_alt_case",
        "verify.py:_zsf_case",
        "verify.py:verify_zsf",
    ]
    assert _readers("_cells_class_sums") == [
        "adet.py:translate_class_sums",
        "verify.py:_zsf_case",
        "verify.py:verify_zsf",
    ]
    assert _readers("_character_sum") == [
        "characters.py:subgroup_averaged_character",
        "verify.py:_omega_case",
        "verify.py:_zsf_case",
    ]
    assert _readers("_wreath_average_counts") == []
    assert "_wreath_average_counts" not in {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    assert _readers("_weigh") == [
        "adet.py:adet2_poly",
        "adet.py:adet2_structured",
        "adet.py:wreath_average_poly",
        "verify.py:_omega_case",
        "verify.py:_theorem_case",
    ]
    # the theorem reads the table rows at beta = -1/k once per suite
    tables = _readers("_tables")
    assert "verify.py:verify_theorem" in tables and "verify.py:_theorem_case" not in tables
    assert _readers("_length_counts") == [
        "adet.py:_adet_counts",
        "adet.py:adet_structured",
        "adet.py:subgroup_avg_adet",
        "verify.py:_weak_alt_case",
    ]
    assert _readers("_content_coefficients") == [
        "partitions.py:content_poly",
        "verify.py:_weak_alt_case",
        "verify.py:verify_theorem",
    ]
    # the S_k column average's sums have one integer helper too, read by
    # the public average and by weak-alt's case, at S_1 and at S_k
    assert _readers("_column_average_sums") == [
        "adet.py:subgroup_avg_adet",
        "verify.py:_weak_alt_case",
    ]


def test_a_verify_case_decides_once():
    # a case's integer check is its verdict: verify reads no public Fraction
    # route, which the tests keep as oracles, and every failing case is
    # built by _fail, witnessed by the values that it compared; the
    # formula's Fraction value stays in verify for the CLI, and fourier
    # calls the two routes that it checks
    tree = ast.parse((PACKAGE / "verify.py").read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    for name in (
        "wreath_average_poly",
        "wrdet",
        "adet_structured",
        "subgroup_averaged_character",
        "character",
        "adet_at",
        "subgroup_avg_adet",
        "content_poly",
        "NotDivisible",
        "exact_div",
    ):
        assert name not in imported, name
        assert not [r for r in _readers(name) if r.startswith("verify.py:")], name
    for name in ("_agree", "_point_value", "_stanley_sum"):
        assert _readers(name) == [], name
    assert _readers("_fail") == [
        "verify.py:_chi_case",
        "verify.py:_fourier_case",
        "verify.py:_omega_case",
        "verify.py:_stanley_case",
        "verify.py:_theorem_case",
        "verify.py:_weak_alt_case",
        "verify.py:_zsf_case",
    ]
    # and only _fail builds a failing case
    builders = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "CaseResult"
        and any(isinstance(a, ast.Constant) and a.value == "fail" for a in node.args)
    }
    assert builders == {"_fail"}
    assert _readers("rect_formula_value") == ["cli.py:_cmd_kostka"]


def test_a_zsf_case_builds_its_block_profile_once(monkeypatch):
    # a zsf case builds g's block profile once, and its class sums, its
    # coefficient and Mackey's index read those cells; the suite builds one
    # more, the identity's, for its denominator.  Empty memos make any
    # second build show
    import alphadet.adet as adet
    import alphadet.perms as perms
    import alphadet.verify as verify

    built, coefficients = [], []
    real_cells, real_coeff = perms.profile_cells, verify.det_power_coeff

    def cells_spy(g, mu):
        cells = real_cells(g, mu)
        built.append((g, mu, cells))
        return cells

    def coeff_spy(cells, k):
        coefficients.append(cells)
        return real_coeff(cells, k)

    for module in (perms, adet, verify):
        monkeypatch.setattr(module, "profile_cells", cells_spy)
    monkeypatch.setattr(verify, "det_power_coeff", coeff_spy)
    for k, n, samples in [(1, 4, 0), (2, 2, 0), (2, 3, 6), (4, 1, 0)]:
        adet._orbit_slots.cache_clear()
        built.clear()
        coefficients.clear()
        assert verify.verify_zsf(k, n, samples=samples, seed=3).passed
        shape = (k,) * n
        met = [perms.Perm.identity(k * n), *verify._case_perms(k * n, samples, 3)]
        assert [(g, mu) for g, mu, _ in built] == [(g, shape) for g in met]
        assert all(c is b[2] for c, b in zip(coefficients, built[1:], strict=True))


def test_matrices_defines_no_block_profile_helper():
    # matrices.py holds matrices; the profile of P(g) 1_mu is perms' one
    # format, read by adet
    tree = ast.parse((PACKAGE / "matrices.py").read_text(encoding="utf-8"))
    defined = {
        node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert defined
    helpers = [name for name in defined if any(w in name for w in ("profile", "type", "label"))]
    assert not helpers, f"block-profile helpers in matrices.py: {helpers}"


def test_one_orbit_memo_serves_both_readers_of_block_profiles():
    # the translates at mu = (k^n), read by their cells, and the
    # inflation's profile sum read one memo of orbit slots, and only they
    # walk by letter type
    assert _readers("_orbit_slots") == [
        "adet.py:_cells_class_sums",
        "adet.py:_inflation_int_sums",
    ]
    assert _readers("_typed_class_sums") == [
        "adet.py:_cells_class_sums",
        "adet.py:_inflation_int_sums",
    ]
    assert _readers("_swap_blocks") == []


def test_one_murnaghan_nakayama_kernel():
    # characters.py recurses in one place, on beta sets held as bits; the
    # tuple helpers of the recursion it replaced are gone
    tree = ast.parse((PACKAGE / "characters.py").read_text(encoding="utf-8"))
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    recursive = [
        func.name
        for func in functions
        if any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == func.name
            for node in ast.walk(func)
        )
    ]
    assert recursive == ["_strips"]
    assert not {"_beta_numbers", "_shape_from_betas"} & {func.name for func in functions}
    assert _readers("_strips") == ["characters.py:_mn", "characters.py:_strips"]


def test_one_runner_for_every_suite():
    # every suite hands its constants and items to the one runner, which
    # runs them in one process: no function reads a process pool or a
    # worker count; the case runner and the report builder that it
    # replaced have no readers left
    assert _readers("_run") == [
        "verify.py:verify_chi",
        "verify.py:verify_fourier_jm",
        "verify.py:verify_omega",
        "verify.py:verify_stanley",
        "verify.py:verify_theorem",
        "verify.py:verify_weak_alternating",
        "verify.py:verify_zsf",
    ]
    assert _readers("ProcessPoolExecutor") == [] and _readers("cpu_count") == []
    assert _readers("workers") == []
    assert _readers("_run_cases") == [] and _readers("_report") == []
    # the four suites that take a count of trials or samples check it
    # against the one case cap
    assert _readers("_check_case_count") == [
        "verify.py:verify_chi",
        "verify.py:verify_theorem",
        "verify.py:verify_weak_alternating",
        "verify.py:verify_zsf",
    ]
    assert _readers("CASE_CAP") == ["verify.py:_check_case_count"]


def test_perfbench_names_resolve():
    # Tracer.install raises KeyError on a name that the package lacks, and
    # perfbench's own tests trace a fake package, so the real names are
    # checked here: every traced attribute, and every name kernels.py imports
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", perfbench / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, path, _, _ in tracer.LAYERS + tracer.SUITES:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{path}")
    kernels = ast.parse((perfbench / "kernels.py").read_text(encoding="utf-8"))
    imports = [
        node
        for node in ast.walk(kernels)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("alphadet")
    ]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(module, a.name)]
    assert not missing, f"perfbench names missing from alphadet: {missing}"
