"""The benchmark's tracer and clock wrap package functions by name: each
name they list must still resolve, since the clock skips a missing one
silently and its reference seconds would then be wrong."""

import importlib
import importlib.util
import re
from pathlib import Path

from loewner_lab import cli, suite  # noqa: F401  (the tracer wraps every package module)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """A perfbench module, loaded from its file without running the benchmark."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    missing = []
    for module, attr, _ in _load("spans")._FUNCTIONS:
        owner = importlib.import_module(f"loewner_lab.{module}")
        if "." in attr:  # a method is wrapped where its class defines it
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name, None)
            found = isinstance(cls, type) and method in vars(cls)
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_every_step_function_resolves():
    names = _load("speed").STEP_FUNCTIONS
    assert names
    assert [name for name in names if not callable(getattr(suite, name, None))] == []


def test_every_probe_step_passes_through_a_step_function(monkeypatch):
    # the clock samples probe-sweep only where the start scan and the refine
    # windows call a step function through the module global
    calls, refining = [], []
    real_refine = suite._refine
    monkeypatch.setattr(suite, "_refine",
                        lambda *a: refining.append(True) or real_refine(*a))
    for name in _load("speed").STEP_FUNCTIONS:
        real = getattr(suite, name)
        monkeypatch.setattr(suite, name, lambda *a, real=real, name=name, **kw: calls.append(
            (name, bool(refining))) or real(*a, **kw))
    config = suite.SuiteConfig(inequalities=("polya-szego",), dims=(2,), trials=3, seed=7,
                               probe_refine_steps=10)
    suite.probe_tightness(config)
    pools = suite._build_pools(config, 2)
    n_picks = max(len(pools["maps"]), len(pools["kernels"]), len(pools["monotone_fns"]))
    assert calls.count(("_probe_evaluate", False)) >= n_picks  # the start scan
    assert calls.count(("_probe_evaluate", True)) >= 1  # the refine windows


def test_check_span_fires_once_per_evaluated_stack(monkeypatch):
    # the tracer times the certificates layer through its functions named
    # check_*, so the evaluator that a campaign calls once per stack must
    # carry such a name
    tracer = _load("spans").Tracer()
    stacks = []
    tracer.install()
    try:
        real = suite._evaluate_trial
        monkeypatch.setattr(suite, "_evaluate_trial", lambda *a: stacks.append(a) or real(*a))
        suite.run_suite(suite.SuiteConfig(inequalities=("all",), dims=(2,), trials=3, seed=7))
    finally:
        tracer.uninstall()
    names = tracer.arrays()[0]
    assert "certificates.check" in tracer.names and stacks
    assert (names == tracer.names.index("certificates.check")).sum() >= len(stacks)


def test_vet_span_fires_once_per_sandwich_or_bounded_stack(monkeypatch):
    # the cells' checks call _vet_sandwich and _vet_bounded through the
    # module's names, which the tracer wraps: a cell that held either
    # function itself would hide the checks from the certificates.vet span
    tracer = _load("spans").Tracer()
    stacks = []
    tracer.install()
    try:
        real = suite._evaluate_trial
        monkeypatch.setattr(suite, "_evaluate_trial", lambda *a: stacks.append(a) or real(*a))
        suite.run_suite(suite.SuiteConfig(inequalities=("midpoint", "polya-szego"), dims=(2, 3),
                                          trials=3, seed=7))
    finally:
        tracer.uninstall()
    names = tracer.arrays()[0]
    assert "certificates.vet" in tracer.names and stacks
    assert (names == tracer.names.index("certificates.vet")).sum() >= len(stacks)


def test_draw_spans_fire_once_per_sandwich_or_bounded_stack(monkeypatch):
    # a cell's draw calls _spd and its pairing, _sandwich_pair or
    # _bounded_pair, through the names that the tracer wraps: a cell that
    # held one of them itself would hide its draws from the generate spans
    from loewner_lab import certificates as certs

    tracer = _load("spans").Tracer()
    stacks = []
    tracer.install()
    try:
        real = suite._evaluate_trial
        monkeypatch.setattr(suite, "_evaluate_trial", lambda *a: stacks.append(a) or real(*a))
        suite.run_suite(suite.SuiteConfig(inequalities=("midpoint", "polya-szego"), dims=(2, 3),
                                          trials=3, seed=7))
    finally:
        tracer.uninstall()
    names = tracer.arrays()[0]
    cells = [suite.ROWS[stack[0]].cell for stack in stacks]

    def fired(span):
        return (names == tracer.names.index(span)).sum() if span in tracer.names else 0

    assert cells.count(certs.SANDWICH) and cells.count(certs.BOUNDED)
    assert fired("generate.spd") >= 2 * len(stacks)  # A, then C
    assert fired("generate.sandwich_pair") >= cells.count(certs.SANDWICH)
    assert fired("generate.bounded_pair") >= cells.count(certs.BOUNDED)


def test_check_stack_is_the_one_entry_point_and_readme_lists_every_export():
    # certificates binds no check_* name but check_stack, so the tracer's
    # certificates.check span times one call per stack; and the package root
    # exports exactly the names that README's Library section gives a reason for
    import ast
    import re

    from loewner_lab import certificates

    tree = ast.parse(Path(certificates.__file__).read_text(encoding="utf-8"))
    bound = [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
    bound += [target.id for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets if isinstance(target, ast.Name)]
    assert [name for name in bound if name.startswith("check_")
            or name.endswith("_check")] == ["check_stack"]
    root = Path(suite.__file__).resolve().parent / "__init__.py"
    exported = [alias.name for node in ast.parse(root.read_text(encoding="utf-8")).body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n")[1].split("\n## ")[0]
    listed = [name for line in library.splitlines() if line.startswith("| `")
              for name in re.findall(r"`(\w+)`", line.split(" | ")[0])]
    assert sorted(listed) == sorted(set(listed)) == sorted(exported)


def test_every_inequality_id_is_spelled_once_in_the_source():
    # each id is declared by its row alone: no other table of the package
    # names it as a string literal
    import ast

    from loewner_lab.certificates import ALL_INEQUALITIES

    src = Path(suite.__file__).resolve().parent
    literals = [node.value for path in sorted(src.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert {ineq: literals.count(ineq) for ineq in ALL_INEQUALITIES} == {
        ineq: 1 for ineq in ALL_INEQUALITIES}


def test_no_caught_error_is_rebuilt_and_no_vet_is_cached():
    # an error that gains context is a copy of the caught one, so it keeps its
    # attributes: no handler in the source raises type(exc)(...) of the error
    # it caught; and a hypothesis vet runs once per distinct value, with no
    # cache in certificates
    import ast

    from loewner_lab import certificates

    src = Path(suite.__file__).resolve().parent
    rebuilt = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
               for handler in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(handler, ast.ExceptHandler) and handler.name
               for node in ast.walk(handler)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Call)
               and isinstance(node.func.func, ast.Name) and node.func.func.id == "type"
               and [getattr(arg, "id", None) for arg in node.func.args] == [handler.name]]
    assert rebuilt == []
    tree = ast.parse(Path(certificates.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert "lru_cache" not in imported


def test_no_json_call_in_the_source_indents():
    # the report writer is the one indented serializer: json's indented
    # encoder runs in pure Python
    import ast

    src = Path(suite.__file__).resolve().parent
    indented = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("dump", "dumps")
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
                and any(kw.arg == "indent" for kw in node.keywords)]
    assert indented == []


def test_every_config_field_is_declared_once():
    # SuiteConfig's checks are declared once per field: each spec pool's in
    # the SPEC_POOLS literal, which _FIELDS reads, and every other field's in
    # the _FIELDS literal
    import ast
    import dataclasses

    tree = ast.parse(Path(suite.__file__).read_text(encoding="utf-8"))
    tables = {t.id: node.value for node in tree.body if isinstance(node, ast.Assign)
              for t in node.targets if isinstance(t, ast.Name)}
    keys = [key.value for name in ("_FIELDS", "SPEC_POOLS") for key in tables[name].keys
            if key is not None]  # None is _FIELDS' ** of SPEC_POOLS
    fields = [f.name for f in dataclasses.fields(suite.SuiteConfig)]
    assert sorted(keys) == sorted(fields)
    assert sorted(suite._FIELDS) == sorted(fields)


def test_cli_pool_flags_are_the_pool_table_flags():
    # the CLI's pool flags are the table's, and each restricts its own pool
    flags = {flag: name for name, (_, names, _) in suite.SPEC_POOLS.items() for flag in names}
    for command in ("verify", "hunt", "probe"):
        sub = cli.build_parser()._subparsers._group_actions[0].choices[command]
        assert {action.dest for action in sub._actions
                if (action.help or "").startswith("restrict ")} == set(flags)
    for flag, name in flags.items():
        spec = getattr(suite.SuiteConfig, name)[-1]
        args = cli.build_parser().parse_args(["verify", f"--{flag}", spec])
        assert getattr(cli._config_from_args(args), name) == (spec,)


def test_every_pool_a_row_names_is_built():
    # a row's map is one of its picks, phi, which every row that takes a map picks first
    pools = suite._build_pools(suite.SuiteConfig(), 2)
    named = {(row.id, pool) for row in suite.ROWS.values() for _, pool, _ in row.picks}
    assert {(ineq, pool) for ineq, pool in named if pool not in pools} == set()
    assert {row.id: [name for name, *_ in row.picks].index("phi") for row in suite.ROWS.values()
            if any(name == "phi" for name, *_ in row.picks)} == dict.fromkeys(
        [i for i in suite.ROWS if "phi(" in suite.ROWS[i].statement], 0)


def _functions(module):
    """``(class name or None, node)`` of each function and method a module defines."""
    import ast

    for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            yield from ((node.name, f) for f in node.body if isinstance(f, ast.FunctionDef))


def test_each_norm_variant_and_map_dimension_is_declared_once():
    # the norm table holds every variant, and NormKind, parse_norm and
    # ui_norm read it rather than naming a variant; so does the suite, which
    # fits each norm to a dimension by the table, and reads a cell's
    # declaration rather than naming cells (but for probe's own sandwich
    # corner), with no spectrum or pairing of its own; each map sets its dimensions
    # where it is built, with no property that derives them; and a matrix
    # runs the spectral layer's stack code, with no branch on ndim
    import ast

    from loewner_lab import maps, spectral

    kinds = [spectral.OPERATOR, spectral.TRACE, spectral.FROBENIUS, spectral.ky_fan(2),
             spectral.schatten(3)] + [spectral.parse_norm(s) for s in spectral.DEFAULT_NORM_SPECS]
    variants = {kind.variant for kind in kinds}
    assert variants <= set(spectral._NORMS)
    readers = {("NormKind", "__post_init__"), (None, "parse_norm"), (None, "ui_norm")}
    bodies = [node for owner, node in _functions(spectral) if (owner, node.name) in readers]
    assert len(bodies) == len(readers)
    named = [f"{node.name}: {lit.value!r}" for node in bodies for lit in ast.walk(node)
             if isinstance(lit, ast.Constant) and lit.value in variants | {"op", "nuclear", "fro"}]
    assert named == []

    def names(node):  # every name and attribute that the node reads
        return {getattr(sub, "attr", getattr(sub, "id", None)) for sub in ast.walk(node)}

    tree = ast.parse(Path(suite.__file__).read_text(encoding="utf-8"))
    in_suite = [lit.value for lit in ast.walk(tree) if isinstance(lit, ast.Constant)
                and lit.value in variants | {"op", "nuclear", "fro"}]
    assert in_suite == []
    from loewner_lab import certificates as certs

    cells = {name for name, value in vars(certs).items()
             if any(value is cell for cell in certs.CELLS)}
    assert len(cells) == len(certs.CELLS)
    starts, = [node for node in tree.body if getattr(node, "name", None) == "_probe_starts"]
    assert {name for node in tree.body if node is not starts for name in names(node)} & cells \
        == set()
    assert names(starts) & cells == {"BOUNDED"}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    drawn = {"A_SPECTRUM", "_spd", "_sandwich_pair", "_bounded_pair"}
    assert (imported | names(tree)) & drawn == set()
    one_path = {(None, "_eigh"), (None, "_fro"), (None, "ui_norm")}
    bodies = [node for owner, node in _functions(spectral) if (owner, node.name) in one_path]
    assert len(bodies) == len(one_path)
    by_ndim = [node.name for node in bodies for cmp in ast.walk(node)
               if isinstance(cmp, ast.Compare) and "ndim" in names(cmp)]
    assert by_ndim == []
    derived = [f"{owner}.{node.name}" for owner, node in _functions(maps)
               if owner is not None and node.name in ("input_dim", "output_dim")]
    assert derived == []


def test_one_matrix_type():
    # a single matrix is a stack of one slice: spectral defines one class that
    # holds matrix entries, SymMatrix is only the name the benchmark's tracer
    # wraps, and no function of the spectral, means and maps layers coerces a
    # matrix, or branches on whether it got one matrix or a stack; a refusal
    # of malformed input (an if whose body only raises) is no such branch
    import ast

    import numpy as np

    from loewner_lab import generate, maps, means, spectral

    tree = ast.parse(Path(spectral.__file__).read_text(encoding="utf-8"))
    holders = [node.name for node in tree.body if isinstance(node, ast.ClassDef)
               for stmt in node.body if isinstance(stmt, ast.Assign)
               and [getattr(t, "id", None) for t in stmt.targets] == ["__slots__"]
               and "data" in ast.literal_eval(stmt.value)]
    assert holders == ["SymStack"]
    assert spectral.SymMatrix is spectral.SymStack
    assert [name for name in ("as_sym", "_per_matrix") if hasattr(spectral, name)] == []
    assert not hasattr(spectral.SymStack, "matrices")
    found = []
    for module in (spectral, means, maps):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        refusals = {id(sub) for node in ast.walk(tree) if isinstance(node, ast.If)
                    and all(isinstance(stmt, ast.Raise) for stmt in node.body)
                    for sub in ast.walk(node.test)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "atleast_1d":
                found.append(f"{module.__name__}:{node.lineno} atleast_1d")
            if isinstance(node, ast.Compare) and id(node) not in refusals and "ndim" in {
                    getattr(sub, "attr", None) for sub in ast.walk(node)}:
                found.append(f"{module.__name__}:{node.lineno} ndim")
    assert found == []
    src = Path(spectral.__file__).resolve().parent
    named = [(path.name, line.split("#")[0].strip()) for path in sorted(src.glob("*.py"))
             for line in path.read_text(encoding="utf-8").splitlines() if "SymMatrix" in line]
    assert named == [("spectral.py", "SymMatrix = SymStack")]
    # each scalar result of a one-slice stack is an array with one entry
    A = spectral.SymStack(np.diag([1.0, 4.0])[None])
    B = spectral.SymStack(np.diag([4.0, 1.0])[None])
    results = [spectral.op_norm(A), spectral.loewner_slack(A, B),
               spectral.ui_norm(A, spectral.TRACE), *spectral.spectrum_bounds(A),
               *generate.estimate_sandwich(A, B)]
    assert [(type(r), r.shape) for r in results] == [(np.ndarray, (1,))] * len(results)


def test_one_result_type():
    # a certificate is one slice of its Sides, written straight from the
    # columns: no module defines a one-instance Certificate class, one
    # function of the package (the slice writer) spells a stack's slice in
    # the report's form {"dim", "data"}, and Sides writes itself rather
    # than building another type
    import ast

    from loewner_lab import certificates

    src = Path(suite.__file__).resolve().parent
    classes, writers = [], []

    def visit(node, path, owner):
        if isinstance(node, ast.ClassDef):
            classes.append(f"{path.name}:{node.name}")
        if isinstance(node, ast.FunctionDef):
            owner = f"{path.name}:{node.name}"
        if isinstance(node, ast.Dict) and any(
                isinstance(key, ast.Constant) and key.value == "data" for key in node.keys):
            writers.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, None)
    assert [name for name in classes if name.endswith(":Certificate")] == []
    assert writers == ["certificates.py:slice_to_json"]
    methods = {node.name for owner, node in _functions(certificates) if owner == "Sides"}
    assert "to_json" in methods and "certificate" not in methods


def test_one_map_type():
    # a positive map is one MapSpec: maps.py defines one class with an apply,
    # each family builder returns a MapSpec, and no module defines a class
    # CongruenceMap: a congruence spec builds a one-term Kraus sum, V^T X V
    # bit for bit, with the label and dimensions that its spec names
    import ast

    import numpy as np

    from loewner_lab import (IdentityMap, KrausSumMap, MapSpec, MixtureMap, NormalizedTraceMap,
                             PinchingMap, SplitMix64, SymStack, maps, parse_map)

    src = Path(suite.__file__).resolve().parent
    classes = [f"{path.name}:{node.name}" for path in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ClassDef)]
    assert [name for name in classes if name.endswith(":CongruenceMap")] == []
    appliers = [node.name for node in ast.walk(ast.parse(Path(maps.__file__).read_text("utf-8")))
                if isinstance(node, ast.ClassDef) and "apply" in {
                    f.name for f in node.body if isinstance(f, ast.FunctionDef)}]
    assert appliers == ["MapSpec"]
    built = [IdentityMap(2), KrausSumMap((np.eye(2),)), PinchingMap(((0,), (1,))),
             NormalizedTraceMap(2, 1), MixtureMap((1.0,), (IdentityMap(2),))]
    built += [parse_map(spec, 2, SplitMix64(1)) for spec in ("identity", "ntrace:1",
              "congruence:random", "kraus:2", "pinching:halves", "mix:1@identity")]
    assert {type(phi) for phi in built} == {MapSpec}
    assert set(maps._MAP_FAMILIES) == {"identity", "ntrace", "congruence", "kraus", "pinching",
                                       "mix"}
    phi = parse_map("congruence:random", 3, SplitMix64(1))
    assert type(phi) is MapSpec
    assert phi.label == "congruence:random:3x3"
    assert (phi.input_dim, phi.output_dim) == (3, 3)
    v = SplitMix64(1).normal_matrix(3, 3)
    x = SymStack(SplitMix64(2).normal_matrix(3, 3)[None])
    assert phi.apply(x).data.tobytes() == SymStack(v.T @ x.data @ v).data.tobytes()
    assert parse_map("congruence:random:3x2", 3, SplitMix64(1)).output_dim == 2


def test_one_scalar_function_type():
    # a mean's kernel is an operator monotone MonotoneFunction normalized at 1:
    # no module defines a ScalarKernel, every default kernel parses to a
    # MonotoneFunction of class OPERATOR_MONOTONE with fn(1) == 1, and the
    # kernel screens run on the one default grid, so neither takes a grid
    import ast

    from loewner_lab import kernels

    src = Path(suite.__file__).resolve().parent
    defined = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                defined.append(f"{path.name}:{node.name}")
            elif isinstance(node, ast.Assign):
                defined += [f"{path.name}:{t.id}" for t in node.targets if isinstance(t, ast.Name)]
    assert [name for name in defined if name.endswith(":ScalarKernel")] == []
    for spec in kernels.DEFAULT_KERNEL_SPECS:
        kernel = kernels.parse_kernel(spec)
        assert type(kernel) is kernels.MonotoneFunction
        assert kernel.klass == kernels.OPERATOR_MONOTONE
        assert kernel.fn(1.0) == 1.0
    screens = {node.name: [arg.arg for arg in node.args.args + node.args.kwonlyargs]
               for _, node in _functions(kernels)
               if node.name in ("kernel_dominance", "is_symmetric_kernel")}
    assert screens == {"kernel_dominance": ["k1", "k2"], "is_symmetric_kernel": ["kernel"]}
    assert not hasattr(kernels, "_default_dominance")


def test_one_elementwise_path():
    # a scalar function meets an array in one place, spectral._apply: np.fromiter
    # is spelled once in the package, there; the default grid and a function's
    # values on it are shared cached arrays, so neither takes a write
    import inspect

    import pytest

    from loewner_lab import kernels, spectral

    src = Path(suite.__file__).resolve().parent
    spelled = {path.name: path.read_text(encoding="utf-8").count("np.fromiter")
               for path in sorted(src.glob("*.py"))}
    assert {name: n for name, n in spelled.items() if n} == {"spectral.py": 1}
    assert inspect.getsource(spectral._apply).count("np.fromiter") == 1
    for shared in (kernels.default_grid(), kernels.on_grid(kernels.GEOMETRIC)):
        with pytest.raises(ValueError):
            shared[0] = 1.0
    assert kernels.on_grid(kernels.GEOMETRIC) is kernels.on_grid(kernels.GEOMETRIC)
    assert not hasattr(kernels, "eval_kernel")


def test_only_the_generator_touches_a_stream_state():
    # a stream advances and hands on its Box-Muller spare in generate alone:
    # no other module reads or writes its private fields, and no copy of a
    # stream is made to skip ahead in it
    from loewner_lab import generate

    src = Path(suite.__file__).resolve().parent
    named = {path.name for path in sorted(src.glob("*.py"))
             if re.search(r"\b_(state|spare)\b", path.read_text(encoding="utf-8"))}
    assert named == {"generate.py"}
    assert not hasattr(generate, "_advanced")
