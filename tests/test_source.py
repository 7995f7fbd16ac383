"""Checks over the library source itself."""

import ast
from pathlib import Path

import conglab
from conglab.domains import (
    TEXT_DEGREE_CAP,
    TEXT_NESTING_CAP,
    Domain,
    IntegerDomain,
    PolynomialDomain,
    QuadraticDomain,
)

SRC = Path(conglab.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def test_no_assert_in_library():
    # verifier checks raise InternalCheckError so they survive python -O
    # and surface as exit code 4, not as a traceback with exit 1
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "AssertionError"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_readme_states_the_element_text_caps():
    text = " ".join(README.read_text().split())
    assert f"may be at most {TEXT_DEGREE_CAP}, so no exponent may exceed {TEXT_DEGREE_CAP}" in text
    assert f"may nest at most {TEXT_NESTING_CAP} deep" in text


def test_no_unicode_digit_class_in_library_regexes():
    # \d takes any Unicode decimal digit; numerals in the grammars are [0-9]
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "re"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                and r"\d" in node.args[0].value
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_the_cli_decodes_json_text():
    # the library takes decoded values; cli._load_json_file is the one JSON
    # reader, which turns unreadable, malformed or over-deep files into exit 2
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            where = f"{path.name}:{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "json" for a in node.names):
                    found.append(f"{where} imports json")
                elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
                    found.append(f"{where} imports from json")
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "json"
                    and node.attr in {"load", "loads", "JSONDecoder", "decoder"}
                ):
                    found.append(f"{where} decodes")
    assert found == ["cli.py:<module> imports json", "cli.py:_load_json_file decodes"]


def test_matgroups_closes_no_group():
    # a matrix group's order, membership and elements come from its column
    # chain; Dimino's closure lives in subgroups, for the dense groups
    path = SRC / "matgroups.py"
    closures = {"extend_closure", "closure_codes"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in closures:
            found.append(f"defines {node.name}:{node.lineno}")
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in closures:
                found.append(f"calls {name}:{node.lineno}")
    assert found == []


def test_dense_group_has_one_product_path():
    # every DenseGroup product is its kernel's, a function on dense indices;
    # no label product or matrix product is kept beside it
    path = SRC / "subgroups.py"
    tree = ast.parse(path.read_text(), str(path))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "DenseGroup"]
    banned = {"mul_label", "_mul_label", "mmul"}
    found = []
    for node in ast.walk(cls):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "arg", None)
        if name in banned:
            found.append(f"{name}:{node.lineno}")
    assert found == []


def test_only_matgroups_knows_the_column_key():
    # columns are keyed a*|R| + c inside matgroups; other modules ask a group
    # for what they need at a code (column_amplitude, least) instead
    keyed = {"orbit_of", "transversal", "unimodular_columns"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "matgroups.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in keyed or (isinstance(node, ast.alias) and node.name in keyed):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_only_quotients_builds_ring_tables():
    # a ring's add/mul/neg tables are built with it and are its only
    # arithmetic; other modules read them and never build or ask for them
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "ensure_tables":
                found.append(f"{path.name}:{node.lineno} reads ensure_tables")
            elif (
                path.name != "quotients.py"
                and isinstance(node, ast.Attribute)
                and node.attr in {"add_t", "mul_t", "neg_t"}
                and isinstance(node.ctx, ast.Store)
            ):
                found.append(f"{path.name}:{node.lineno} stores {node.attr}")
    assert found == []
    subclasses = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
        and any(getattr(base, "id", getattr(base, "attr", None)) == "QuotientRing" for base in node.bases)
    ]
    assert subclasses == []


def kind_comparisons(node):
    """One entry, with its line, per comparison of a .kind attribute under node."""
    return [
        f"compares .kind:{n.lineno}"
        for n in ast.walk(node)
        if isinstance(n, ast.Compare)
        and any(isinstance(side, ast.Attribute) and side.attr == "kind" for side in [n.left, *n.comparators])
    ]


def test_domains_ideal_layer_never_switches_on_kind():
    # each kind's class owns its ideal data; Z and F_q[t] share one
    # Euclidean path, so no second gcd or irreducibility test may return;
    # F_q for e > 1 is the quotient ring F_p[u]/(m), so no second field
    # table builder or digit codec may return either
    path = SRC / "domains.py"
    tree = ast.parse(path.read_text(), str(path))
    found = kind_comparisons(tree)
    retired = ("_ext_gcd", "_p_is_irreducible", "_build_field_tables", "_fq_tuple", "_fq_value")
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in retired:
            found.append(f"defines {node.name}:{node.lineno}")
        elif isinstance(node, ast.Attribute) and node.attr in ("_mul_table", "_inv_table"):
            found.append(f"names {node.attr}:{node.lineno}")
    assert found == []


def test_quotients_never_switches_on_kind():
    # each domain class lists its quotients' residues, with their reduce map
    # and an additive basis, so one ring class serves every kind
    path = SRC / "quotients.py"
    assert kind_comparisons(ast.parse(path.read_text(), str(path))) == []


def is_data(node):
    return isinstance(node, ast.Attribute) and node.attr == "data"


def test_quotients_reads_no_ideal_data():
    # an ideal's data is read by its domain alone: quotients passes it to
    # the domain's residues and keys rings by it, and never indexes, unpacks
    # or iterates it, nor reaches into a kind's own attributes or hooks
    path = SRC / "quotients.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in {"_norm", "q", "quotient_class"}:
            found.append(f"names .{node.attr}:{node.lineno}")
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "additive_generators":
            found.append(f"calls additive_generators:{node.lineno}")
        elif isinstance(node, (ast.Subscript, ast.Starred)) and is_data(node.value):
            found.append(f"indexes or unpacks .data:{node.lineno}")
        elif isinstance(node, (ast.For, ast.comprehension)) and is_data(node.iter):
            found.append(f"iterates .data:{node.iter.lineno}")
        elif isinstance(node, ast.Assign) and is_data(node.value) and any(
            isinstance(target, (ast.Tuple, ast.List)) for target in node.targets
        ):
            found.append(f"unpacks .data:{node.lineno}")
    assert found == []


def test_index_level_inequality_check_never_switches_on_kind():
    # each domain class names its field degree, None for F_q[t]
    path = SRC / "analyzer.py"
    tree = ast.parse(path.read_text(), str(path))
    (check,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "index_level_inequality_check"
    ]
    assert kind_comparisons(check) == []


def test_no_module_reads_a_domain_kind():
    # each domain class lists its quotients' residues and names its field
    # degree; code that needs a domain's class asks isinstance
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}: {entry}" for entry in kind_comparisons(tree)]
    assert found == []
    assert not any(hasattr(cls, "kind") for cls in (Domain, IntegerDomain, PolynomialDomain, QuadraticDomain))


def callers(tree, name):
    """The name of the function around each call of name, None at module level."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            func = getattr(child, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) == name:
                found.append(function)
            visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    visit(tree, None)
    return found


def test_two_column_lattices_have_one_hnf():
    # every quadratic ideal's lattice goes through the rank-2 kernel _hnf2;
    # intersections and Bezout pairs are read off its rows, and the generic
    # row HNF of the four-column pair lattices is a test oracle only
    path = SRC / "domains.py"
    tree = ast.parse(path.read_text(), str(path))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_row_hnf", "_pair_rows"}
    assert callers(tree, "_hnf2") == ["ideal_from_lattice"]


def _functions(module):
    path = SRC / f"{module}.py"
    tree = ast.parse(path.read_text(), str(path))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_theorem_checks_raise_and_their_callers_do_not():
    # each analyzer check raises InternalCheckError on the contradiction it
    # finds, so the report and the survey suites never re-check its result
    callers = [("analyzer", "analyze"), ("suites", "suite_amplitude_extrema"),
               ("suites", "suite_square_unit_closure")]
    for module, name in callers:
        node = _functions(module)[name]
        assert not any(isinstance(n, ast.Raise) for n in ast.walk(node)), f"{module}.{name}"
    checks = _functions("analyzer")
    for name in ("cusp_split_check", "unit_square_closure_check"):
        assert any(isinstance(n, ast.Raise) for n in ast.walk(checks[name])), name
        returns = [n for n in ast.walk(checks[name]) if isinstance(n, ast.Return)]
        assert all(n.value is None for n in returns), name


def test_only_quotients_and_matgroups_read_ring_tables():
    # quotients builds the add/mul/neg tables and matgroups packs codes
    # over them; every other module asks these two for what it needs
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("quotients.py", "matgroups.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in {"add_t", "mul_t", "neg_t"}:
                found.append(f"{path.name}:{node.lineno} reads {node.attr}")
    assert found == []


def test_dense_group_computes_no_powers():
    # element powers go through domains._power; the powers list of a
    # cyclic subgroup is a test oracle
    path = SRC / "subgroups.py"
    tree = ast.parse(path.read_text(), str(path))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "DenseGroup"]
    assert "powers" not in {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}


def test_suites_reads_no_psl2_labels():
    # a PSL2(Z/n) label is the smaller code of +-x; modular, which defines
    # the labels, gives a subgroup's SL2 preimage
    path = SRC / "suites.py"
    assert callers(ast.parse(path.read_text(), str(path)), "mneg") == []


def test_suites_builds_no_group_from_elements():
    # the soundness suite frames each SL2 preimage from its conjugated
    # class generators; FinMatGroup.from_elements is not on its path
    path = SRC / "suites.py"
    assert callers(ast.parse(path.read_text(), str(path)), "from_elements") == []


def test_one_walk_conjugates_subgroups():
    # DenseGroup keeps the conjugation maps and conjugates alone applies
    # them to a subgroup, so the class search and the suite share one walk
    path = SRC / "subgroups.py"
    tree = ast.parse(path.read_text(), str(path))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "DenseGroup"]
    assert "conj" not in {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
    readers = {
        function.name: {n.attr for n in ast.walk(function) if isinstance(n, ast.Attribute)}
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
    }
    assert [name for name, attrs in readers.items() if "conjugations" in attrs] == ["conjugates"]
    assert [name for name, attrs in readers.items() if "right_actions" in attrs] == ["conjugations"]


def loop_depths(node, name, depth=0):
    """The number of loops around each call of name below node, a
    comprehension counting one per for clause."""
    found = []
    for child in ast.iter_child_nodes(node):
        func = getattr(child, "func", None)
        if getattr(func, "id", getattr(func, "attr", None)) == name:
            found.append(depth)
        inner = depth + isinstance(child, (ast.For, ast.While))
        if isinstance(child, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            inner += len(child.generators)
        found += loop_depths(child, name, inner)
    return found


def test_principal_congruence_images_come_from_generators():
    # the image of a principal congruence subgroup is a chain on its
    # generators, certified by its order; listing every I + M is the scan
    # oracle in tests/test_matgroups.py
    node = _functions("matgroups")["principal_congruence_image"]
    assert callers(node, "from_elements") == []
    assert [depth for depth in loop_depths(node, "encode") if depth >= 3] == []


def test_groups_from_elements_and_congruence_images_are_one_constructor_call():
    # the constructor keeps only the generators that enlarge the group, so
    # neither rebuilds a group for each generator it takes
    path = SRC / "matgroups.py"
    tree = ast.parse(path.read_text(), str(path))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "FinMatGroup"]
    (from_elements,) = [n for n in cls.body if getattr(n, "name", None) == "from_elements"]
    assert loop_depths(from_elements, "cls") == [0]
    assert loop_depths(_functions("matgroups")["principal_congruence_image"], "FinMatGroup") == [0]


def test_cusps_build_no_matrix():
    # a cusp keeps its least code; CuspData.rep builds the Mat2 on first read
    node = _functions("analyzer")["cusps"]
    assert [n.lineno for n in ast.walk(node) if isinstance(n, ast.Name) and n.id == "Mat2"] == []
