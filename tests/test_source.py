"""Rules the library's source keeps."""

import ast
from pathlib import Path

import beliefnet

SOURCES = sorted(Path(beliefnet.__file__).parent.glob("*.py"))


def test_no_runtime_check_rests_on_assert():
    # ``python -O`` strips assert statements, so a check written as one
    # would silently stop running; the library raises instead.
    assert SOURCES
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _callers(name):
    """The source files holding a call of ``name``, bare or as an attribute."""
    return {path.name for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}


def test_queries_reach_the_sweep_only_through_the_conditioning_driver():
    # Message passing is conditioning on the empty cutset: the pruned
    # schedule is built by the driver alone, and ``propagate`` is the
    # full-store API for callers outside the library.
    assert _callers("_toward") == {"cutset.py"}
    assert _callers("propagate") == set()


def test_classification_makes_no_per_node_separation_test():
    # One Bayes-ball pass from the target classifies a query; only the
    # ``dsep`` command asks whether two named nodes are d-separated.
    assert _callers("d_separated") == {"cli.py"}
    assert _callers("without") == set()


def test_every_private_helper_is_used():
    # A private function, or a method of a private class, that nothing
    # in the library names any more is dead code left behind.  A method
    # counts as used when some attribute bears its name.
    functions, methods, names, attributes = set(), set(), set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                functions.add((path.name, node.name))
            elif isinstance(node, ast.ClassDef) and node.name.startswith("_"):
                methods.update((path.name, node.name, item.name) for item in node.body
                               if isinstance(item, ast.FunctionDef)
                               and not item.name.startswith("__"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    assert functions and methods
    assert sorted(f for f in functions if f[-1] not in names | attributes) == []
    assert sorted(m for m in methods if m[-1] not in attributes) == []


def test_queries_enter_the_cutset_module_only_through_its_driver():
    # ``infer`` runs the one driver, on the query it has checked: it builds
    # no cutset of its own and reads no other name of ``cutset``.
    tree = ast.parse((SOURCES[0].parent / "query.py").read_text())
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not any(node.module == "cutset" for node in imports)
    aliases = {alias.asname or alias.name for node in imports if node.module is None
               for alias in node.names if alias.name == "cutset"}
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases}
    assert read == {"_condition"}
    assert "LoopCutset" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_contraction_runs_through_one_of_two_kernels():
    # Every pi value, a cached prior's included, is contracted in one
    # place and every lambda message in one other, so a cached prior
    # equals the pi message a sweep would send by construction.
    sites = [(path.name, function.name) for path in SOURCES
             for function in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(function, ast.FunctionDef)
             for node in ast.walk(function)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "einsum"]
    assert sorted(sites) == [("propagation.py", "contract_pi"),
                             ("propagation.py", "lambda_message")]


def test_one_function_keeps_a_row_of_zero_mass_zero():
    # A pi message, a belief and a cached prior are normalised by one rule,
    # so the guard that divides a row of zero mass by 1 is written once.
    sites = [(path.name, function.name) for path in SOURCES
             for function in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(function, ast.FunctionDef)
             for node in ast.walk(function)
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "where"
             and len(node.args) == 3 and isinstance(node.args[0], ast.Compare)
             and isinstance(node.args[0].ops[0], ast.Gt)
             and ast.unparse(node.args[0].comparators[0]) == "0"
             and ast.unparse(node.args[2]) == "1.0"]
    assert sites == [("propagation.py", "_normalised")]


def test_one_site_reads_whether_every_table_is_positive():
    # Only the schedule toward a target may leave out the components cut
    # off from it, and only on a positive network, where they cannot
    # make the evidence impossible; every other sweep takes them all.
    sites = [(path.name, function.name) for path in SOURCES
             for function in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(function, ast.FunctionDef)
             for node in ast.walk(function)
             if isinstance(node, ast.Attribute) and node.attr == "_positive"]
    assert sites == [("propagation.py", "_toward")]


def _functions(name):
    """Every function definition named ``name`` in the library, by file."""
    return [(path.name, node) for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.FunctionDef) and node.name == name]


def _called(tree):
    return {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for node in ast.walk(tree) if isinstance(node, ast.Call)}


def test_a_query_is_checked_and_bound_in_one_place():
    # ``model._relevance`` checks the target, the network and the
    # evidence and walks their ancestors once per plan.  The front door
    # calls it once and hands its value to the driver and the classifier,
    # whose public wrappers check the query themselves; none of them
    # redoes any of the check.
    query = ast.parse((SOURCES[0].parent / "query.py").read_text())
    assert _called(query) & {"_bind_evidence", "_closure", "ancestors", "_require_valid"} == set()
    [(_, front)] = _functions("infer")
    calls = [getattr(node.func, "id", None) or getattr(node.func, "attr", None)
             for node in ast.walk(front) if isinstance(node, ast.Call)]
    assert calls.count("_relevance") == 1
    assert {"_condition", "_classify"} <= set(calls)
    assert {"run_cutset_conditioning", "classify_query"}.isdisjoint(calls)
    for wrapper, where, inner in (("run_cutset_conditioning", "cutset.py", "_condition"),
                                  ("classify_query", "query.py", "_classify")):
        [(found, outer)] = _functions(wrapper)
        assert found == where and {"_relevance", inner} <= _called(outer)
        [(_, checked)] = _functions(inner)
        assert _called(checked) & {"_relevance", "_bind_evidence"} == set()


def test_one_check_rejects_hard_evidence_on_a_target():
    # The query of one target and the joint over several check their
    # targets, the network, the evidence and the targets' findings in one
    # function, so the rule and its order are stated once.
    sites = sorted((path.name, function.name) for path in SOURCES
                   for function in ast.walk(ast.parse(path.read_text(), str(path)))
                   if isinstance(function, ast.FunctionDef)
                   for node in ast.walk(function)
                   if isinstance(node, ast.JoinedStr)
                   and "carries hard evidence" in ast.unparse(node)
                   and ast.unparse(node).startswith(("f'target", 'f"target')))
    assert sites == [("model.py", "_bind_query")]
    for name, where in (("_relevance", "model.py"), ("marginal_joint", "enumeration.py")):
        [(found, function)] = _functions(name)
        assert found == where and "_bind_query" in _called(function)
        assert _called(function) & {"_bind_evidence", "is_hard", "var"} == set()


def test_one_site_builds_a_schedule():
    # Every schedule, of the whole network or toward a target, and the
    # components a target's schedule leaves out, is built by one walk.
    sites = [(path.name, function.name) for path in SOURCES
             for function in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(function, ast.FunctionDef)
             for node in ast.walk(function)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Schedule"]
    assert sites == [("propagation.py", "schedule")]


def test_plans_are_made_and_the_network_memo_kept_in_one_place():
    # A query plan is made only where a query is checked, so every plan is
    # keyed by its pattern and bounded; nothing but ``_once`` and
    # ``_relevance`` touches the network's memo, so nothing else stores
    # on the network.
    made = sorted((path.name, function.name) for path in SOURCES
                  for function in ast.walk(ast.parse(path.read_text(), str(path)))
                  if isinstance(function, ast.FunctionDef)
                  and "_Plan" in _called(function))
    assert made == [("model.py", "_relevance")]
    touched = sorted({(path.name, function.name) for path in SOURCES
                      for function in ast.walk(ast.parse(path.read_text(), str(path)))
                      if isinstance(function, ast.FunctionDef)
                      for node in ast.walk(function)
                      if isinstance(node, ast.Attribute) and node.attr == "_memo"})
    assert touched == [("model.py", "_once"), ("model.py", "_relevance")]


def test_enumeration_multiplies_tables_into_a_joint_at_one_site():
    # Every enumeration answer reads one joint builder, so the full joint
    # and the one narrowed by the evidence cannot drift apart: the CPT
    # factors are derived in one function and read in one other, which
    # multiplies them and the evidence weights in at one statement.
    tree = ast.parse((SOURCES[0].parent / "enumeration.py").read_text())
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]

    def sites(match):
        return [f.name for f in functions for node in ast.walk(f) if match(node)]

    assert sites(lambda node: isinstance(node, ast.Call)
                 and getattr(node.func, "attr", None) == "cpt_tensor") == ["_factors"]
    assert sites(lambda node: isinstance(node, ast.Name) and node.id == "_factors") == ["_joint"]
    assert sites(lambda node: isinstance(node, ast.AugAssign)
                 and isinstance(node.op, ast.Mult)) == ["_joint"]
    assert set(sites(lambda node: isinstance(node, ast.BinOp)
                     and isinstance(node.op, ast.Mult))) <= {"_joint"}


def test_the_parser_keys_each_row_by_its_tables_label_index_at_one_site():
    # A row's labels are looked up whole in its table's index, built once
    # per distinct tuple of parent states; no label is searched for state
    # by state and no parent assignment is enumerated to find a row.
    assert "netfile.py" not in _callers("state_index") | _callers("ndindex")
    tree = ast.parse((SOURCES[0].parent / "netfile.py").read_text())
    stored = [node.value.id for node in ast.walk(tree)
              if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name)]
    assert stored.count("rows") == 1
    built = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "setdefault"]
    assert [node.func.value.id for node in built] == ["index"]


def test_one_site_converts_a_cpt_table():
    # ``Cpt`` keeps its own copy of the table it is given, made by one
    # conversion, so the caller's array can never change a checked table.
    # The parser hands it the rows it read, not an array of them, except
    # under ``normalize``, where it makes one array to rescale the rows.
    conversions = {"array", "asarray", "ascontiguousarray"}

    def converted(tree):
        return [ast.unparse(node.func) for node in ast.walk(tree)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and getattr(node.func.value, "id", None) == "np"
                and node.func.attr in conversions]

    netfile = ast.parse((SOURCES[0].parent / "netfile.py").read_text())
    rescales = [node for node in ast.walk(netfile) if isinstance(node, ast.If)
                and ast.unparse(node.test) == "normalize"]
    assert len(rescales) == 1 and converted(rescales[0]) == ["np.array"]
    assert converted(netfile) == ["np.array"]
    [(_, post_init)] = [(path, node) for path, node in _functions("__post_init__")
                        if path == "model.py" and "self.table" in ast.unparse(node)]
    assert converted(post_init) == ["np.array"]


def test_validation_walks_the_tables_once():
    # Every by-child, by-width and structural check of a table is made in
    # one loop over ``net.cpts``; the row checks read the tables it filed.
    [(_, find)] = _functions("_find_violations")
    loops = [node for node in ast.walk(find)
             if isinstance(node, (ast.For, ast.comprehension))
             and any(isinstance(sub, ast.Attribute) and sub.attr == "cpts"
                     for sub in ast.walk(node.iter))]
    assert len(loops) == 1


# Where a ``Cpt``'s own parent list is read: the sites that read a table's
# layout (validation, ``cpt_tensor``, ``cpt_row``, enumeration's factors and
# the serializer), the table itself, and ``_parents``, which derives the
# one parent relation from it.  The compiled network's ``parents`` lists
# are indices of that relation.
TABLE_LAYOUT = [("enumeration.py", "_factors"), ("model.py", "__post_init__"),
                ("model.py", "_find_violations"), ("model.py", "_parents"),
                ("model.py", "cpt_row"), ("model.py", "cpt_tensor"),
                ("netfile.py", "serialize_network")]


def test_graph_questions_read_one_parent_relation():
    # ``parents``, ``children``, ``edges``, ``roots``, the skeletons, the
    # topological order and every edge-direction test answer from
    # ``_parents``, the declared parents each listed once; nothing else reads
    # a table's parents as graph structure, and no copy of the edges is kept.
    sites = set()
    for path in SOURCES:
        for function in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(function, ast.FunctionDef):
                continue
            called = {id(node.func) for node in ast.walk(function) if isinstance(node, ast.Call)}
            sites.update((path.name, function.name) for node in ast.walk(function)
                         if isinstance(node, ast.Attribute) and node.attr == "parents"
                         and isinstance(node.ctx, ast.Load) and id(node) not in called
                         and not (path.name == "propagation.py"
                                  and getattr(node.value, "id", None) in ("comp", "self")))
    assert sorted(sites) == TABLE_LAYOUT
    for name in ("parents", "children", "edges", "roots", "_children", "topological_order",
                 "_skeleton", "_reduced_skeleton", "classify_connection", "_first_active_path",
                 "_search_cutset"):
        [(_, function)] = _functions(name)
        read = {node.attr for node in ast.walk(function) if isinstance(node, ast.Attribute)}
        assert read & {"_parents", "_children"}, name
    # The network's only edge member is ``edges``; the other edge names read
    # are the message schedule's.
    [network] = [node for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ClassDef) and node.name == "BayesianNetwork"]
    assert [node.name for node in network.body
            if isinstance(node, ast.FunctionDef) and "edge" in node.name] == ["edges"]
    for path in SOURCES:
        read = {node.attr for node in ast.walk(ast.parse(path.read_text(), str(path)))
                if isinstance(node, ast.Attribute) and "edge" in node.attr}
        assert read <= {"edges", "edge_index", "in_edges", "out_edges", "prior_edge"}, path.name


def test_cutset_keeps_one_array_of_instantiations():
    # The instantiations are one ``np.indices`` array; no tuple of them is
    # enumerated or kept, and the run's tuple keys are built when read.
    # The cutset and that array are all that is kept: no indicator rows.
    tree = ast.parse((SOURCES[0].parent / "cutset.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "itertools" not in names and {"product", "compress"}.isdisjoint(attributes)
    assert "_combos" not in attributes
    [(_, build)] = _functions("_instantiations")
    assert "indices" in {getattr(node.func, "attr", None)
                         for node in ast.walk(build) if isinstance(node, ast.Call)}
    [returned] = [node.value for node in ast.walk(build) if isinstance(node, ast.Return)]
    assert ast.unparse(returned) == "(cut, states)"
    unpacked = [ast.unparse(node.targets[0]) for node in ast.walk(tree)
                if isinstance(node, ast.Assign) and "_instantiations" in ast.unparse(node.value)]
    assert unpacked == ["(cut, states)"]


def test_no_identity_is_built_or_kept():
    # An indicator, a hard finding's or each of a cut node's rows, is built
    # from its state in O(rows * arity): an identity over a node's states
    # would take arity**2 floats, 80 GB for a variable of 10**5 states.
    sites = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr in ("eye", "identity")
             and getattr(node.value, "id", None) == "np"]
    assert sites == []
