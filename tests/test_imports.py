"""Modules of the package use each other only through public names,
import only what they use, use every private function they define and
every public one somewhere, never call scipy's matrix exponential or
numpy's ``eig``, ``inv`` or ``cond``, that only ``semigram.lapack``
names scipy or ctypes, and that only the analysis record reads which
factorization it holds, imports ``semigram.lapack`` or decides whether a
generator is diagonal."""

import ast
import pathlib

import semigram


def parsed_modules():
    for path in sorted(pathlib.Path(semigram.__file__).parent.glob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_module_imports_another_modules_private_names():
    offences = []
    for path, tree in parsed_modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not (node.level or (node.module or "").startswith("semigram")):
                continue
            offences += [
                "%s:%d imports %s" % (path.name, alias.lineno, alias.name)
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert offences == []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path, tree in parsed_modules():
        if path.name == "__init__.py":  # imports its names to re-export them
            continue
        # an attribute chain such as scipy.linalg.schur uses its root name
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            "%s:%d imports %s" % (path.name, alias.lineno, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
            if (alias.asname or alias.name).split(".")[0] not in used
        ]
    assert unused == []


def test_every_private_function_is_used_in_its_module():
    dead = []
    for path, tree in parsed_modules():
        private = {
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith("_") and not node.name.startswith("__")
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        dead += ["%s: %s" % (path.name, name) for name in sorted(private - used)]
    assert dead == []


def test_every_public_definition_is_used_by_the_package():
    # a public function or class that only the tests call is test code
    # shipped in the package; __init__ only re-exports
    defined, used = {}, set()
    for path, tree in parsed_modules():
        if path.name == "__init__.py":
            continue
        defined.update(
            (node.name, path.name) for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_"))
        used.update(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))
        used.update(node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute))
    assert sorted("%s: %s" % (defined[name], name)
                  for name in set(defined) - used) == []


def test_no_module_references_expm():
    # the propagator's Taylor kernel is the package's one matrix exponential;
    # a name, attribute or import of scipy's expm (or its variants) would
    # open a second route
    found = []
    for path, tree in parsed_modules():
        for node in ast.walk(tree):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [alias.name for alias in node.names]
                names.append(getattr(node, "module", None))
            found += ["%s:%d %s" % (path.name, node.lineno, name)
                      for name in names if name and "expm" in name]
    assert found == []


def test_only_the_analysis_record_decides_diagonality():
    # spectral_data decides once whether A is diagonal and stores it on the
    # record; a definition, import, reference or export of is_diagonal
    # anywhere else would be a second test that could answer differently
    found = []
    for path, tree in parsed_modules():
        if path.name == "semistability.py":
            continue
        for node in ast.walk(tree):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [name for alias in node.names
                          for name in (alias.name, alias.asname)]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.append(node.value)  # an __all__ entry
            found += ["%s:%d %s" % (path.name, node.lineno, name)
                      for name in names if name == "is_diagonal"]
    assert found == []


def test_no_module_calls_numpys_eig_inv_or_cond():
    # the analysis record's one factorization supplies every eigenvalue,
    # invariant subspace and left eigenvector; numpy's general eigensolver,
    # or an inverse or condition number of an eigenvector basis, would be a
    # second eigensystem of the generator (the scipy fallback of
    # lapack.trevc is the only eig, where numpy's LAPACKE does not resolve)
    banned = ("eig", "inv", "cond")
    found = []
    for path, tree in parsed_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                found += ["%s:%d %s" % (path.name, node.lineno, alias.name)
                          for alias in node.names if alias.name in banned]
            elif (isinstance(node, ast.Attribute) and node.attr in banned
                  and ast.unparse(node.value) in ("np.linalg", "numpy.linalg")):
                found.append("%s:%d %s" % (path.name, node.lineno, node.attr))
    assert found == []


def test_only_the_lapack_module_names_scipy():
    # semigram.lapack binds numpy's own LAPACKE through ctypes, and imports
    # scipy.linalg (about 0.24 s) only where that does not resolve; only a
    # generator that is not self-adjoint calls it
    naming = set()
    for path, tree in parsed_modules():
        for node in ast.walk(tree):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [alias.name for alias in node.names]
                names.append(getattr(node, "module", None))
            naming.update("%s:%d" % (path.name, node.lineno) for name in names
                          if name and name.split(".")[0] in ("scipy", "ctypes"))
    assert {where.partition(":")[0] for where in naming} == {"lapack.py"}, naming



def test_only_the_analysis_record_reads_its_factorization():
    # the record holds either eigh's eigenbasis or a kernel-first Schur
    # split; other modules take what it derives (projection_pair,
    # solve_lyapunov, is_controllable), never which one it holds. A called
    # .split is str.split; lapack's scipy.linalg.schur is another schur
    fields = ("hermitian", "eigenvectors", "schur", "clusters", "split", "mode_split")
    found = []
    for path, tree in parsed_modules():
        if path.name in ("semistability.py", "lapack.py"):
            continue
        called = {id(node.func) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in fields and not (
                    node.attr == "split" and id(node) in called):
                found.append("%s:%d .%s" % (path.name, node.lineno, node.attr))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name for alias in node.names]
                names.append(getattr(node, "module", None))
                found += ["%s:%d imports lapack" % (path.name, node.lineno)
                          for name in names if name and name.split(".")[-1] == "lapack"]
    assert found == []


def test_only_the_transient_bound_reads_the_dense_limit_operator():
    # S_inf has rank k = dim ker A and is held as sigma pi; a product with
    # it costs O(n^2 k) through LimitProjector.apply. Only the decay
    # bound's F = A + mu' I - 2 mu' S_inf needs the n x n matrix .s_inf
    found = []
    for path, tree in parsed_modules():
        allowed = set()
        for node in tree.body:
            if (path.name == "semistability.py" and isinstance(node, ast.FunctionDef)
                    and node.name == "_transient_bound"):
                allowed.update(id(inner) for inner in ast.walk(node))
        found += ["%s:%d .s_inf" % (path.name, node.lineno)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "s_inf"
                  and id(node) not in allowed]
    assert found == []
