"""Every module-level import in the package is used somewhere in its module,
the applications take no private operator helper but ``_derivative``, the
test oracles in ``reference.py`` import nothing from the package,
importing the command line does not import scipy or ``secrets``, no ``table1``,
``symbol`` or symbol ``transform`` run loads any part of scipy, the command line
imports no range check and nothing from ``special``, neither the command line
nor a ``table1`` or ``ifreq`` run loads ``concurrent.futures``, in the command line
only ``_execute`` creates a directory or writes or removes a file, only
``operators.py`` calls the real FFT pair or names numpy's private
``_pocketfft_umath`` kernels, and the functions the benchmark tracer
tallies keep the parameter names it binds."""

import ast
import importlib
import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "csit"


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that no expression and no
    ``__all__`` string refers to (``from __future__`` is exempt)."""
    tree = ast.parse(source)
    bound = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\n__all__ = ['f']\nnp.zeros(1)\n") == ["os"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("name", ["advection.py", "instfreq.py"])
def test_applications_take_only_the_scheme_map_from_operators(name):
    # the scheme name -> derivative decision lives in operators._derivative alone
    tree = ast.parse((PACKAGE / name).read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "operators"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == ["_derivative"]


# the calls that create a directory or write or remove a file
WRITERS = {"mkdir", "write", "write_table_csv", "atomic_write_text", "unlink"}


def writing_functions(source: str) -> set[str]:
    """The innermost function (or ``<module>``) around each call of a name or
    method in ``WRITERS``."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                callee = child.func
                name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
                if name in WRITERS:
                    found.add(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_checker_flags_each_writer():
    source = ("def a(p):\n    p.mkdir()\ndef b(f):\n    def inner():\n        f.write('x')\n"
              "def c(p):\n    write_table_csv(p, [], [])\natomic_write_text('p', '')\n")
    assert writing_functions(source) == {"a", "inner", "c", "<module>"}


def test_checker_flags_unlink():
    assert writing_functions("def d(p):\n    p.unlink(missing_ok=True)\n") == {"d"}


def test_only_execute_writes_in_the_command_line():
    # each subcommand's step computes every output first; _execute alone
    # creates the directory and writes, so a failed step leaves nothing behind
    assert writing_functions((PACKAGE / "cli.py").read_text()) == {"_execute"}


def real_fft_calls(source: str) -> list[str]:
    """The names of each called ``rfft`` or ``irfft``, bare or as an attribute."""
    return [
        node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("rfft", "irfft")
    ]


def test_checker_flags_each_real_fft_call():
    source = "np.fft.irfft(np.fft.rfft(v) * m, n)\nrfft(v)\nnp.fft.fft(v)\nf = np.fft.rfft\n"
    assert sorted(real_fft_calls(source)) == ["irfft", "rfft", "rfft"]


def test_only_operators_calls_the_real_fft_pair():
    # every k-diagonal route applies its symbol through operators._Operator
    callers = [path.name for path in sorted(PACKAGE.glob("*.py")) if real_fft_calls(path.read_text())]
    assert callers == ["operators.py"]


def private_fft_names(source: str) -> list[str]:
    """Each import of, or attribute access to, numpy's private
    ``_pocketfft_umath`` module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if "_pocketfft_umath" in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
            found += [name for name in names if "_pocketfft_umath" in name.split(".")]
        elif isinstance(node, ast.Attribute) and node.attr == "_pocketfft_umath":
            found.append(node.attr)
    return found


def test_checker_flags_each_private_fft_name():
    source = ("import numpy.fft._pocketfft_umath\nfrom numpy.fft import _pocketfft_umath as p\n"
              "from numpy.fft._pocketfft_umath import irfft\nnp.fft._pocketfft_umath.irfft\n"
              "from numpy.fft import _pocketfft\n")
    assert private_fft_names(source) == ["numpy.fft._pocketfft_umath", "_pocketfft_umath",
                                         "numpy.fft._pocketfft_umath", "_pocketfft_umath"]


def test_only_operators_names_the_private_fft_kernels():
    # numpy.fft._pocketfft_umath is private to numpy; one module takes it on
    callers = [path.name for path in sorted(PACKAGE.glob("*.py")) if private_fft_names(path.read_text())]
    assert callers == ["operators.py"]


def test_reference_imports_no_package_code():
    tree = ast.parse((Path(__file__).resolve().parent / "reference.py").read_text())
    modules = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    ] + [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[0] == "csit"] == []


def test_cli_runs_no_range_check_of_its_own():
    # the library checks each rectangle once, in the route that builds its
    # multiplier; the command line only keys the library's error
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert [name for name in names if name.startswith("_check") or name == "wavenumbers"] == []


def test_cli_imports_nothing_from_special():
    # symbol's overflow test is csit_symbol's own, not a second evaluation of shi
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    modules = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    ] + [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert [m for m in modules if m.split(".")[-1] == "special"] == []


def test_cli_import_loads_no_scipy():
    # numpy is the package's only runtime dependency
    code = "import sys, csit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_no_secrets():
    # a temp file's random name comes from os.urandom; secrets would load
    # hmac, base64 and the OpenSSL hash bindings on every cold start
    code = "import sys, csit.cli; print('secrets' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_symbol_runs_load_no_scipy(tmp_path):
    # shi and si are summed with numpy, so the routes that evaluate them
    # (table1's closed forms, the symbol table, the symbol transform) run
    # without any part of scipy
    n = 64
    rows = "".join(f"{2 * math.pi * j / n!r},{math.sin(2 * math.pi * j / n)!r}\n" for j in range(n))
    (tmp_path / "x.csv").write_text("x,value\n" + rows)
    code = (
        "import sys; from csit.cli import main; d = sys.argv[1]; "
        "rc = [main(['table1', '--out', d + '/t.csv']), main(['symbol', '--out', d + '/s.csv']), "
        "main(['transform', d + '/x.csv', '--mode', 'symbol', '--H', '0.05', '--Z', '0.05', "
        "'--out', d + '/o.csv'])]; "
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[0, 0, 0] []"


def test_cli_and_table1_load_no_concurrent_futures(tmp_path):
    # the direct quadrature runs its blocks on plain threads and if_csit runs
    # its eta rows inline, so start-up pays no cold import of
    # concurrent.futures
    code = (
        "import sys, csit.cli; cold = 'concurrent.futures' in sys.modules; "
        "rc_ifreq = csit.cli.main(['ifreq', '--demo', 'chirp', '--out', sys.argv[2]]); "
        "ifreq = 'concurrent.futures' in sys.modules; "
        "rc = csit.cli.main(['table1', '--out', sys.argv[1]]); "
        "print(rc_ifreq, rc, cold, ifreq, 'concurrent.futures' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "t.csv"), str(tmp_path / "f.csv")],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "0 0 False False False"


# the parameters that bench/tracer.py binds by name on each function it
# tallies; a rename would fail every traced benchmark run, so it fails here
TRACER_BINDS = {
    "io.write_table_csv": ("header", "columns"),
    "io.atomic_write_text": ("text",),
    "advection.run_advection": ("cfg",),
}


@pytest.mark.parametrize("name, params", sorted(TRACER_BINDS.items()), ids=sorted(TRACER_BINDS))
def test_traced_functions_keep_the_parameters_the_tracer_binds(name, params):
    module, function = name.split(".")
    signature = inspect.signature(getattr(importlib.import_module(f"csit.{module}"), function))
    assert set(params) <= set(signature.parameters)
