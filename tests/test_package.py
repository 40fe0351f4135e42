"""The package namespace: names from characters, euler and orbits load on
first use, and every name the package exported when it imported all its
submodules eagerly still resolves to the same object."""

import importlib
import os
import subprocess
import sys

import pytest

import ospkostka

# Every public name of the package when it imported all seven submodules
# eagerly, by the submodule that defines it.  `kostka` is the function.
EXPORTED = {
    "roots": ("EnumerationTooLargeError GroupType SignedPermutation act compose "
              "dominant_weights is_dominant positive_roots rho sign weyl_elements"),
    "oddroots": ("BiWeight OspRootData biweight dominance_ge dominance_ge_cone "
                 "odd_positive_roots osp_root_data shuffle simple_odd_roots "
                 "simple_root_coordinates"),
    "kostka": "QPoly kostka kostka_custom kostka_degree l_poly",
    "characters": ("CharElt decompose dual_label irreducible_character outer product "
                   "weyl_dimension"),
    "euler": "BrylReport bryl_lhs bryl_rhs euler_line verify_bryl",
    "orbits": ("LatticeModel OrbitLabel SignatureSeq closure_le embed_signatures "
               "gl_bisignature_ge label_bisignature lattice_representative orbit_dim "
               "orbit_labels_in_box shuffled_alpha_beta stalk_poincare theta_signature"),
    "moment": ("FormsSpec adjoint char_poly moment_check pfaffian q0 q1 "
               "verify_char_identity verify_fft_generators verify_pfaffian_vanishing"),
}
SUBMODULES = ("characters", "euler", "moment", "oddroots", "orbits", "roots")
PUBLIC = {*SUBMODULES, *(name for names in EXPORTED.values() for name in names.split())}
LAZY = ("characters", "euler", "orbits")


def run_fresh(code):
    """Run `code` in a fresh interpreter; its stdout."""
    package_root = os.path.dirname(os.path.dirname(ospkostka.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_lists_the_eager_namespace():
    assert sorted(ospkostka.__all__) == sorted(PUBLIC)
    assert len(ospkostka.__all__) == len(PUBLIC)


def test_every_exported_name_is_its_module_attribute():
    """In a fresh interpreter, so the lazy names resolve through the
    package's __getattr__ and not through a submodule loaded earlier."""
    out = run_fresh(
        "import importlib, ospkostka\n"
        f"for module, names in {EXPORTED!r}.items():\n"
        "    owner = importlib.import_module('ospkostka.' + module)\n"
        "    for name in names.split():\n"
        "        if getattr(ospkostka, name) is not getattr(owner, name):\n"
        "            print(name)\n"
        f"for module in {SUBMODULES!r}:\n"
        "    if getattr(ospkostka, module) is not importlib.import_module('ospkostka.' + module):\n"
        "        print(module)\n"
    )
    assert out == ""
    for module, names in EXPORTED.items():
        owner = importlib.import_module(f"ospkostka.{module}")
        for name in names.split():
            assert getattr(ospkostka, name) is getattr(owner, name), name


def test_bare_import_loads_no_lazy_layer_until_used():
    out = run_fresh(
        "import sys, ospkostka\n"
        f"print(*[m for m in {LAZY!r} if 'ospkostka.' + m in sys.modules])\n"
        f"print(*[type(getattr(ospkostka, m)).__name__ for m in {LAZY!r}])\n"
        f"print(*[m for m in {LAZY!r} if 'ospkostka.' + m in sys.modules])\n"
    )
    assert out.splitlines() == ["", "module module module", "characters euler orbits"]


def test_kostka_stays_the_function_after_importing_the_submodule():
    out = run_fresh(
        "import ospkostka, ospkostka.kostka, ospkostka.orbits\n"
        "from ospkostka import euler\n"
        "print(callable(ospkostka.kostka), type(ospkostka.kostka).__name__)\n"
    )
    assert out == "True function\n"


def test_star_import_binds_every_name_and_dir_lists_them():
    out = run_fresh(
        "import ospkostka\n"
        "listed = set(dir(ospkostka))\n"
        "from ospkostka import *\n"
        "print(sorted(n for n in ospkostka.__all__ if n not in globals()))\n"
        "print(sorted(n for n in ospkostka.__all__ if n not in listed))\n"
    )
    assert out == "[]\n[]\n"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        ospkostka.no_such_name
    assert not hasattr(ospkostka, "cli_main")
    with pytest.raises(ImportError):
        exec("from ospkostka import no_such_name", {})
