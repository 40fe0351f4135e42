"""Exact combinatorics of orthosymplectic Kostka polynomials and of
SO(N-1,O)-orbits on the affine Grassmannian of SO_N.

roots, moment, oddroots and kostka load with the package.  The names of
characters, euler and orbits, and those three submodules, load on first
use (PEP 562 ``__getattr__``), so a caller that never reads them never
imports them.  kostka has to stay eager: the package exports a function
named ``kostka``, and a first import of the submodule after the package
would rebind that name to the module.
"""

from importlib import import_module

from .roots import (
    EnumerationTooLargeError,
    GroupType,
    SignedPermutation,
    act,
    compose,
    dominant_weights,
    is_dominant,
    positive_roots,
    rho,
    sign,
    weyl_elements,
)
from .oddroots import (
    BiWeight,
    OspRootData,
    biweight,
    dominance_ge,
    dominance_ge_cone,
    odd_positive_roots,
    osp_root_data,
    shuffle,
    simple_odd_roots,
    simple_root_coordinates,
)
from .kostka import (
    QPoly,
    kostka,
    kostka_custom,
    kostka_degree,
    l_poly,
)
from .moment import (
    FormsSpec,
    adjoint,
    char_poly,
    moment_check,
    pfaffian,
    q0,
    q1,
    verify_char_identity,
    verify_fft_generators,
    verify_pfaffian_vanishing,
)

__version__ = "0.1.0"

# The lazy submodules and the names read from each.
_LAZY = {
    "characters": ("CharElt", "decompose", "dual_label", "irreducible_character", "outer",
                   "product", "weyl_dimension"),
    "euler": ("BrylReport", "bryl_lhs", "bryl_rhs", "euler_line", "verify_bryl"),
    "orbits": ("LatticeModel", "OrbitLabel", "SignatureSeq", "closure_le", "embed_signatures",
               "gl_bisignature_ge", "label_bisignature", "lattice_representative", "orbit_dim",
               "orbit_labels_in_box", "shuffled_alpha_beta", "stalk_poincare",
               "theta_signature"),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    # submodules
    "characters", "euler", "moment", "oddroots", "orbits", "roots",
    # roots
    "EnumerationTooLargeError", "GroupType", "SignedPermutation", "act", "compose",
    "dominant_weights", "is_dominant", "positive_roots", "rho", "sign", "weyl_elements",
    # oddroots
    "BiWeight", "OspRootData", "biweight", "dominance_ge", "dominance_ge_cone",
    "odd_positive_roots", "osp_root_data", "shuffle", "simple_odd_roots",
    "simple_root_coordinates",
    # kostka
    "QPoly", "kostka", "kostka_custom", "kostka_degree", "l_poly",
    # characters
    "CharElt", "decompose", "dual_label", "irreducible_character", "outer", "product",
    "weyl_dimension",
    # euler
    "BrylReport", "bryl_lhs", "bryl_rhs", "euler_line", "verify_bryl",
    # orbits
    "LatticeModel", "OrbitLabel", "SignatureSeq", "closure_le", "embed_signatures",
    "gl_bisignature_ge", "label_bisignature", "lattice_representative", "orbit_dim",
    "orbit_labels_in_box", "shuffled_alpha_beta", "stalk_poincare", "theta_signature",
    # moment
    "FormsSpec", "adjoint", "char_poly", "moment_check", "pfaffian", "q0", "q1",
    "verify_char_identity", "verify_fft_generators", "verify_pfaffian_vanishing",
]


def __getattr__(name):
    if name in _LAZY:
        # importing a submodule binds it in this namespace
        return import_module(f"{__name__}.{name}")
    if name not in _LAZY_OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_LAZY_OWNER[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
