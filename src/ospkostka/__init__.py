"""Exact combinatorics of orthosymplectic Kostka polynomials and of
SO(N-1,O)-orbits on the affine Grassmannian of SO_N."""

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
    RootSet,
    kostka,
    kostka_custom,
    l_poly,
)
from .characters import (
    CharElt,
    decompose,
    dual_label,
    irreducible_character,
    outer,
    product,
    weyl_dimension,
)
from .euler import BrylReport, bryl_lhs, bryl_rhs, euler_line, verify_bryl
from .orbits import (
    LatticeModel,
    OrbitLabel,
    SignatureSeq,
    closure_le,
    embed_signatures,
    gl_bisignature_ge,
    label_bisignature,
    lattice_representative,
    orbit_dim,
    orbit_labels_in_box,
    shuffled_alpha_beta,
    stalk_poincare,
    theta_signature,
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
