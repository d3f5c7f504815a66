"""Finite strict higher categories presented by tables: a word calculus for
cellular extensions, elementary movements with bounded equivalence search,
discrete lifting checks for functors, polygraph basis verification, and the
slice and pullback constructions that feed them."""

from .categories import (
    OmegaFunctor,
    PresentedCategory,
    compose_functors,
    composable_pair,
    globe,
    identity_functor,
    inflate,
    truncate,
    validate_category,
    validate_functor,
)
from .conduche import (
    ExtensionMorphism,
    check_conduche,
    check_fiber_bijection,
    check_kappa,
    check_nabla,
    fiber_conduche,
    is_rigid,
    lift_movement,
)
from .constructions import pullback, slice_1cat
from .errors import PolyconducheError
from .movements import (
    ElementaryMovement,
    SearchBounds,
    apply_movement,
    enumerate_movements,
    equivalent,
    extend_functor,
    reduce,
)
from .polygraphs import (
    check_basis,
    check_free,
    image_basis,
    indecomposables,
    transfer_basis,
)
from .terms import CellularExtension, Term, check_term, enumerate_terms, evaluate

__version__ = "0.1.0"

__all__ = [
    "CellularExtension",
    "ElementaryMovement",
    "ExtensionMorphism",
    "OmegaFunctor",
    "PolyconducheError",
    "PresentedCategory",
    "SearchBounds",
    "Term",
    "apply_movement",
    "check_basis",
    "check_conduche",
    "check_fiber_bijection",
    "check_free",
    "check_kappa",
    "check_nabla",
    "check_term",
    "composable_pair",
    "compose_functors",
    "enumerate_movements",
    "enumerate_terms",
    "equivalent",
    "evaluate",
    "extend_functor",
    "fiber_conduche",
    "globe",
    "identity_functor",
    "image_basis",
    "indecomposables",
    "inflate",
    "is_rigid",
    "lift_movement",
    "pullback",
    "reduce",
    "slice_1cat",
    "transfer_basis",
    "truncate",
    "validate_category",
    "validate_functor",
]
