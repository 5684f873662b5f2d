"""tpskit: tensor product structures, operator-algebra commutants, and
observable-relative separability on finite-dimensional complex spaces."""

from .algebra import (
    OperatorAlgebra,
    TppVerdict,
    algebra_generate,
    commutant,
    is_tpp,
    join,
    span_equal,
    tpp_to_tps,
    tps_to_tpp,
)
from .core import Tolerance, numeric_rank
from .errors import TpskitError
from .observables import (
    CharacteristicSets,
    ObservablePair,
    complementary_pair,
    observable_pair,
    tpp_from_complementary,
    tps_from_observables,
    verify_complementary,
    verify_standard_complete,
)
from .poly import (
    PolyState,
    change_of_variables,
    deformed_poly_tps,
    poly_state,
    poly_tps,
)
from .refactor import (
    dual_verdict,
    tps_making_basis_product,
    tps_making_state_entangled,
    tps_making_state_product,
)
from .tps import (
    EquivalenceVerdict,
    SchmidtReport,
    Tps,
    coefficient_matrix,
    coefficient_schmidt,
    god_given,
    is_inner_product_compatible,
    is_product,
    schmidt,
    swap_factors,
    tps_equivalent,
    tps_new,
)

__version__ = "0.1.0"
