"""Product twistor geometry over oriented Euclidean R^4 with Gray-Hervella class detection."""

from .fibre import (
    FibreAlgebraError,
    FibreVectorField,
    fibre_levi_civita,
    inner_G,
    kaehler_K,
    make_AB_basis,
    make_S_basis,
)
from .fourdim import (
    FourDimError,
    OrientedComplexStructure4,
    cross,
    hodge_star,
    j_to_sphere,
    sphere_to_J,
    split_pm,
    vertical_basis,
)
from .curvature import (
    CurvatureBlocks,
    CurvatureError,
    SchemaError,
    compose,
    coupling,
    curvature_endo,
    decompose,
    model,
)
from .tensors import (
    GTangent,
    Params,
    ProductTwistorPoint,
    TangencyError,
    VerticalVector,
    acs,
    codiff_omega,
    cov_deriv_omega,
    ext_deriv_omega,
    metric_Ht,
    nijenhuis_closed_form,
    omega,
    restriction_residuals,
)
from .classifier import ClassReport, SamplingConfig, classify, residual, verify_all, verify_theorem

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
