"""Checked references for the metric H_t and the almost complex structure Jn
on tangents of the product twistor space, for the tests of the frame tensor,
its frame and the classifier's contractions."""

from twistorgh.tensors import (
    GTangent,
    Params,
    ProductTwistorPoint,
    _acs_unchecked,
    _metric,
    check_gtangent,
)


def metric_Ht(p: ProductTwistorPoint, a: GTangent, b: GTangent, params: Params) -> float:
    check_gtangent(p, a)
    check_gtangent(p, b)
    return _metric(params, a, b)


def acs(p: ProductTwistorPoint, a: GTangent, params: Params) -> GTangent:
    """Almost complex structure Jn: horizontal part by J1, vertical by Kn."""
    check_gtangent(p, a)
    return _acs_unchecked(p, params, a)
