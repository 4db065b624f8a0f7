"""Algebraic curvature operators on two-vectors of R^4.

An operator is a symmetric 6x6 matrix in the global s-basis.  It decomposes
into blocks

    R = (s/12) Id + B + W+ + W-

where s = 2 trace(R) is the scalar part, W+/W- act inside the self-dual /
anti-self-dual halves (traceless for genuine Weyl blocks), and B is the
traceless-Ricci block exchanging the two halves.  Operators whose W blocks
fail tracelessness are accepted and marked non-strict: several classification
witnesses require R to annihilate one half entirely, which forces
W- = -(s/12) Id.

Sign convention of ``curvature_endo``: r is the skew endomorphism of
R(x ^ y), and the curvature of the induced connection on skew endomorphisms
acts as a -> [r, a], so that G([r, a], b) = <R([a, b]^), x ^ y>; the
curvature-commutator oracle of ``selftest`` checks this identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .fourdim import endo_of_two_vector, wedge_of_pair

#: symmetry tolerance, relative to max(1, max|entry|), so roundoff in large
#: entries is not read as asymmetry
SYM_TOL = 1e-12
#: Weyl-trace tolerance of ``strict``, relative to max(1, max|entry|) like SYM_TOL
WEYL_TRACE_TOL = 1e-10
#: size of a ``perturbed`` block's noise, relative to max(1, |R|_F)
PERTURBATION_REL = 0.1


class CurvatureError(ValueError):
    """Invalid curvature data (asymmetry, bad blocks, bad model parameters)."""


class SchemaError(CurvatureError):
    """Malformed curvature-operator document."""


def _sym_bound(m: np.ndarray) -> np.ndarray:
    """SYM_TOL * max(1, max|m|) over the last two axes: one bound per matrix of a stack."""
    return SYM_TOL * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))


def check_operator(mat, stacked: bool = False) -> np.ndarray:
    """One operator, or with ``stacked`` operators along leading axes, each
    checked against its own magnitude."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape[-2:] != (6, 6) or (mat.ndim != 2 and not stacked):
        raise CurvatureError(f"curvature operator must be 6x6, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise CurvatureError("curvature operator has non-finite entries")
    err = np.abs(mat - np.swapaxes(mat, -1, -2)).max(axis=(-2, -1))
    if (err > _sym_bound(mat)).any():
        raise CurvatureError(
            f"curvature operator is not symmetric: max|R - R^T| = {np.max(err):.3e}")
    return mat


@dataclass(frozen=True)
class CurvatureBlocks:
    """Block data (s, B, W+, W-); ``strict`` records Weyl tracelessness."""

    s: float
    B: np.ndarray
    Wplus: np.ndarray
    Wminus: np.ndarray
    strict: bool


def decompose(mat) -> CurvatureBlocks:
    """Split a symmetric operator into (s, B, W+, W-).

    Contract: top-left block = (s/12) Id + W+, bottom-right = (s/12) Id + W-,
    bottom-left = B (the half-exchanging block; top-right is its transpose),
    with s = 2 trace.  ``strict`` iff both |trace W| <= 1e-10 max(1, max|R|).
    Finite entries whose scalar part or Weyl traces overflow raise CurvatureError.
    """
    mat = check_operator(mat)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is reported below
        s = 2.0 * float(np.trace(mat))
        scalar = (s / 12.0) * np.eye(3)
        wplus = mat[:3, :3] - scalar
        wminus = mat[3:, 3:] - scalar
        traces = np.abs([np.trace(wplus), np.trace(wminus)])
    if not (np.isfinite(s) and np.isfinite(traces).all()):
        raise CurvatureError(f"curvature operator overflows: its scalar part s = 2 trace(R) "
                             f"or a Weyl trace is not finite (s = {s})")
    b = mat[3:, :3]
    bound = WEYL_TRACE_TOL * max(1.0, float(np.abs(mat).max()))
    strict = bool((traces <= bound).all())
    return CurvatureBlocks(s=s, B=b, Wplus=wplus, Wminus=wminus, strict=strict)


def _check_block(m, name: str, symmetric: bool) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise CurvatureError(f"block {name!r} must be 3x3, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise CurvatureError(f"block {name!r} has non-finite entries")
    if symmetric and float(np.max(np.abs(m - m.T))) > _sym_bound(m):
        raise CurvatureError(f"block {name!r} must be symmetric")
    return m


def compose(s: float = 0.0, B=None, Wplus=None, Wminus=None) -> np.ndarray:
    """Assemble the 6x6 operator from blocks; inverse of :func:`decompose`."""
    b = _check_block(np.zeros((3, 3)) if B is None else B, "B", symmetric=False)
    wp = _check_block(np.zeros((3, 3)) if Wplus is None else Wplus, "Wplus", symmetric=True)
    wm = _check_block(np.zeros((3, 3)) if Wminus is None else Wminus, "Wminus", symmetric=True)
    s = float(s)
    if not np.isfinite(s):
        raise CurvatureError(f"scalar part s must be finite, got {s}")
    scalar = (s / 12.0) * np.eye(3)
    mat = np.zeros((6, 6))
    with np.errstate(over="ignore"):  # overflow is reported below
        mat[:3, :3] = scalar + wp
        mat[3:, 3:] = scalar + wm
    if not np.all(np.isfinite(mat)):
        raise CurvatureError("curvature operator overflows: (s/12) Id + W is not finite")
    mat[3:, :3] = b
    mat[:3, 3:] = b.T
    return mat


# --- model constructors ------------------------------------------------------

def _annihilate_minus(s: float) -> np.ndarray:
    # (s/12) Id on the self-dual half, zero on the anti-self-dual half;
    # equivalently Wminus = -(s/12) Id, which is deliberately non-strict.
    return compose(s=s, Wminus=-(float(s) / 12.0) * np.eye(3))


MODEL_SPECS: dict[str, tuple[tuple[str, ...], str]] = {
    "flat": ((), "zero operator"),
    "constant_curvature": (("s",), "(s/12) Id on all two-vectors"),
    "asd_ricci_flat": (("Wminus",), "s = 0, B = 0, W+ = 0, given W-"),
    "einstein_asd": (("s", "Wminus"), "B = 0, W+ = 0"),
    "asd_general": (("s", "B", "Wminus"), "W+ = 0"),
    "kaehler_witness": (("s",), "(s/12) Id on the self-dual half, zero on the other (non-strict); pairs with t1 = 6/s"),
    "w1_witness": (("s",), "same operator as kaehler_witness; pairs with t1 = 3/s"),
    "w2_witness": (("s",), "same operator, s < 0 required; pairs with t1 = -6/s"),
}


def model(name: str, **params) -> np.ndarray:
    """Build a named curvature operator; see MODEL_SPECS for parameters."""
    if name not in MODEL_SPECS:
        raise CurvatureError(f"unknown model {name!r}; known: {', '.join(sorted(MODEL_SPECS))}")
    allowed = set(MODEL_SPECS[name][0])
    extra = set(params) - allowed
    if extra:
        hint = ""
        if "B" in extra and name in ("einstein_asd", "asd_ricci_flat"):
            hint = " (Einstein models have B = 0 by definition)"
        raise CurvatureError(f"model {name!r} does not accept {sorted(extra)}{hint}")
    missing = allowed - set(params)
    if missing:
        raise CurvatureError(f"model {name!r} requires {sorted(missing)}")
    # before any arithmetic: inf * 0 in the witnesses' blocks would warn, and a NaN
    # scalar would pass the sign check of w2_witness
    if "s" in params and not np.isfinite(float(params["s"])):
        raise CurvatureError(f"model {name!r} requires a finite s, got {params['s']}")

    if name == "flat":
        return np.zeros((6, 6))
    if name == "constant_curvature":
        return (float(params["s"]) / 12.0) * np.eye(6)
    if name == "asd_ricci_flat":
        return compose(s=0.0, Wminus=params["Wminus"])
    if name == "einstein_asd":
        return compose(s=float(params["s"]), Wminus=params["Wminus"])
    if name == "asd_general":
        return compose(s=float(params["s"]), B=params["B"], Wminus=params["Wminus"])
    if name == "kaehler_witness" or name == "w1_witness":
        return _annihilate_minus(float(params["s"]))
    if name == "w2_witness":
        s = float(params["s"])
        if s >= 0.0:
            raise CurvatureError(f"w2_witness requires s < 0, got s = {s}")
        return _annihilate_minus(s)
    raise AssertionError(name)


# --- curvature endomorphisms -------------------------------------------------

def curvature_endo(mat, x, y) -> np.ndarray:
    """The skew endomorphism r with g(r z, t) = <R(x ^ y), z ^ t>; operators
    (..., 6, 6) and vectors stacked along leading axes broadcast."""
    mat = check_operator(mat, stacked=True)
    return endo_of_two_vector((mat @ wedge_of_pair(x, y)[..., None])[..., 0])


# --- serialization -----------------------------------------------------------

def to_json_dict(mat) -> dict:
    """Emit both the raw matrix and the block form."""
    blocks = decompose(mat)
    return {
        "matrix": np.asarray(mat, dtype=float).tolist(),
        "blocks": {
            "s": blocks.s,
            "B": blocks.B.tolist(),
            "Wplus": blocks.Wplus.tolist(),
            "Wminus": blocks.Wminus.tolist(),
            "strict": blocks.strict,
        },
    }


def _is_number(x) -> bool:
    """A JSON number: ``true`` and ``false`` load as bools, which Python counts
    as integers, and numpy would read them and numeric strings as numbers."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _field_matrix(doc: dict, key: str, shape: tuple[int, int]) -> np.ndarray:
    try:  # OverflowError: an integer beyond the float range
        m = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"field {key!r} is not a numeric matrix: {exc}") from None
    if m.shape != shape:
        raise SchemaError(f"field {key!r} must have shape {shape}, got {m.shape}")
    if not all(_is_number(x) for row in doc[key] for x in row):
        raise SchemaError(f"field {key!r} must hold numbers, not booleans or strings")
    return m


def _from_blocks(blocks) -> np.ndarray:
    """The operator of a block form.  Malformed fields are a SchemaError; a
    non-finite or asymmetric block is the CurvatureError of :func:`compose`."""
    if not isinstance(blocks, dict):
        raise SchemaError("field 'blocks' must be a JSON object")
    known = {"s", "B", "Wplus", "Wminus", "strict"}
    unknown = set(blocks) - known
    if unknown:
        raise SchemaError(f"unknown field(s) in 'blocks': {sorted(unknown)}")
    s = blocks.get("s", 0.0)
    if not _is_number(s):
        raise SchemaError("field 'blocks.s' must be a number")
    if not isinstance(blocks.get("strict", False), bool):
        raise SchemaError("field 'blocks.strict' must be true or false")
    def block_of(key):
        if key not in blocks:
            return np.zeros((3, 3))
        return _field_matrix(blocks, key, (3, 3))
    try:
        return compose(s=s, B=block_of("B"), Wplus=block_of("Wplus"), Wminus=block_of("Wminus"))
    except OverflowError as exc:  # an integer s beyond the float range
        raise SchemaError(f"invalid 'blocks': {exc}") from None


def from_json_dict(doc) -> np.ndarray:
    """Read an operator document holding "matrix", "blocks", or both.

    With both present the matrix wins after a consistency check against the
    assembled blocks.  A ``blocks.strict`` flag must agree with the
    decomposition of the operator read.
    """
    if not isinstance(doc, dict):
        raise SchemaError("curvature document must be a JSON object")
    has_matrix = "matrix" in doc
    has_blocks = "blocks" in doc
    if not (has_matrix or has_blocks):
        raise SchemaError("curvature document must contain 'matrix' or 'blocks'")
    if has_matrix:
        mat = check_operator(_field_matrix(doc, "matrix", (6, 6)))
        if has_blocks:
            try:
                from_blocks = _from_blocks(doc["blocks"])
            except SchemaError:
                raise
            except CurvatureError as exc:  # blocks that cannot describe the finite matrix
                raise SchemaError(f"invalid 'blocks': {exc}") from None
            # relative, like _sym_bound: the blocks carry roundoff of the entries
            bound = 1e-9 * max(1.0, float(np.abs(mat).max()))
            if not float(np.max(np.abs(mat - from_blocks))) <= bound:
                raise SchemaError("fields 'matrix' and 'blocks' describe different operators")
    else:
        mat = _from_blocks(doc["blocks"])
    claimed = doc["blocks"].get("strict") if has_blocks else None
    if claimed is not None and claimed != decompose(mat).strict:
        raise SchemaError(f"field 'blocks.strict' is {json.dumps(claimed)}, but the operator's "
                          f"Weyl blocks give strict = {json.dumps(not claimed)}")
    return mat


def read_json(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return from_json_dict(doc)


def write_json(mat, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(mat), fh, indent=2)
        fh.write("\n")


# --- helpers for tests and the verification suite ----------------------------

def swap_halves(mat) -> np.ndarray:
    """Conjugate by the block swap of the two halves (orientation reversal)."""
    mat = check_operator(mat)
    p = np.zeros((6, 6))
    p[:3, 3:] = np.eye(3)
    p[3:, :3] = np.eye(3)
    return p @ mat @ p


def _traceless_symmetric_part(a) -> np.ndarray:
    """(a + a^T)/2 minus its trace part, for 3x3 matrices along leading axes."""
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    a -= (np.trace(a, axis1=-2, axis2=-1) / 3.0)[..., None, None] * np.eye(3)
    return a


def random_traceless_symmetric(rng, scale: float = 1.0) -> np.ndarray:
    return scale * _traceless_symmetric_part(rng.standard_normal((3, 3)))


#: normals per strict operator: s, then B, W+ and W- row-major
STRICT_NORMALS = 28


def strict_operators(normals, scale: float = 1.0) -> np.ndarray:
    """Strict operators from rows of 28 normals, one (6, 6) per row along the
    leading axes: s = 12 scale z[0], B = scale z[1:10], and W+, W- the
    traceless symmetric parts of z[10:19], z[19:28] times scale.

    The blocks are valid by construction, so none is checked; the arithmetic
    is that of :func:`compose`, so a row gives the same bits as one
    :func:`random_strict_operator` draw of those normals.
    """
    z = np.asarray(normals, dtype=float)
    if z.shape[-1:] != (STRICT_NORMALS,):
        raise CurvatureError(f"expected rows of {STRICT_NORMALS} normals, got shape {z.shape}")
    lead = z.shape[:-1]
    b, wp, wm = (z[..., 1 + 9 * k:10 + 9 * k].reshape(lead + (3, 3)) for k in range(3))
    # s / 12 with s = scale 12 z[0], rounded as compose rounds it
    scalar = ((scale * 12.0 * z[..., 0]) / 12.0)[..., None, None] * np.eye(3)
    mat = np.empty(lead + (6, 6))
    mat[..., :3, :3] = scalar + scale * _traceless_symmetric_part(wp)
    mat[..., 3:, 3:] = scalar + scale * _traceless_symmetric_part(wm)
    mat[..., 3:, :3] = scale * b
    mat[..., :3, 3:] = np.swapaxes(mat[..., 3:, :3], -1, -2)
    return mat


def random_strict_operator(rng, scale: float = 1.0) -> np.ndarray:
    """A random strict operator: one draw of 28 normals through
    :func:`strict_operators`, the stream of a scalar normal and three (3, 3)
    draws for s, B, W+ and W- in turn."""
    return strict_operators(rng.standard_normal(STRICT_NORMALS), scale)


def perturbed(mat, kind: str, rng) -> np.ndarray:
    """Add noise of relative size ``PERTURBATION_REL`` to one hypothesis block."""
    blocks = decompose(mat)
    base = max(float(np.linalg.norm(mat)), 1.0)
    if kind == "Wplus":
        noise = random_traceless_symmetric(rng)
        noise *= PERTURBATION_REL * base / max(float(np.linalg.norm(noise)), 1e-12)
        return compose(blocks.s, blocks.B, blocks.Wplus + noise, blocks.Wminus)
    if kind == "B":
        noise = rng.standard_normal((3, 3))
        noise *= PERTURBATION_REL * base / max(float(np.linalg.norm(noise)), 1e-12)
        return compose(blocks.s, blocks.B + noise, blocks.Wplus, blocks.Wminus)
    raise CurvatureError(f"unknown perturbation kind {kind!r}")
