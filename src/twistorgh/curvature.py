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

Matrices from outside are checked where they enter, by ``check_operator``
(shape, finite entries, symmetry of R, W+ and W-); operators built from
checked blocks or from normals are not checked again.

Sign convention of ``curvature_endo``: r is the skew endomorphism of
R(x ^ y), and the curvature of the induced connection on skew endomorphisms
acts as a -> [r, a], so that G([r, a], b) = <R([a, b]^), x ^ y>; the
curvature-commutator oracle of ``selftest`` checks this identity.
"""

from __future__ import annotations

import json
from collections.abc import Callable
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


def check_operator(m, name: str = "curvature operator", size: int = 6,
                   symmetric: bool = True) -> np.ndarray:
    """``m`` as a float size x size matrix, finite and, if ``symmetric``, symmetric
    within SYM_TOL * max(1, max|m|): R, W+ and W- are; the block B is not."""
    m = np.asarray(m, dtype=float)
    if m.shape != (size, size):
        raise CurvatureError(f"{name} must be {size}x{size}, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise CurvatureError(f"{name} has non-finite entries")
    if symmetric:
        with np.errstate(over="ignore"):  # entries near the float limit: err = inf, asymmetric
            err = float(np.max(np.abs(m - m.T)))
        if err > SYM_TOL * max(1.0, float(np.abs(m).max())):
            raise CurvatureError(f"{name} is not symmetric: max|R - R^T| = {err:.3e}")
    return m


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


def _assemble(s, b, wp, wm) -> np.ndarray:
    """(s/12) Id + B + W+ + W-: one 6x6 operator per entry of the leading axes
    of the scalar parts s and of the blocks (..., 3, 3), which all share them."""
    scalar = (np.asarray(s) / 12.0)[..., None, None] * np.eye(3)
    mat = np.empty(b.shape[:-2] + (6, 6))
    mat[..., :3, :3] = scalar + wp
    mat[..., 3:, 3:] = scalar + wm
    mat[..., 3:, :3] = b
    mat[..., :3, 3:] = np.swapaxes(mat[..., 3:, :3], -1, -2)
    return mat


def compose(s: float = 0.0, B=None, Wplus=None, Wminus=None) -> np.ndarray:
    """Assemble the 6x6 operator from blocks; inverse of :func:`decompose`."""
    b = check_operator(np.zeros((3, 3)) if B is None else B, "block 'B'", 3, symmetric=False)
    wp = check_operator(np.zeros((3, 3)) if Wplus is None else Wplus, "block 'Wplus'", 3)
    wm = check_operator(np.zeros((3, 3)) if Wminus is None else Wminus, "block 'Wminus'", 3)
    s = _scalar(s)
    with np.errstate(over="ignore"):  # overflow is reported below
        mat = _assemble(s, b, wp, wm)
    if not np.all(np.isfinite(mat)):
        raise CurvatureError("curvature operator overflows: (s/12) Id + W is not finite")
    return mat


# --- model constructors ------------------------------------------------------

def _scalar(s) -> float:
    """``s`` as a float if it is a number (:func:`_numbers`), finite and, if an
    integer, within the float range; else a CurvatureError, before any arithmetic
    (inf * 0 would warn, and a NaN would pass w2_witness's sign check)."""
    if not _numbers((s,)):
        raise CurvatureError(f"scalar part s must be a number, got {s!r}")
    try:
        value = float(s)
    except OverflowError:
        raise CurvatureError("scalar part s must be finite, got an integer beyond "
                             "the float range") from None
    if not np.isfinite(value):
        raise CurvatureError(f"scalar part s must be finite, got {value}")
    return value


def _annihilate_minus(s: float) -> np.ndarray:
    # (s/12) Id on the self-dual half, zero on the anti-self-dual half;
    # equivalently Wminus = -(s/12) Id, which is deliberately non-strict.
    return compose(s=s, Wminus=-(s / 12.0) * np.eye(3))


def _w2_witness(s: float) -> np.ndarray:
    if s >= 0.0:
        raise CurvatureError(f"w2_witness requires s < 0, got s = {s}")
    return _annihilate_minus(s)


#: name -> (parameters, builder, description).  ``model`` passes the builder
#: exactly these parameters; ``compose`` leaves the blocks not listed zero.
MODEL_SPECS: dict[str, tuple[tuple[str, ...], Callable[..., np.ndarray], str]] = {
    "flat": ((), lambda: np.zeros((6, 6)), "zero operator"),
    "constant_curvature": (("s",), lambda s: (s / 12.0) * np.eye(6),
                           "(s/12) Id on all two-vectors"),
    "asd_ricci_flat": (("Wminus",), compose, "s = 0, B = 0, W+ = 0, given W-"),
    "einstein_asd": (("s", "Wminus"), compose, "B = 0, W+ = 0"),
    "asd_general": (("s", "B", "Wminus"), compose, "W+ = 0"),
    "kaehler_witness": (("s",), _annihilate_minus, "(s/12) Id on the self-dual half, zero on "
                        "the other (non-strict); pairs with t1 = 6/s"),
    "w1_witness": (("s",), _annihilate_minus,
                   "same operator as kaehler_witness; pairs with t1 = 3/s"),
    "w2_witness": (("s",), _w2_witness, "same operator, s < 0 required; pairs with t1 = -6/s"),
}


def model(name: str, **params) -> np.ndarray:
    """The operator of a model of MODEL_SPECS from exactly its parameters: an
    unknown name or another set of parameters is a SchemaError, a bad ``s``
    (see :func:`_scalar`) or a bad block a CurvatureError."""
    if name not in MODEL_SPECS:
        raise SchemaError(f"unknown model {name!r}; known: {', '.join(sorted(MODEL_SPECS))}")
    names, build, _ = MODEL_SPECS[name]
    if set(params) != set(names):
        extra_b = "B" in set(params) - set(names)
        hint = " (Einstein models have B = 0 by definition)" if extra_b else ""
        raise SchemaError(f"model {name!r} requires {', '.join(names) or 'no parameters'}, "
                          f"got {', '.join(sorted(params)) or 'none'}{hint}")
    if "s" in params:
        params["s"] = _scalar(params["s"])
    return build(**params)


# --- curvature endomorphisms -------------------------------------------------

def curvature_endo(mat, x, y) -> np.ndarray:
    """The skew endomorphism r with g(r z, t) = <R(x ^ y), z ^ t>; operators
    (..., 6, 6) and vectors stacked along leading axes broadcast.  The
    operators are taken as given: their callers build them symmetric."""
    return endo_of_two_vector((mat @ wedge_of_pair(x, y)[..., None])[..., 0])


# --- serialization -----------------------------------------------------------

#: the numeric fields of the block form, in the writer's order; shape () is a number
BLOCK_FIELDS = {"s": (), "B": (3, 3), "Wplus": (3, 3), "Wminus": (3, 3)}


def to_json_dict(mat) -> dict:
    """Emit both the raw matrix and the block form."""
    blocks = decompose(mat)
    form = {key: np.asarray(getattr(blocks, key)).tolist() for key in BLOCK_FIELDS}
    return {"matrix": np.asarray(mat, dtype=float).tolist(),
            "blocks": {**form, "strict": blocks.strict}}


def _numbers(values) -> bool:
    """Whether each value is a Python or numpy integer or float, and not a bool:
    JSON's ``true`` and ``false`` load as bools, which Python counts as integers,
    and ``float`` and numpy would read them and numeric strings as numbers."""
    return all(issubclass(kind, (int, float, np.integer, np.floating))
               and not issubclass(kind, bool) for kind in set(map(type, values)))


def _field(value, name: str, shape: tuple[int, ...]) -> float | np.ndarray:
    """The field ``name`` of a document as a float (shape ()) or a float array:
    lists nested to exactly ``shape`` around numbers (:func:`_numbers`), checked
    level by level before numpy sees them, so ragged lists fail alike on every
    numpy.  Anything else, or an integer beyond the float range, is a SchemaError."""
    entries = [value]
    for size in shape:
        if not all(isinstance(e, list) and len(e) == size for e in entries):
            raise SchemaError(f"field {name!r} must be a {'x'.join(map(str, shape))} matrix")
        entries = [x for e in entries for x in e]
    if not _numbers(entries):
        raise SchemaError(f"field {name!r} must hold numbers, not booleans, strings or lists"
                          if shape else f"field {name!r} must be a number")
    try:
        return np.array(entries, dtype=float).reshape(shape) if shape else float(value)
    except OverflowError:
        raise SchemaError(f"field {name!r} holds an integer beyond the float range") from None


def _from_blocks(blocks) -> np.ndarray:
    """The operator of a block form; ``compose`` fills in the missing fields.
    Malformed fields are a SchemaError; a non-finite or asymmetric block is the
    CurvatureError of :func:`compose`."""
    if not isinstance(blocks, dict):
        raise SchemaError("field 'blocks' must be a JSON object")
    unknown = set(blocks) - set(BLOCK_FIELDS) - {"strict"}
    if unknown:
        raise SchemaError(f"unknown field(s) in 'blocks': {sorted(unknown)}")
    if not isinstance(blocks.get("strict", False), bool):
        raise SchemaError("field 'blocks.strict' must be true or false")
    return compose(**{key: _field(value, f"blocks.{key}", BLOCK_FIELDS[key])
                      for key, value in blocks.items() if key != "strict"})


def from_json_dict(doc) -> np.ndarray:
    """Read an operator document holding "matrix", "blocks", or both, and nothing else.

    With both present the matrix wins after a consistency check against the
    assembled blocks.  A ``blocks.strict`` flag must agree with the
    decomposition of the operator read.
    """
    if not isinstance(doc, dict):
        raise SchemaError("curvature document must be a JSON object")
    if not doc or set(doc) - {"matrix", "blocks"}:
        raise SchemaError("curvature document must contain 'matrix' or 'blocks' and no other "
                          f"field, got {sorted(doc)}")
    if "matrix" not in doc:
        mat = _from_blocks(doc["blocks"])
    else:
        mat = check_operator(_field(doc["matrix"], "matrix", (6, 6)))
        if "blocks" not in doc:
            return mat
        try:
            from_blocks = _from_blocks(doc["blocks"])
        except SchemaError:
            raise
        except CurvatureError as exc:  # blocks that cannot describe the finite matrix
            raise SchemaError(f"invalid 'blocks': {exc}") from None
        # relative, like SYM_TOL: the blocks carry roundoff of the entries; two
        # finite operators near the float limit differ by inf, which is no match
        bound = 1e-9 * max(1.0, float(np.abs(mat).max()))
        with np.errstate(over="ignore"):
            gap = float(np.max(np.abs(mat - from_blocks)))
        if not gap <= bound:
            raise SchemaError("fields 'matrix' and 'blocks' describe different operators")
    claimed = doc["blocks"].get("strict")
    if claimed is not None and claimed != decompose(mat).strict:
        raise SchemaError(f"field 'blocks.strict' is {json.dumps(claimed)}, but the operator's "
                          f"Weyl blocks give strict = {json.dumps(not claimed)}")
    return mat


def read_json(path) -> np.ndarray:
    """The operator of the document at ``path``.  A document the decoder refuses
    is a SchemaError: malformed, nested past its recursion limit, or holding an
    integer literal past Python's digit limit."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"malformed JSON in {str(path)!r}: {exc}") from None
    return from_json_dict(doc)


def write_json(mat, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(to_json_dict(mat), indent=2) + "\n")


# --- helpers for tests and the verification suite ----------------------------

def swap_halves(mat) -> np.ndarray:
    """Conjugate by the block swap of the two halves (orientation reversal): rows
    and columns in the order (3, 4, 5, 0, 1, 2).  The operator is taken as given:
    its callers build it or have checked it."""
    order = [3, 4, 5, 0, 1, 2]
    return np.asarray(mat, dtype=float)[np.ix_(order, order)]


def _traceless_symmetric_part(a) -> np.ndarray:
    """(a + a^T)/2 minus its trace part, for 3x3 matrices along leading axes."""
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    a -= (np.trace(a, axis1=-2, axis2=-1) / 3.0)[..., None, None] * np.eye(3)
    return a


def random_traceless_symmetric(rng, scale: float = 1.0) -> np.ndarray:
    return scale * _traceless_symmetric_part(rng.standard_normal((3, 3)))


#: normals per strict operator: s, then B, W+ and W- row-major
STRICT_NORMALS = 28


def strict_operators(normals) -> np.ndarray:
    """Strict operators from rows of 28 normals, one (6, 6) per row along the
    leading axes: s = 12 z[0], B = z[1:10], and W+, W- the traceless
    symmetric parts of z[10:19], z[19:28].

    The callers draw the rows, and the blocks are valid by construction, so
    nothing is checked; they are assembled by the code of :func:`compose`, so
    a row gives the same bits as ``compose`` of its blocks.
    """
    z = np.asarray(normals, dtype=float)
    lead = z.shape[:-1]
    b, wp, wm = (z[..., 1 + 9 * k:10 + 9 * k].reshape(lead + (3, 3)) for k in range(3))
    return _assemble(12.0 * z[..., 0], b, _traceless_symmetric_part(wp),
                     _traceless_symmetric_part(wm))


def random_strict_operator(rng) -> np.ndarray:
    """A random strict operator: one draw of 28 normals through
    :func:`strict_operators`, the stream of a scalar normal and three (3, 3)
    draws for s, B, W+ and W- in turn."""
    return strict_operators(rng.standard_normal(STRICT_NORMALS))


def perturbed(mat, kind: str, rng) -> np.ndarray:
    """Add noise of relative size ``PERTURBATION_REL`` to the block ``kind``, "Wplus" or "B".
    ``decompose`` checks the operator; its blocks plus finite noise are valid,
    so they are assembled by the code of :func:`compose`, unchecked."""
    blocks = decompose(mat)
    base = max(float(np.linalg.norm(mat)), 1.0)
    noise = random_traceless_symmetric(rng) if kind == "Wplus" else rng.standard_normal((3, 3))
    noise *= PERTURBATION_REL * base / max(float(np.linalg.norm(noise)), 1e-12)
    if kind == "Wplus":
        return _assemble(blocks.s, blocks.B, blocks.Wplus + noise, blocks.Wminus)
    return _assemble(blocks.s, blocks.B + noise, blocks.Wplus, blocks.Wminus)
