import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from twistorgh import classifier as cl, curvature as cur, fibre, fourdim as fd, selftest
from twistorgh import tensors as tn

from random_fourdim import drawn_strict_operator, negate_sign_table

IDENTITY_KINDS = ("ext-deriv-antisymmetrization", "codiff-frame-trace", "nijenhuis-identity")


def scaled_condition_tensors(cond):
    """``classifier._condition_tensors`` with the tensor Q of ``cond`` scaled by 1.01."""
    intact = cl._condition_tensors

    def scaled(T, M, conditions):
        for c, q in intact(T, M, conditions):
            yield c, (1.01 * q if c == cond else q)

    return scaled


#: the oracles a 1% error in a condition's tensor Q fails, for every condition:
#: the restriction reads DΩ, W1-cond, dΩ and δΩ on first-factor arguments, and
#: the identity oracles read dΩ, δΩ and N.  No oracle reads quasi-cond,
#: W1W3-cond or W2W3-cond, so an error there passes selftest (ROADMAP item 5d);
#: tier-1 catches it in tests/test_classifier.py's TestFrameTensorContractions
#: and TestSharedContraction
SCALED_FAILS = {
    "DΩ": ["restriction"],
    "W1-cond": ["restriction"],
    "dΩ": ["ext-deriv-antisymmetrization", "restriction"],
    "N": ["nijenhuis-identity"],
    "δΩ": ["codiff-frame-trace", "restriction"],
    "quasi-cond": [],
    "W1W3-cond": [],
    "W2W3-cond": [],
}


@pytest.mark.parametrize("cond", list(SCALED_FAILS))
def test_scaled_condition_tensor_fails_its_oracle_only(monkeypatch, cond):
    # the tensor oracles evaluate the classifier's contractions, so a 1% error
    # in one condition's tensor Q must fail the oracles of that condition
    monkeypatch.setattr(cl, "_condition_tensors", scaled_condition_tensors(cond))
    results = selftest.run_selftest(seed=1)
    assert [r.name for r in results if not r.ok] == SCALED_FAILS[cond]


def test_negated_sign_table_fails_the_closed_form_oracles(monkeypatch):
    # the frame tensor and the product evaluators read SIGMA; the Nijenhuis closed
    # form and the single-fibre forms write their signs out
    negate_sign_table(monkeypatch)
    results = selftest.run_selftest(seed=1)
    assert [r.name for r in results if not r.ok] == ["nijenhuis-identity", "restriction"]


def negate_sign_entry(monkeypatch, entry, n):
    """Negate one sign of ``tensors`` at n: EPS[n], SIGMA[n], or k1 or k2 of
    KSIGNS[n]; undone at the end of the test."""
    if entry in ("k1", "k2"):
        k = list(tn.KSIGNS[n])
        k[entry == "k2"] *= -1.0
        monkeypatch.setitem(tn.KSIGNS, n, tuple(k))
    else:
        table = getattr(tn, entry)
        monkeypatch.setitem(table, n, -table[n])


#: the oracles one negated sign fails, at every n: the frame tensor and the
#: product evaluators read EPS and SIGMA, which the Nijenhuis closed form and
#: the single-fibre forms write out; KSIGNS is read by Jn alone, whose vertical
#: signs only the Nijenhuis closed form writes out
NEGATED_ENTRY_FAILS = {
    "EPS": ["nijenhuis-identity", "restriction"],
    "SIGMA": ["nijenhuis-identity", "restriction"],
    "k1": ["nijenhuis-identity"],
    "k2": ["nijenhuis-identity"],
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("entry", list(NEGATED_ENTRY_FAILS))
def test_one_negated_sign_fails_the_closed_form_oracles_at_its_n(monkeypatch, entry, n):
    # only the n-group of n reads the tables at n, so its trials alone must
    # carry the error, and the worst trial is one of them
    negate_sign_entry(monkeypatch, entry, n)
    failed = [r for r in selftest.run_selftest(seed=1) if not r.ok]
    assert [r.name for r in failed] == NEGATED_ENTRY_FAILS[entry]
    assert all(r.worst["n"] == n for r in failed)


def orientation_fault(fault):
    """``tensors.frame_tensor`` with one orientation sign written as +1: s1 in
    ``coef``, the coefficients of R q_0 and R q_1 (so in T); s1 in M's first
    vertical block -k1 s1 J_std; or k2 s2 in its second, -k2 s2 J_std."""
    intact = tn.frame_tensor

    def faulty(p, rmat, params):
        T, M = intact(p, rmat, params)
        if fault == "coef-s1":  # the first structure, its sign read as +1
            j1 = SimpleNamespace(**vars(p.j1) | {"sign": 1})
            T = intact(tn.ProductTwistorPoint(j1, p.j2), rmat, params)[0]
        elif fault == "M-s1":
            M[..., 4:6, 4:6] *= p.j1.sign
        else:
            M[..., 6:8, 6:8] *= tn.KSIGNS[params.n][1] * p.j2.sign
        return T, M

    return faulty


#: the oracles each lost orientation sign fails.  None of the faults changes a
#: trial with s1 = +1 and k2 s2 = +1, the only signs the n-groups met when each
#: took its component from n alone, so the components must reach the others
ORIENTATION_FAILS = {
    "coef-s1": ["codiff-frame-trace", "nijenhuis-identity", "restriction"],
    "M-s1": ["nijenhuis-identity"],
    "M-k2s2": ["nijenhuis-identity"],
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("fault", list(ORIENTATION_FAILS))
def test_lost_orientation_sign_fails_its_oracles(monkeypatch, fault, seed):
    monkeypatch.setattr(tn, "frame_tensor", orientation_fault(fault))
    results = selftest.run_selftest(seed=seed)
    assert [r.name for r in results if not r.ok] == ORIENTATION_FAILS[fault]


def scaled(f, factor):
    return lambda *args: factor * f(*args)


def unprojected(evaluate, x, j):
    """``fibre.fibre_levi_civita`` without its tangent projection."""
    step = fibre.FD_STEP
    return (evaluate(j + step * x) - evaluate(j - step * x)) / (2.0 * step)


#: faults in what the curvature-commutator and fibre-kaehler-parallel oracles
#: evaluate, each (module, name, replacement), and the one oracle each fails:
#: a 1% error in r or in G, or r of y ^ x for x ^ y; the fibre derivative
#: without its projection, at a step of 1e-2, or with no tangent projection at all
GEOMETRY_FAULTS = {
    "curvature_endo": (cur, "curvature_endo", scaled(cur.curvature_endo, 1.01),
                       "curvature-commutator"),
    "inner_G": (fibre, "inner_G", scaled(fibre.inner_G, 1.01), "curvature-commutator"),
    "wedge_order": (cur, "wedge_of_pair", lambda x, y: fd.wedge_of_pair(y, x),
                    "curvature-commutator"),
    "unprojected": (fibre, "fibre_levi_civita", unprojected, "fibre-kaehler-parallel"),
    "coarse_step": (fibre, "FD_STEP", 1e-2, "fibre-kaehler-parallel"),
    "no_projection": (fibre, "tangent_projection", lambda j, q: q, "fibre-kaehler-parallel"),
}


@pytest.mark.parametrize("fault", list(GEOMETRY_FAULTS))
def test_geometry_fault_fails_its_oracle_only(monkeypatch, fault):
    # acceptance criteria 2 and 3 run these two oracles, so each must see an
    # error in the routines it evaluates
    module, name, replacement, oracle = GEOMETRY_FAULTS[fault]
    monkeypatch.setattr(module, name, replacement)
    results = selftest.run_selftest(seed=1)
    assert [r.name for r in results if not r.ok] == [oracle]


def generators(seed, kind):
    """The two generators of a tensor oracle: its rows', then its weights'."""
    stream = selftest.ORACLES[kind].stream
    return np.random.default_rng([seed, stream]), np.random.default_rng([seed, stream, 1])


def replay_configs(rng, weights, count):
    """The per-trial draws one at a time, each part of a trial by itself: two
    scalar weights, the operator block by block, the point, the coefficients."""
    out = []
    for _ in range(count):
        t1 = float(weights.uniform(0.3, 2.0))
        t2 = float(weights.uniform(0.3, 2.0))
        rmat = drawn_strict_operator(rng)
        row = rng.standard_normal(6)  # the six normals of the point
        coeffs = rng.standard_normal((3, 8))
        out.append((t1, t2, rmat, row, coeffs))
    return out


def test_block_draws_replay_the_per_trial_stream():
    rng, weights = generators(1, "nijenhuis-identity")
    blocks = [selftest._random_configs(rng, weights, 64),
              selftest._random_configs(rng, weights, 5)]
    drawn = [np.concatenate(x) for x in zip(*blocks)]
    replay, replay_weights = generators(1, "nijenhuis-identity")
    for i, config in enumerate(replay_configs(replay, replay_weights, 69)):
        for got, want in zip(drawn, config):
            assert np.array_equal(got[i], want), i
    assert rng.bit_generator.state == replay.bit_generator.state
    assert weights.bit_generator.state == replay_weights.bit_generator.state


def test_commutator_rows_replay_the_per_trial_stream():
    # one row of 76 normals per trial is the stream of its five draws in turn
    rng = np.random.default_rng(9)
    rows = rng.standard_normal((3, 76))
    replay = np.random.default_rng(9)
    for r in rows:
        parts = [replay.standard_normal(s) for s in ((6, 6), (4, 4), (4, 4), 4, 4)]
        assert np.array_equal(r, np.concatenate([q.ravel() for q in parts]))


def scalar_residual(kind, p, rmat, params, coeffs):
    """The residual of one trial of a tensor oracle, evaluated by itself."""
    if kind == "restriction":  # the coefficients of E_0..E_5, those of E_6, E_7 at zero
        x = np.concatenate((coeffs[:, :6], np.zeros((3, 2))), axis=1)
        conds = ("DΩ", "W1-cond", "dΩ", "δΩ")
        value = cl.condition_values(*tn.frame_tensor(p, rmat, params), x[None], conds)
        gs = [tn.frame_vectors(p, params, row) for row in x]
        h, v = [g.horizontal for g in gs], [g.v1 for g in gs]
        k, t = (1 if params.n in (1, 2) else 2), params.t1
        single = (tn.single_cov_deriv(p.j1, rmat, t, k, h, v),
                  tn.single_cov_deriv(p.j1, rmat, t, k, [h[0], h[0], h[2]], [v[0], v[0], v[2]]),
                  tn.single_ext_deriv(rmat, t, k, h, v),
                  tn.single_codiff(p.j1, rmat, t, v[0]))
        return max(abs(value[c][0] - want) for c, want in zip(conds, single))
    cond, closed_form, slots = selftest._IDENTITIES[kind]
    value = cl.condition_values(*tn.frame_tensor(p, rmat, params), coeffs[None], (cond,))[cond][0]
    res = abs(getattr(tn, closed_form)(p, rmat, params, *coeffs[:slots]) - value)
    return res / (1.0 + np.prod(np.linalg.norm(coeffs[:slots], axis=1)))


def scalar_worst(kind, seed, trials):
    """The worst trial of a tensor oracle, one configuration at a time."""
    best, worst = -1.0, None
    for i, (t1, t2, rmat, row, coeffs) in enumerate(replay_configs(*generators(seed, kind),
                                                                   trials)):
        component, n = selftest._GROUP_COMPONENTS[i % 4], 1 + i % 4
        res = scalar_residual(kind, cl._points(row, component), rmat, tn.Params(t1, t2, n), coeffs)
        if res > best:
            best, worst = res, {"trial": i, "component": component, "n": n}
    return best, worst


@pytest.mark.parametrize("cond, kind", [("dΩ", IDENTITY_KINDS[0]), ("δΩ", IDENTITY_KINDS[1]),
                                        ("N", IDENTITY_KINDS[2]), ("DΩ", "restriction"),
                                        ("W1-cond", "restriction")])
def test_stacked_worst_trial_is_the_scalar_one(monkeypatch, cond, kind):
    # a 1% error makes the residuals geometric, not roundoff, so the worst
    # trial is well defined; 210 trials cover a full block and a partial one
    monkeypatch.setattr(cl, "_condition_tensors", scaled_condition_tensors(cond))
    result = selftest._tensor_oracle(2, 210, kind)
    best, worst = scalar_worst(kind, 2, 210)
    assert not result.ok
    assert result.worst == worst
    assert result.max_residual == pytest.approx(best, rel=1e-9)


def every_oracle(seed, trials):
    """Each oracle, in report order, over ``trials`` trials in place of its own."""
    return [selftest._oracle(name, seed, trials) for name in selftest.ORACLES]


@pytest.mark.parametrize("trials", [1, 2, 3, 5])
def test_empty_and_partial_groups(trials):
    results = every_oracle(1, trials)
    assert selftest.all_ok(results)
    assert all(r.trials == trials for r in results)


def nan_at(f, call, row=None):
    """f with a NaN put into row ``row`` of the result of its ``call``-th call."""
    calls = []

    def wrapped(*args, **kwargs):
        out = np.array(f(*args, **kwargs), dtype=float)
        if len(calls) == call:
            out[() if row is None else row] = np.nan
        calls.append(None)
        return out

    return wrapped


def closed_form_with_nan(mp, kind):
    name = selftest._IDENTITIES[kind][1]
    mp.setattr(tn, name, nan_at(getattr(tn, name), 0, 2))


# trial 8 is row 2 of the first group (n = 1) of the first block; fibre-kaehler's
# first fibre_levi_civita call is the left side of the block's dimension-4 stack
# of the even trials, so trial 8 is its row 4
NAN_INJECTIONS = {
    kind: lambda mp, kind=kind: closed_form_with_nan(mp, kind) for kind in IDENTITY_KINDS
} | {
    "restriction": lambda mp: mp.setattr(tn, "single_codiff", nan_at(tn.single_codiff, 0, 2)),
    "curvature-commutator": lambda mp: mp.setattr(fibre, "inner_G", nan_at(fibre.inner_G, 0, 8)),
    "fibre-kaehler-parallel": lambda mp: mp.setattr(fibre, "fibre_levi_civita",
                                                   nan_at(fibre.fibre_levi_civita, 0, 4)),
}


def counting(monkeypatch, module, name):
    """The calls of ``module.name``, counted by a wrapper installed on the module."""
    intact, calls = getattr(module, name), []

    def wrapped(*args):
        calls.append(None)
        return intact(*args)

    monkeypatch.setattr(module, name, wrapped)
    return calls


#: a closed form of each tensor oracle, called once per n-group
CLOSED_FORMS = {kind: selftest._IDENTITIES[kind][1] for kind in IDENTITY_KINDS} | {
    "restriction": "single_ext_deriv"}


@pytest.mark.parametrize("kind", list(CLOSED_FORMS))
@pytest.mark.parametrize("trials, route_calls", [(8, 4), (200, 4)])
def test_closed_form_is_looked_up_on_tensors_at_each_call(monkeypatch, kind, trials,
                                                          route_calls):
    # a wrapper installed on the module after import, as perfbench's tracer does,
    # sees every call: one closed form and one frame tensor per n-group of the
    # block; a full block's 50-trial groups contract their frame tensor in
    # 17-trial slices, with no further frame_tensor call
    closed_form = counting(monkeypatch, tn, CLOSED_FORMS[kind])
    route = counting(monkeypatch, tn, "frame_tensor")
    assert selftest._tensor_oracle(1, trials, kind).ok
    assert (len(closed_form), len(route)) == (4, route_calls)


@pytest.mark.parametrize("kind", list(CLOSED_FORMS))
def test_n_groups_meet_both_orientations_of_each_factor(monkeypatch, kind):
    # the n-groups' points in call order, (s1, s2, n): both signs of s1 and
    # s2, and of Jn's vertical actions k1 s1 and k2 s2
    seen, intact = [], tn.frame_tensor

    def recording(p, rmat, params):
        seen.append((p.j1.sign, p.j2.sign, params.n))
        return intact(p, rmat, params)

    monkeypatch.setattr(tn, "frame_tensor", recording)
    assert selftest._tensor_oracle(1, 8, kind).ok
    assert seen == [(1, -1, 1), (-1, -1, 2), (-1, 1, 3), (1, 1, 4)]
    for i in (0, 1):
        assert {tn.KSIGNS[n][i] * s[i] for *s, n in seen} == {-1.0, 1.0}


def assert_nan_fails_at_trial_8(oracle):
    results = selftest.run_selftest(seed=1)
    assert [r.name for r in results if not r.ok] == [oracle]
    failed = next(r for r in results if not r.ok)
    assert np.isnan(failed.max_residual)
    assert failed.worst["trial"] == 8
    assert "max=nan" in failed.line()


@pytest.mark.parametrize("oracle", list(NAN_INJECTIONS))
def test_nan_residual_fails_its_oracle_only(monkeypatch, oracle):
    NAN_INJECTIONS[oracle](monkeypatch)
    assert_nan_fails_at_trial_8(oracle)


def test_nan_fibre_draw_fails_the_fibre_oracle_only(monkeypatch):
    # nothing checks the fibre draws, so a NaN structure J, drawn first in
    # trial 8, must reach that trial's residual
    monkeypatch.setattr(fibre, "random_complex_structure",
                        nan_at(fibre.random_complex_structure, 8))
    assert_nan_fails_at_trial_8("fibre-kaehler-parallel")


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("trials", [3, 25, 129, 200, 201])
@pytest.mark.parametrize("route", [7, 64])
def test_results_do_not_depend_on_the_block_size(monkeypatch, seed, trials, route):
    # at 64 trials per block, 129, 200 and 201 trials end in a partial block;
    # 7-trial route slices end the 16-trial groups of a full block in a partial
    # slice (16 = 2 * 7 + 2), and 64-trial ones contract each group in one slice;
    # at the default sizes 201 ends every oracle in a one-trial block, and 3
    # leaves an n-group empty and a fibre dimension with one trial
    assert selftest._BLOCK_TRIALS != 64 and selftest._ROUTE_TRIALS not in (7, 64)
    results = every_oracle(seed, trials)
    monkeypatch.setattr(selftest, "_BLOCK_TRIALS", 64)
    monkeypatch.setattr(selftest, "_ROUTE_TRIALS", route)
    small = every_oracle(seed, trials)
    assert [r.name for r in results] == [r.name for r in small]
    for got, want in zip(results, small):
        assert got.max_residual.hex() == want.max_residual.hex(), got.name
        assert (got.worst, got.ok, got.trials, got.tol) == (want.worst, want.ok, want.trials,
                                                           want.tol), got.name


def per_trial_fibre_kaehler(seed, trials):
    """(max_residual, worst) of the fibre oracle evaluated one trial at a time."""
    rng = np.random.default_rng([seed, 6])
    worst_val, worst = 0.0, {}
    for i in range(trials):
        dim = 4 if i % 2 == 0 else 6
        j = fibre.random_complex_structure(dim, rng)
        x = fibre.random_tangent(j, rng)
        q = rng.standard_normal((dim, dim))
        skew = 0.5 * (q - q.T)
        lhs = fibre.fibre_levi_civita(lambda a: a @ fibre.tangent_projection(a, skew), x, j)
        rhs = j @ fibre.fibre_levi_civita(lambda a: fibre.tangent_projection(a, skew), x, j)
        res = float(np.max(np.abs(lhs - rhs)))
        if selftest._worse(res, worst_val):
            worst_val, worst = res, {"trial": i, "dim": dim}
    return worst_val, worst


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("trials", [1, 2, 20, 21, 201])
def test_stacked_fibre_oracle_is_the_per_trial_one(seed, trials):
    # 1 leaves the dimension-6 stack empty, 21 ends on an even trial, and 201
    # ends in a one-trial block
    result = selftest._fibre_kaehler(seed, trials)
    best, worst = per_trial_fibre_kaehler(seed, trials)
    assert result.max_residual.hex() == best.hex()
    assert result.worst == worst
    assert result.ok


@pytest.mark.parametrize("kind", list(selftest.ORACLES))
@pytest.mark.parametrize("trials", [64, 640])
def test_oracle_memory_does_not_grow_with_trials(trials, kind):
    selftest._oracle(kind, 1, 8)  # first-call allocations
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        selftest._oracle(kind, 1, trials)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak <= 0.6 * 2 ** 20
