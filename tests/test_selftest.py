import tracemalloc

import numpy as np
import pytest

from twistorgh import classifier as cl, fibre, selftest, tensors as tn

from random_fourdim import drawn_strict_operator, negate_sign_table

IDENTITY_KINDS = ("ext-deriv-antisymmetrization", "codiff-frame-trace", "nijenhuis-identity")


def scaled_condition_tensors(cond):
    """``classifier._condition_tensors`` with the tensor Q of ``cond`` scaled by 1.01."""
    intact = cl._condition_tensors

    def scaled(T, M, conditions):
        for c, q in intact(T, M, conditions):
            yield c, (1.01 * q if c == cond else q)

    return scaled


@pytest.mark.parametrize("cond, oracle", [("dΩ", "ext-deriv-antisymmetrization"),
                                          ("δΩ", "codiff-frame-trace"),
                                          ("N", "nijenhuis-identity")])
def test_scaled_condition_tensor_fails_its_oracle_only(monkeypatch, cond, oracle):
    # the identity oracles evaluate the classifier's contractions, so a 1% error
    # in one condition's tensor Q must fail the oracle of that condition
    monkeypatch.setattr(cl, "_condition_tensors", scaled_condition_tensors(cond))
    results = selftest.run_selftest(seed=1, trials=25)
    assert [r.name for r in results if not r.ok] == [oracle]


def test_negated_sign_table_fails_the_closed_form_oracles(monkeypatch):
    # the frame tensor and the product evaluators read SIGMA; the Nijenhuis closed
    # form and the single-fibre forms write their signs out
    negate_sign_table(monkeypatch)
    results = selftest.run_selftest(seed=1, trials=25)
    assert [r.name for r in results if not r.ok] == ["nijenhuis-identity", "restriction"]


def replay_configs(rng, count):
    """The per-trial draws one at a time, each part of a trial by itself: two
    scalar weights, the operator block by block, the point, the coefficients."""
    out = []
    for _ in range(count):
        t1 = float(rng.uniform(0.3, 2.0))
        t2 = float(rng.uniform(0.3, 2.0))
        rmat = drawn_strict_operator(rng)
        row = rng.standard_normal(6)  # the six normals of the point
        coeffs = rng.standard_normal((3, 8))
        out.append((t1, t2, rmat, row, coeffs))
    return out


def test_block_draws_replay_the_per_trial_stream():
    rng = np.random.default_rng([1, 3])
    blocks = [selftest._random_configs(rng, 64), selftest._random_configs(rng, 5)]
    drawn = [np.concatenate(x) for x in zip(*blocks)]
    replay = np.random.default_rng([1, 3])
    for i, config in enumerate(replay_configs(replay, 69)):
        for got, want in zip(drawn, config):
            assert np.array_equal(got[i], want), i
    assert rng.bit_generator.state == replay.bit_generator.state


def test_commutator_rows_replay_the_per_trial_stream():
    # one row of 76 normals per trial is the stream of its five draws in turn
    rng = np.random.default_rng(9)
    rows = rng.standard_normal((3, 76))
    replay = np.random.default_rng(9)
    for r in rows:
        parts = [replay.standard_normal(s) for s in ((6, 6), (4, 4), (4, 4), 4, 4)]
        assert np.array_equal(r, np.concatenate([q.ravel() for q in parts]))


def scalar_worst(kind, seed, trials):
    """The worst trial of an identity oracle, one configuration at a time."""
    cond, closed_form, slots = selftest._IDENTITIES[kind]
    rng = np.random.default_rng([seed, selftest._ORACLE_STREAM[kind]])
    best, worst = -1.0, None
    for i, (t1, t2, rmat, row, coeffs) in enumerate(replay_configs(rng, trials)):
        component, n = ("++", "+-")[i % 2], 1 + i % 4
        params = tn.Params(t1, t2, n)
        p = cl._points(row, component)
        value = cl.condition_values(*tn.frame_tensor(p, rmat, params), coeffs[None],
                                    (cond,))[cond][0]
        res = abs(getattr(tn, closed_form)(p, rmat, params, *coeffs[:slots]) - value)
        res /= 1.0 + np.prod(np.linalg.norm(coeffs[:slots], axis=1))
        if res > best:
            best, worst = res, {"trial": i, "component": component, "n": n}
    return best, worst


@pytest.mark.parametrize("cond, kind", [("dΩ", IDENTITY_KINDS[0]), ("δΩ", IDENTITY_KINDS[1]),
                                        ("N", IDENTITY_KINDS[2])])
def test_stacked_worst_trial_is_the_scalar_one(monkeypatch, cond, kind):
    # a 1% error makes the residuals geometric, not roundoff, so the worst
    # trial is well defined; 210 trials cover a full block and a partial one
    monkeypatch.setattr(cl, "_condition_tensors", scaled_condition_tensors(cond))
    result = selftest._tensor_oracle(2, 210, kind)
    best, worst = scalar_worst(kind, 2, 210)
    assert not result.ok
    assert result.worst == worst
    assert result.max_residual == pytest.approx(best, rel=1e-9)


@pytest.mark.parametrize("trials", [1, 2, 3, 5])
def test_empty_and_partial_groups(trials):
    results = selftest.run_selftest(seed=1, trials=trials)
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


@pytest.mark.parametrize("kind", IDENTITY_KINDS)
@pytest.mark.parametrize("trials, route_calls", [(8, 4), (200, 8)])
def test_closed_form_is_looked_up_on_tensors_at_each_call(monkeypatch, kind, trials,
                                                          route_calls):
    # a wrapper installed on the module after import, as perfbench's tracer does,
    # sees every call: one closed form per n-group of the block; the 50-trial
    # groups of a full block run the frame tensor in two 25-trial chunks each
    closed_form = counting(monkeypatch, tn, selftest._IDENTITIES[kind][1])
    route = counting(monkeypatch, tn, "frame_tensor")
    assert selftest._tensor_oracle(1, trials, kind).ok
    assert (len(closed_form), len(route)) == (4, route_calls)


@pytest.mark.parametrize("oracle", list(NAN_INJECTIONS))
def test_nan_residual_fails_its_oracle_only(monkeypatch, oracle):
    NAN_INJECTIONS[oracle](monkeypatch)
    results = selftest.run_selftest(seed=1, trials=25)
    assert [r.name for r in results if not r.ok] == [oracle]
    failed = next(r for r in results if not r.ok)
    assert np.isnan(failed.max_residual)
    assert failed.worst["trial"] == 8
    assert "max=nan" in failed.line()


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("trials", [3, 25, 129, 200, 201])
def test_results_do_not_depend_on_the_block_size(monkeypatch, seed, trials):
    # at 64 trials per block, 129, 200 and 201 trials end in a partial block,
    # and 7-trial route chunks end the 16-trial groups of a full block in a
    # partial chunk (16 = 2 * 7 + 2); at the default sizes 201 ends every
    # oracle in a one-trial block, and 3 leaves an n-group empty and a fibre
    # dimension with one trial
    assert selftest._BLOCK_TRIALS != 64 and selftest._ROUTE_TRIALS != 7
    results = selftest.run_selftest(seed=seed, trials=trials)
    monkeypatch.setattr(selftest, "_BLOCK_TRIALS", 64)
    monkeypatch.setattr(selftest, "_ROUTE_TRIALS", 7)
    small = selftest.run_selftest(seed=seed, trials=trials)
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
        field = fibre.tangent_projection_field(0.5 * (q - q.T))
        k_field = fibre.FibreVectorField(evaluate=lambda a, f=field: a @ f.evaluate(a))
        lhs = fibre.fibre_levi_civita(k_field, x, j)
        rhs = j @ fibre.fibre_levi_civita(field, x, j)
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


ORACLES = {kind: lambda trials, kind=kind: selftest._tensor_oracle(1, trials, kind)
           for kind in (*IDENTITY_KINDS, "restriction")} | {
    "curvature-commutator": lambda trials: selftest._curvature_commutator(1, trials),
    "fibre-kaehler-parallel": lambda trials: selftest._fibre_kaehler(1, trials)}


@pytest.mark.parametrize("kind", list(ORACLES))
@pytest.mark.parametrize("trials", [64, 640])
def test_oracle_memory_does_not_grow_with_trials(trials, kind):
    ORACLES[kind](8)  # first-call allocations
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ORACLES[kind](trials)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak <= 0.6 * 2 ** 20
