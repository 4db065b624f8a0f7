import pytest

from twistorgh import classifier as cl, selftest


@pytest.mark.parametrize("cond, oracle", [("dΩ", "ext-deriv-antisymmetrization"),
                                          ("δΩ", "codiff-frame-trace"),
                                          ("N", "nijenhuis-identity")])
def test_scaled_condition_tensor_fails_its_oracle_only(monkeypatch, cond, oracle):
    # the identity oracles evaluate the classifier's contractions, so a 1% error
    # in one condition's tensor Q must fail the oracle of that condition
    intact = cl._condition_tensor

    def scaled(c, T, M):
        q = intact(c, T, M)
        return 1.01 * q if c == cond else q

    monkeypatch.setattr(cl, "_condition_tensor", scaled)
    results = selftest.run_selftest(seed=1, trials=25)
    assert [r.name for r in results if not r.ok] == [oracle]
