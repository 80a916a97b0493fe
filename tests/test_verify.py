import numpy as np

from puredist.verify import MANIFEST, SUITE, run_suite


def test_manifest_matches_suite():
    assert len(MANIFEST) == len(SUITE)
    results = run_suite(trials=5, seed=1)
    assert tuple(r.name for r in results) == MANIFEST


def test_suite_passes_at_moderate_trials():
    results = run_suite(trials=150, seed=11)
    for r in results:
        assert r.passed, f"{r.name}: {r.violations} violations, worst {r.worst}"


def test_suite_runs_with_no_trials():
    results = run_suite(trials=0, seed=1)
    assert all(r.passed for r in results)
    # the 14 checks with per = 1 run none; the costly ones run max(1, 0 // per) = 1
    assert [r.name for r in results if (r.trials, r.worst) == (0, np.inf)] == list(MANIFEST[:14])


def test_suite_deterministic():
    a = run_suite(trials=25, seed=3)
    b = run_suite(trials=25, seed=3)
    for ra, rb in zip(a, b):
        assert ra.worst == rb.worst and ra.violations == rb.violations


def test_suite_eps_override():
    results = run_suite(trials=40, eps=0.1, seed=5)
    assert all(r.passed for r in results)


def test_eps_draw_keeps_the_values_and_generator_state_of_choice():
    # _eps indexes a tuple by rng.integers(3): rng.choice([0.01, 0.05, 0.1])'s
    # values, and the generator ends where that leaves it
    from puredist.verify import _eps
    for seed in range(5):
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        assert [_eps(got) for _ in range(5000)] == [
            float(want.choice([0.01, 0.05, 0.1])) for _ in range(5000)]
        assert got.bit_generator.state == want.bit_generator.state
