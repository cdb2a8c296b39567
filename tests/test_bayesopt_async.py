"""Determinism-replay harness for async batched Bayesian optimisation.

Three contracts, in the style of ``tests/test_execution.py`` /
``tests/test_inference.py``:

* **Pre-PR byte-identity** — the sequential paths (``BayesianOptimizer``
  with ``suggest()`` and ``BayesFTSearch`` with ``suggest_batch=1,
  search_workers<=1``) reproduce, byte for byte, golden traces captured
  from the implementation *before* batch suggestion existed.
* **Ordered observation replay** — a seeded ``(q, k)`` async search yields
  one canonical ``BayesFTResult`` regardless of worker count, backend or
  worker completion order; the canonical trace depends only on ``q``.
* **Constant-liar bookkeeping** — fantasised observations steer batch
  suggestion but never leak into the trace, ``best_*`` accessors or the
  aggregated objective stats; early termination never changes the winner.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.bayesopt.optimizer import BayesianOptimizer, OptimizationTrace
from repro.core import (
    AsyncTrialScheduler, BayesFTSearch, DriftMarginalizedObjective,
    DropoutSearchSpace,
)
from repro.core.algorithm import _state_sha256
from repro.data import SyntheticMNIST, train_test_split
from repro.execution.search import SearchTrialPool
from repro.models import build_mlp

# --------------------------------------------------------------------------- #
# Golden traces captured from the pre-batch-suggestion implementation
# (sequential suggest/observe loop, np.argmax tie-breaking): the sequential
# paths must keep producing these bytes forever.
# --------------------------------------------------------------------------- #
GOLDEN_OPTIMIZER_TRACE = (
    '{"points":[[0.625095466604667,0.8972138009695755],'
    '[0.7756856902451935,0.22520718999059186],'
    '[0.30016628491122543,0.8735534453962619],'
    '[0.03805728669123909,0.876218808109271],'
    '[0.3066594908888719,0.9613508447364569],'
    '[0.18370352102024934,0.6698645598173122],'
    '[0.2341870956723922,0.6815584622557674],'
    '[0.294784272833487,0.7062672371624146],'
    '[0.294784272833487,0.7062672371624146],'
    '[0.294784272833487,0.7062672371624146]],'
    '"values":[-0.1445803456997735,-0.45170508834067613,'
    '-0.030120826059584976,-0.09966705338700779,-0.06834861286335861,'
    '-0.014433015778091937,-0.004671428690406807,-6.648207152545229e-05,'
    '-6.648207152545229e-05,-6.648207152545229e-05]}')

GOLDEN_SYNC_SEARCH = (
    '{"best_alpha":[0.04140831987288487,0.02808978222076053],'
    '"best_objective":0.1875,'
    '"best_state_sha256":'
    '"fdb19be7f268f6372870bad453f436a257ec08004f9066fdb1c5d8f24c39b1f8",'
    '"clean_objectives":[0.125,0.1,0.1,0.075],'
    '"objective_stats":{"cache_hits":4,"evaluations":12},'
    '"trial_alphas":[[0.7832242835730762,0.25813548817879983],'
    '[0.5008886006891077,0.5120255110721568],'
    '[0.6344594344328459,0.48492430559629074],'
    '[0.04140831987288487,0.02808978222076053]],'
    '"trial_objectives":[0.1375,0.1375,0.125,0.1875]}')


def quadratic(point):
    return -float(np.sum((point - np.array([0.3, 0.7])) ** 2))


@pytest.fixture(scope="module")
def split():
    dataset = SyntheticMNIST(n_samples=160, image_size=16, rng=3)
    return train_test_split(dataset, test_fraction=0.25, rng=3)


def make_search(split, **kwargs):
    train_set, test_set = split
    model = build_mlp(256, depth=3, width=16, num_classes=10, rng=5)
    space = DropoutSearchSpace(model)
    objective = DriftMarginalizedObjective(test_set, sigma=0.7,
                                           monte_carlo_samples=2,
                                           metric="accuracy", rng=7)
    return BayesFTSearch(space, objective, train_set, epochs_per_trial=1,
                         learning_rate=0.1, rng=9, **kwargs)


# --------------------------------------------------------------------------- #
class TestGoldenByteIdentity:
    def test_optimizer_trace_byte_identical_to_pre_pr(self):
        opt = BayesianOptimizer([(0.0, 1.0), (0.0, 1.0)], n_initial=3,
                                n_candidates=64, rng=7)
        trace = opt.optimize(quadratic, n_trials=10)
        assert trace.to_json() == GOLDEN_OPTIMIZER_TRACE

    def test_sync_search_byte_identical_to_pre_pr(self, split):
        result = make_search(split).run(n_trials=4)
        # The golden was captured before trial_terminated existed; the
        # sequential path fills it with all-False, which is asserted apart.
        canonical = result.canonical_dict()
        assert canonical.pop("trial_terminated") == [False] * 4
        got = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        assert got == GOLDEN_SYNC_SEARCH

    def test_trace_json_roundtrip(self):
        trace = OptimizationTrace()
        trace.append(np.array([0.25, 0.5]), 1.5)
        trace.append(np.array([0.1, 0.9]), float("nan"))
        data = json.loads(trace.to_json())
        assert data["points"][0] == [0.25, 0.5]
        assert np.isnan(data["values"][1])


# --------------------------------------------------------------------------- #
class TestOrderedObservationReplay:
    def test_async_byte_identical_across_workers_and_backends(self, split):
        """The acceptance contract: one canonical trace per seeded (q,)
        configuration, whatever k, backend or completion order did."""
        reference = {
            q: make_search(split, suggest_batch=q).run(n_trials=4).to_json()
            for q in (2, 3)}
        variants = [
            dict(suggest_batch=2, search_workers=2),
            dict(suggest_batch=2, search_workers=3),
            dict(suggest_batch=3, search_workers=2),
        ]
        for kwargs in variants:
            result = make_search(split, **kwargs).run(n_trials=4)
            assert result.to_json() == reference[kwargs["suggest_batch"]], kwargs

    def test_different_q_gives_different_traces(self, split):
        """q is part of the search's identity (unlike k): fantasy-driven
        batches explore differently than the sequential loop."""
        sync = make_search(split).run(n_trials=4)
        batched = make_search(split, suggest_batch=2).run(n_trials=4)
        assert sync.trial_alphas[1].tolist() != batched.trial_alphas[1].tolist()

    def test_scrambled_completion_order_replays_identically(self):
        """The scheduler commits by trial index even if the pool hands back
        results in a hostile order."""

        class ScrambledPool:
            def __init__(self):
                self.calls = 0

            def run_batch(self, payloads):
                self.calls += 1
                results = [{"index": p["index"],
                            "value": quadratic(p["alpha"]),
                            "clean": 0.0, "terminated": False,
                            "state": {}, "stats": {"evaluations": 1,
                                                   "cache_hits": 0}}
                           for p in payloads]
                return results[::-1]  # reversed completion order

        def run(pool):
            opt = BayesianOptimizer([(0.0, 1.0), (0.0, 1.0)], n_initial=3,
                                    n_candidates=64, rng=11)
            scheduler = AsyncTrialScheduler(opt, pool, suggest_batch=3)
            committed = []
            scheduler.run(
                9,
                lambda index, alpha: {"index": index, "alpha": alpha},
                lambda alpha, result: committed.append(result["index"]))
            return opt.trace.to_json(), committed

        class OrderedPool(ScrambledPool):
            def run_batch(self, payloads):
                return super().run_batch(payloads)[::-1]

        scrambled_trace, scrambled_order = run(ScrambledPool())
        ordered_trace, ordered_order = run(OrderedPool())
        assert scrambled_trace == ordered_trace
        assert scrambled_order == ordered_order == list(range(9))

    def test_random_optimizer_kind_supports_batching(self, split):
        base = make_search(split, optimizer_kind="random",
                           suggest_batch=2).run(n_trials=4)
        fanned = make_search(split, optimizer_kind="random", suggest_batch=2,
                             search_workers=2).run(n_trials=4)
        assert base.to_json() == fanned.to_json()

    def test_async_aggregates_objective_stats(self, split):
        result = make_search(split, suggest_batch=2).run(n_trials=4)
        # Per trial: one (0, σ) engine run over T=2 draws = 4 evaluations,
        # with the σ=0 pair collapsed by the per-trial inference cache.
        stats = result.objective_stats
        assert stats["evaluations"] + stats["cache_hits"] == 16
        assert stats["cache_hits"] >= 4

    def test_search_stats_report_scheduling(self, split):
        result = make_search(split, suggest_batch=2,
                             search_workers=2).run(n_trials=4)
        assert result.search_stats["used_backend"] == "process"
        assert result.search_stats["suggest_batch"] == 2
        assert result.search_stats["batches"] == 2
        assert result.search_stats["tasks_shipped"] == 4


# --------------------------------------------------------------------------- #
class TestConstantLiarBookkeeping:
    def _seeded_optimizer(self, rng=0):
        opt = BayesianOptimizer([(0.0, 1.0), (0.0, 1.0)], n_initial=3,
                                n_candidates=64, rng=rng)
        for point, value in [([0.2, 0.6], 0.5), ([0.8, 0.1], 0.1),
                             ([0.35, 0.7], 0.9)]:
            opt.observe(np.array(point), value)
        return opt

    def test_fantasies_never_enter_trace_or_best(self):
        opt = self._seeded_optimizer()
        before = opt.trace.to_json()
        best_before = (opt.trace.best_value, opt.trace.best_point.copy())
        batch = opt.suggest_batch(3)
        assert len(opt.pending_points) == 3
        assert opt.trace.to_json() == before
        assert opt.trace.best_value == best_before[0]
        np.testing.assert_array_equal(opt.trace.best_point, best_before[1])
        for point in batch:
            opt.observe(point, 0.42)
        assert opt.pending_points == []
        assert len(opt.trace) == 6

    def test_fantasies_steer_the_fit(self):
        """Same streams, same observations — the only difference is a
        pending fantasy at the incumbent, and the suggestion moves."""
        plain = self._seeded_optimizer(rng=3)
        lied = self._seeded_optimizer(rng=3)
        lied._pending.append(lied.trace.best_point.copy())
        plain_point = plain.suggest_batch(1)[0]
        lied_point = lied.suggest_batch(1)[0]
        assert not np.array_equal(plain_point, lied_point)

    def test_observe_retracts_only_the_matching_fantasy(self):
        opt = self._seeded_optimizer()
        batch = opt.suggest_batch(2)
        opt.observe(np.array([0.11, 0.22]), 0.3)  # not a pending point
        assert len(opt.pending_points) == 2
        opt.observe(batch[0], 0.6)
        remaining = opt.pending_points
        assert len(remaining) == 1
        np.testing.assert_array_equal(remaining[0], batch[1])

    def test_clear_pending(self):
        opt = self._seeded_optimizer()
        opt.suggest_batch(2)
        opt.clear_pending()
        assert opt.pending_points == []

    def test_nan_observation_in_batch_does_not_poison_fit(self):
        """wandb-next_sample-style: a diverged trial inside a pending batch
        is retracted and excluded, and later batches still work."""
        opt = self._seeded_optimizer()
        batch = opt.suggest_batch(3)
        opt.observe(batch[0], float("nan"))
        assert len(opt.pending_points) == 2
        again = opt.suggest_batch(2)  # fits with 2 fantasies + finite trace
        for point in again:
            assert np.all(np.isfinite(point))
            assert np.all((0.0 <= point) & (point <= 1.0))
        assert opt.trace.best_value == 0.9  # NaN trial never the winner

    def test_liar_value_modes(self):
        values = np.array([0.1, 0.5, 0.9])
        for liar, expected in (("min", 0.1), ("mean", 0.5), ("max", 0.9)):
            opt = BayesianOptimizer([(0.0, 1.0)], liar=liar, rng=0)
            assert opt._liar_value(values) == pytest.approx(expected)
        with pytest.raises(ValueError):
            BayesianOptimizer([(0.0, 1.0)], liar="median")

    def test_suggest_batch_validates_q(self):
        with pytest.raises(ValueError):
            self._seeded_optimizer().suggest_batch(0)


# --------------------------------------------------------------------------- #
class TestStableTieBreak:
    def test_lexicographic_among_exact_ties(self):
        scores = np.array([1.0, 2.0, 2.0, 0.5])
        candidates = np.array([[0.5, 0.5], [0.3, 0.9], [0.3, 0.2], [0.0, 0.0]])
        index = BayesianOptimizer._argmax_stable(scores, candidates)
        assert index == 2  # [0.3, 0.2] < [0.3, 0.9] lexicographically

    def test_candidate_order_cannot_change_the_chosen_point(self):
        rng = np.random.default_rng(0)
        candidates = rng.random((16, 3))
        scores = np.zeros(16)  # everything tied
        chosen = candidates[BayesianOptimizer._argmax_stable(scores, candidates)]
        permutation = rng.permutation(16)
        shuffled = candidates[permutation]
        rechosen = shuffled[BayesianOptimizer._argmax_stable(scores, shuffled)]
        np.testing.assert_array_equal(chosen, rechosen)

    def test_unique_max_matches_numpy(self):
        scores = np.array([0.1, 0.9, 0.3])
        candidates = np.array([[0.0], [1.0], [2.0]])
        assert BayesianOptimizer._argmax_stable(scores, candidates) == \
            int(np.argmax(scores))

    def test_nan_scores_fall_back_to_numpy_behaviour(self):
        scores = np.array([0.2, float("nan"), 0.8])
        candidates = np.array([[0.0], [1.0], [2.0]])
        assert BayesianOptimizer._argmax_stable(scores, candidates) == \
            int(np.argmax(scores))


# --------------------------------------------------------------------------- #
class TestEarlyTermination:
    def test_preserves_the_winner_on_the_seeded_fixture(self, split):
        """With a margin, dominated trials are cut short — and on this
        seeded fixture the winner (alpha, objective, trained weights) is
        exactly the no-margin one.  (Termination is a heuristic on the
        clean reading: a terminated trial can never win *its own* run, but
        an aggressive margin may prune a trial whose drifted utility would
        have won the exhaustive search — which is why this is pinned to a
        fixture rather than claimed in general.)"""
        plain = make_search(split, suggest_batch=2).run(n_trials=4)
        pruned = make_search(split, suggest_batch=2,
                             early_stop_margin=0.02).run(n_trials=4)
        assert sum(pruned.trial_terminated) >= 1
        assert pruned.best_objective == plain.best_objective
        np.testing.assert_array_equal(pruned.best_alpha, plain.best_alpha)
        assert _state_sha256(pruned.best_state) == \
            _state_sha256(plain.best_state)
        for value, terminated in zip(pruned.trial_objectives,
                                     pruned.trial_terminated):
            if terminated:
                assert value < pruned.best_objective

    def test_first_batch_has_no_baseline(self, split):
        pruned = make_search(split, suggest_batch=2,
                             early_stop_margin=0.0).run(n_trials=4)
        assert pruned.trial_terminated[:2] == [False, False]

    def test_deterministic_across_workers(self, split):
        base = make_search(split, suggest_batch=2,
                           early_stop_margin=0.02).run(n_trials=4)
        fanned = make_search(split, suggest_batch=2, early_stop_margin=0.02,
                             search_workers=2).run(n_trials=4)
        assert base.to_json() == fanned.to_json()
        assert base.trial_terminated == fanned.trial_terminated


# --------------------------------------------------------------------------- #
def _square_task(context, payload):
    return {"index": payload["index"],
            "value": payload["x"] ** 2 + context["offset"]}


def _exit_in_worker_task(context, payload):
    if os.getpid() != context["parent"]:
        os._exit(1)  # kill the worker: only in-process execution survives
    return {"index": payload["index"], "value": payload["x"]}


class TestSearchTrialPool:
    def test_serial_backend_runs_in_order(self):
        pool = SearchTrialPool(_square_task, {"offset": 1}, workers=0)
        results = pool.run_batch([{"index": i, "x": i} for i in range(4)])
        assert [r["value"] for r in results] == [1, 2, 5, 10]
        assert pool.used_backend == "serial"
        assert pool.tasks_shipped == 0
        pool.close()

    def test_process_backend_returns_payload_order(self):
        pool = SearchTrialPool(_square_task, {"offset": 0}, workers=2)
        try:
            results = pool.run_batch([{"index": i, "x": i} for i in range(6)])
            assert [r["index"] for r in results] == list(range(6))
            assert [r["value"] for r in results] == [i ** 2 for i in range(6)]
            assert pool.tasks_shipped == 6
            # The pool is persistent: a second batch reuses the workers.
            again = pool.run_batch([{"index": 0, "x": 7}])
            assert again[0]["value"] == 49
        finally:
            pool.close()

    def test_single_payload_runs_in_process(self):
        pool = SearchTrialPool(_square_task, {"offset": 0}, workers=2)
        results = pool.run_batch([{"index": 0, "x": 3}])
        assert results[0]["value"] == 9
        assert pool.tasks_shipped == 0
        pool.close()

    def test_pool_breakage_falls_back_to_serial(self):
        pool = SearchTrialPool(_exit_in_worker_task, {"parent": os.getpid()},
                               workers=2)
        try:
            with pytest.warns(RuntimeWarning, match="fell back"):
                results = pool.run_batch(
                    [{"index": i, "x": i * 10} for i in range(3)])
            assert [r["value"] for r in results] == [0, 10, 20]
            assert pool.fell_back
            # Later batches stay serial without re-warning.
            again = pool.run_batch([{"index": 0, "x": 5}, {"index": 1, "x": 6}])
            assert [r["value"] for r in again] == [5, 6]
        finally:
            pool.close()

    def test_deterministic_task_error_propagates(self):
        def boom(context, payload):
            raise RuntimeError("trial exploded")

        pool = SearchTrialPool(boom, {}, workers=0)
        with pytest.raises(RuntimeError, match="trial exploded"):
            pool.run_batch([{"index": 0}, {"index": 1}])
        pool.close()


# --------------------------------------------------------------------------- #
class TestSchedulerValidation:
    def test_invalid_arguments(self, split):
        with pytest.raises(ValueError):
            make_search(split, suggest_batch=0)
        with pytest.raises(ValueError):
            make_search(split, search_workers=-1)
        with pytest.raises(ValueError):
            make_search(split, early_stop_margin=-0.1)
        with pytest.raises(ValueError):
            AsyncTrialScheduler(object(), object(), suggest_batch=0)

    def test_custom_objective_requires_engine_contract(self, split):
        train_set, _ = split

        class Flat:
            def evaluate(self, model):
                return 0.0

        model = build_mlp(256, depth=3, width=16, num_classes=10, rng=5)
        space = DropoutSearchSpace(model)
        search = BayesFTSearch(space, Flat(), train_set, suggest_batch=2,
                               rng=0)
        with pytest.raises(TypeError, match="async search"):
            search.run(n_trials=2)
