"""Pool generation, plurality voting, backward elimination, parallel inference."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ensyth as E
from ensyth import pruner
from ensyth.ensemble import (
    EliminationStep,
    EliminationTrace,
    Ensemble,
    ModelPool,
    VoteMatrix,
    backward_eliminate,
    best_ensemble,
    ensemble_accuracy,
    generate_pool,
    plurality_vote,
    predict_parallel,
    read_trace_csv,
    vote_matrix,
    write_trace_csv,
)
from ensyth.network import ReluNetwork
from ensyth.tensor import DenseMatrix

from conftest import full_grid, make_pruned, random_network

# Three fine-tune sets, as in the benchmark's pool-finetune workload, sized
# for the two-layer ``trained_fixture`` network.
_SETS = ({"l2": 0.001},
         {"l2": (0.0, 0.004)},
         {"l2": (0.0, 0.004), "dropout_keep": (0.5, 1.0)})
_SHARED_EPSILONS = (0.1, 0.3)


def _sets_grid(fine_tune_epochs):
    return [E.PruneConfig(epsilon_gain=e, fine_tune_epochs=fine_tune_epochs,
                          set_id=f"set{i + 1}", **coeffs)
            for i, coeffs in enumerate(_SETS) for e in _SHARED_EPSILONS]


def naive_plurality(column, classes):
    """Count votes and argmax with lowest-index tie break."""
    counts = [0] * classes
    for v in column:
        counts[v] += 1
    best = 0
    for j in range(1, classes):
        if counts[j] > counts[best]:
            best = j
    return best


def _dummy_pool(n, classes=3, nnz_counts=None, seed=0):
    """Pool of tiny pruned models; nnz_counts fixes each member's weight count."""
    rng = np.random.default_rng(seed)
    members = []
    for i in range(n):
        w = rng.normal(size=(4, classes))
        if nnz_counts is not None:
            flat = w.reshape(-1)
            keep = nnz_counts[i]
            flat[np.argsort(np.abs(flat))[:flat.size - keep]] = 0.0
            if (flat != 0.0).sum() != keep:
                raise AssertionError("fixture construction failed")
        net = ReluNetwork((4, classes), (w,), (rng.normal(size=classes) * 0.1,))
        members.append(make_pruned(net))
    return ModelPool(members=tuple(members), baseline_ref="b",
                     grid_manifest=tuple(m.config for m in members))


class TestDefaultGrid:
    def test_thirty_six_configs(self):
        grid = full_grid()
        assert len(grid) == 36
        assert len([c for c in grid if c.set_id == "set1"]) == 12
        assert tuple(c.epsilon_gain for c in grid[:12]) == (
            0.01, 0.02, 0.04, 0.06, 0.08, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)

    def test_set_hyperparameters(self):
        grid = full_grid()
        by_set = {c.set_id: c for c in grid}
        assert by_set["set1"].l2 == 1.0 and by_set["set1"].dropout_keep == 1.0
        assert by_set["set2"].l2 == (0.0, 0.0, 0.004, 0.004, 0.0)
        assert by_set["set3"].dropout_keep == 0.5
        assert all(c.l1 == 0.0 for c in grid)


class TestGeneratePool:
    def test_singleton_grid(self, trained_fixture):
        pool = generate_pool(trained_fixture["net"],
                             [E.PruneConfig(epsilon_gain=0.1)],
                             trained_fixture["train"])
        assert len(pool) == 1

    def test_order_and_feasibility(self, trained_fixture):
        grid = [E.PruneConfig(epsilon_gain=e) for e in (0.05, 0.2, 0.4)]
        pool = generate_pool(trained_fixture["net"], grid, trained_fixture["train"])
        assert [m.config.epsilon_gain for m in pool.members] == [0.05, 0.2, 0.4]
        for member in pool.members:
            for rep in member.feasibility_report:
                assert rep.residual <= rep.epsilon * (1 + 1e-3)

    def test_default_grid_yields_36_members(self):
        ds = E.synth_blobs(seed=4, samples_per_class=20, classes=3, dim=4,
                           spread=0.8)
        net = E.train(ReluNetwork.initialize([4, 3], seed=0), ds,
                      E.TrainConfig(epochs=10, batch_size=10, learning_rate=0.05))
        pool = generate_pool(net, full_grid(), ds)
        assert len(pool) == 36

    def test_workers_do_not_change_result(self, trained_fixture):
        grid = [E.PruneConfig(epsilon_gain=e) for e in (0.1, 0.3)]
        seq = generate_pool(trained_fixture["net"], grid, trained_fixture["train"])
        par = generate_pool(trained_fixture["net"], grid, trained_fixture["train"],
                            workers=4)
        for a, b in zip(seq.members, par.members):
            assert a.network == b.network


class TestSharedSolves:
    """The pool solves each distinct epsilon once and fine-tunes per config."""

    @pytest.fixture(scope="class")
    def standalone(self, trained_fixture):
        """Member digests from one ``prune_network`` call per config."""
        f = trained_fixture
        return {epochs: [E.bundle_digest(pruner.prune_network(
                    f["net"], f["train"], cfg, train_template=f["cfg"]))
                         for cfg in _sets_grid(epochs)]
                for epochs in (0, 2)}

    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("epochs", (0, 2))
    def test_one_solve_per_epsilon_and_same_bits(self, trained_fixture, standalone,
                                                 monkeypatch, epochs, workers):
        f = trained_fixture
        solved = []
        real = pruner._solve_layer

        def counted(*args, **kwargs):
            solved.append(args[4])
            return real(*args, **kwargs)

        monkeypatch.setattr(pruner, "_solve_layer", counted)
        grid = _sets_grid(epochs)
        pool = generate_pool(f["net"], grid, f["train"], train_template=f["cfg"],
                             workers=workers)
        assert len(solved) == len(_SHARED_EPSILONS) * f["net"].depth
        assert sorted(set(solved)) == list(_SHARED_EPSILONS)
        assert list(pool.grid_manifest) == grid
        assert [m.config for m in pool.members] == grid
        assert [E.bundle_digest(m) for m in pool.members] == standalone[epochs]


class TestVoteMatrix:
    def test_identical_members_identical_rows(self):
        pool = _dummy_pool(1)
        clones = ModelPool(members=pool.members * 3, baseline_ref="b",
                           grid_manifest=pool.grid_manifest * 3)
        x = DenseMatrix(np.random.default_rng(1).normal(size=(4, 9)))
        votes = vote_matrix(clones, x)
        assert (votes.labels == votes.labels[0]).all()

    def test_single_sample_single_model(self):
        pool = _dummy_pool(1)
        x = DenseMatrix(np.random.default_rng(2).normal(size=(4, 1)))
        votes = vote_matrix(pool, x)
        assert votes.labels.shape == (1, 1)
        assert votes.labels[0, 0] == E.predict(pool.members[0].network, x)[0]

    def test_rows_match_standalone_predictions(self):
        pool = _dummy_pool(5, seed=3)
        x = DenseMatrix(np.random.default_rng(4).normal(size=(4, 20)))
        votes = vote_matrix(pool, x)
        for i, member in enumerate(pool.members):
            assert votes.labels[i].tolist() == \
                E.predict(member.network, x).tolist()


class TestPluralityVote:
    def test_single_voter(self):
        votes = VoteMatrix(np.array([[2, 0, 1]]), 3)
        ens = Ensemble((0,), 0.0)
        assert [plurality_vote(ens, votes, s) for s in range(3)] == [2, 0, 1]

    def test_majority_beats_minority(self):
        votes = VoteMatrix(np.array([[0], [0], [1]]), 2)
        assert plurality_vote(Ensemble((0, 1, 2), 0.0), votes, 0) == 0

    def test_tie_goes_to_lowest_class(self):
        votes = VoteMatrix(np.array([[0], [1]]), 2)
        assert plurality_vote(Ensemble((0, 1), 0.0), votes, 0) == 0

    @given(st.integers(1, 9), st.integers(2, 10), st.integers(1, 30),
           st.integers(0, 2**32 - 1))
    def test_matches_naive_count(self, n, classes, samples, seed):
        rng = np.random.default_rng(seed)
        votes = VoteMatrix(rng.integers(0, classes, size=(n, samples)), classes)
        ens = Ensemble(tuple(range(n)), 0.0)
        for s in range(samples):
            assert plurality_vote(ens, votes, s) == \
                naive_plurality(votes.labels[:, s], classes)

    def test_unanimity(self):
        votes = VoteMatrix(np.full((5, 4), 3), 5)
        ens = Ensemble(tuple(range(5)), 0.0)
        assert all(plurality_vote(ens, votes, s) == 3 for s in range(4))


class TestEnsembleAccuracy:
    def test_all_correct(self):
        votes = VoteMatrix(np.zeros((3, 6), dtype=int), 2)
        truth = np.zeros(6, dtype=int)
        assert ensemble_accuracy(Ensemble((0, 1, 2), 0.0), votes, truth) == 1.0

    def test_single_member_equals_standalone(self):
        rng = np.random.default_rng(7)
        votes = VoteMatrix(rng.integers(0, 3, size=(4, 25)), 3)
        truth = rng.integers(0, 3, size=25)
        for i in range(4):
            standalone = (votes.labels[i] == truth).mean()
            assert ensemble_accuracy(Ensemble((i,), 0.0), votes, truth) == standalone

    def test_matches_per_sample_recount(self):
        rng = np.random.default_rng(8)
        votes = VoteMatrix(rng.integers(0, 4, size=(5, 30)), 4)
        truth = rng.integers(0, 4, size=30)
        ens = Ensemble((0, 2, 4), 0.0)
        correct = sum(plurality_vote(ens, votes, s) == truth[s] for s in range(30))
        assert ensemble_accuracy(ens, votes, truth) == correct / 30


def _votes_with_standalone_accs(fracs, samples=20):
    """Member i is correct on the first round(fracs[i]*samples) samples."""
    truth = np.zeros(samples, dtype=int)
    rows = []
    for frac in fracs:
        k = round(frac * samples)
        row = np.ones(samples, dtype=int)
        row[:k] = 0
        rows.append(row)
    return VoteMatrix(np.stack(rows), 2), truth


class TestBackwardEliminate:
    def test_single_member_pool(self):
        pool = _dummy_pool(1)
        votes, truth = _votes_with_standalone_accs([0.5])
        trace = backward_eliminate(pool, votes, truth)
        assert len(trace) == 1
        assert trace.steps[0].removed_id is None

    def test_removes_in_ascending_standalone_order(self):
        pool = _dummy_pool(3)
        votes, truth = _votes_with_standalone_accs([0.7, 0.5, 0.9])
        trace = backward_eliminate(pool, votes, truth)
        assert [s.removed_id for s in trace.steps] == [1, 0, None]
        assert [len(s.member_ids) for s in trace.steps] == [3, 2, 1]

    def test_tie_removes_more_parameters_then_higher_index(self):
        pool = _dummy_pool(3, nnz_counts=[4, 9, 9], seed=5)
        votes, truth = _votes_with_standalone_accs([0.5, 0.5, 0.5])
        trace = backward_eliminate(pool, votes, truth)
        # members 1 and 2 carry more weights; equal weights break to index 2
        assert trace.steps[0].removed_id == 2
        assert trace.steps[1].removed_id == 1

    def test_trace_is_strictly_nested(self):
        pool = _dummy_pool(5, seed=6)
        rng = np.random.default_rng(9)
        votes = VoteMatrix(rng.integers(0, 3, size=(5, 40)), 3)
        truth = rng.integers(0, 3, size=40)
        trace = backward_eliminate(pool, votes, truth)
        assert [len(s.member_ids) for s in trace.steps] == [5, 4, 3, 2, 1]
        for prev, cur in zip(trace.steps, trace.steps[1:]):
            assert set(cur.member_ids) < set(prev.member_ids)

    def test_recorded_accuracies_recompute_exactly(self):
        pool = _dummy_pool(4, seed=10)
        rng = np.random.default_rng(11)
        votes = VoteMatrix(rng.integers(0, 3, size=(4, 33)), 3)
        truth = rng.integers(0, 3, size=33)
        trace = backward_eliminate(pool, votes, truth)
        for step in trace.steps:
            ens = Ensemble(step.member_ids, 0.0)
            assert ensemble_accuracy(ens, votes, truth) == step.accuracy


class TestBestEnsemble:
    def _trace(self, accs_and_sizes):
        n = accs_and_sizes[0][1]
        steps = []
        members = list(range(n))
        for acc, size in accs_and_sizes:
            assert len(members) == size
            removed = members[-1] if size > 1 else None
            steps.append(EliminationStep(tuple(members), acc, removed))
            if removed is not None:
                members = members[:-1]
        return EliminationTrace(tuple(steps))

    def test_monotone_decreasing_keeps_full_pool(self):
        trace = self._trace([(0.9, 4), (0.8, 3), (0.7, 2), (0.6, 1)])
        assert best_ensemble(trace).member_ids == (0, 1, 2, 3)

    def test_equal_accuracy_prefers_smaller(self):
        trace = self._trace([(0.8, 4), (0.9, 3), (0.7, 2), (0.9, 1)])
        best = best_ensemble(trace)
        assert len(best) == 1 and best.accuracy == 0.9

    def test_matches_linear_scan(self):
        rng = np.random.default_rng(12)
        accs = rng.random(6)
        trace = self._trace(list(zip(accs, range(6, 0, -1))))
        best = best_ensemble(trace)
        assert best.accuracy == accs.max()


class TestPredictParallel:
    def test_worker_counts_agree(self):
        pool = _dummy_pool(5, seed=13)
        ens = Ensemble((0, 2, 3), 0.0)
        x = DenseMatrix(np.random.default_rng(14).normal(size=(4, 17)))
        a = predict_parallel(ens, pool, x, workers=1)
        b = predict_parallel(ens, pool, x, workers=8)
        assert a.tolist() == b.tolist()

    def test_single_member_equals_predict(self):
        pool = _dummy_pool(3, seed=15)
        x = DenseMatrix(np.random.default_rng(16).normal(size=(4, 11)))
        out = predict_parallel(Ensemble((1,), 0.0), pool, x, workers=2)
        assert out.tolist() == E.predict(pool.members[1].network, x).tolist()

    def test_matches_sequential_vote_path(self):
        pool = _dummy_pool(4, seed=17)
        x = DenseMatrix(np.random.default_rng(18).normal(size=(4, 13)))
        ens = Ensemble((0, 1, 3), 0.0)
        votes = vote_matrix(pool, x)
        expected = [plurality_vote(ens, votes, s) for s in range(13)]
        assert predict_parallel(ens, pool, x, workers=3).tolist() == expected

    def test_added_agreeing_member_never_flips(self):
        rng = np.random.default_rng(19)
        votes_base = rng.integers(0, 3, size=(4, 21))
        ens = Ensemble(tuple(range(4)), 0.0)
        votes = VoteMatrix(votes_base, 3)
        fused = [plurality_vote(ens, votes, s) for s in range(21)]
        grown = VoteMatrix(np.concatenate([votes_base, [fused]]), 3)
        ens5 = Ensemble(tuple(range(5)), 0.0)
        assert [plurality_vote(ens5, grown, s) for s in range(21)] == fused


class TestTraceCsv:
    def test_round_trip(self, tmp_path):
        pool = _dummy_pool(3, seed=20)
        rng = np.random.default_rng(21)
        votes = VoteMatrix(rng.integers(0, 3, size=(3, 15)), 3)
        truth = rng.integers(0, 3, size=15)
        trace = backward_eliminate(pool, votes, truth)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert back == trace

    def test_header_and_separator(self, tmp_path):
        pool = _dummy_pool(2, seed=22)
        votes, truth = _votes_with_standalone_accs([0.4, 0.6])
        path = tmp_path / "trace.csv"
        write_trace_csv(backward_eliminate(pool, votes, truth), path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,ensemble_size,accuracy,removed_id,member_ids"
        assert lines[1].split(",")[4] == "0;1"
