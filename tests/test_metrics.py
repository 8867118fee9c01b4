"""Metrics, McNemar, ECE, temperature scaling."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from hvt import metrics as M
from hvt.errors import ConfigError, InputError
from hvt.metrics import PredictionSet


def preds_from_pairs(y_true, y_pred, classes):
    probs = np.full((len(y_true), classes), 0.1 / (classes - 1))
    probs[np.arange(len(y_true)), y_pred] = 0.9
    return PredictionSet(np.array(y_true), np.array(y_pred), probs)


class TestClassificationMetrics:
    def test_all_correct(self):
        p = preds_from_pairs([0, 1, 2, 1], [0, 1, 2, 1], 3)
        rep = M.classification_metrics(p)
        assert rep.accuracy == 1.0
        assert rep.macro_f1 == 1.0
        off_diag = rep.confusion - np.diag(np.diag(rep.confusion))
        assert np.all(off_diag == 0)

    def test_degenerate_predictor_hand_values(self):
        # two classes, predictions all class 0, balanced truth
        p = preds_from_pairs([0, 0, 1, 1], [0, 0, 0, 0], 2)
        rep = M.classification_metrics(p)
        assert rep.accuracy == 0.5
        c0, c1 = rep.per_class
        assert c0["precision"] == 0.5 and c0["recall"] == 1.0
        assert c0["f1"] == pytest.approx(2 / 3)
        assert c1["precision"] == 0.0 and c1["recall"] == 0.0 and c1["f1"] == 0.0
        assert c1["no_predictions"]
        assert rep.macro_f1 == pytest.approx(1 / 3)

    def test_confusion_row_sums_are_support(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 5, size=200)
        y_pred = rng.integers(0, 5, size=200)
        rep = M.classification_metrics(preds_from_pairs(y_true, y_pred, 5))
        for k in range(5):
            assert rep.confusion[k].sum() == np.sum(y_true == k)
            assert rep.per_class[k]["support"] == np.sum(y_true == k)

    def test_report_json_stable(self):
        # to_dict() is what `hvt eval` writes as metrics.json: plain JSON
        # values that round-trip, and the same text for the same predictions
        p = preds_from_pairs([0, 1, 1], [0, 1, 0], 2)
        d = M.classification_metrics(p).to_dict()
        text = json.dumps(d, sort_keys=True, indent=2)
        assert json.loads(text) == d
        assert text == json.dumps(M.classification_metrics(p).to_dict(), sort_keys=True, indent=2)
        assert d["confusion"] == [[1, 0], [1, 1]] and d["n"] == 3

    def test_label_out_of_range_rejected(self):
        with pytest.raises(InputError):
            preds_from_pairs([0, 3], [0, 1], 3)


class TestMcNemar:
    def test_fifteen_zero_exact_binomial(self):
        a = np.ones(100, dtype=bool)
        b = a.copy()
        b[:15] = False  # A right, B wrong on 15 items
        stat, p = M.mcnemar_test(a, b)
        assert abs(p - 2.0 * 0.5 ** 15) < 1e-6
        assert abs(p - 6.103515625e-5) < 1e-6

    def test_balanced_discordance_no_evidence(self):
        for b_count in (3, 10, 20):  # spans exact and chi-square regimes
            a = np.ones(2 * b_count + 10, dtype=bool)
            b = np.ones_like(a)
            a[:b_count] = False
            b[b_count:2 * b_count] = False
            _, p = M.mcnemar_test(a, b)
            assert p >= 0.75

    def test_chi_square_regime_hand_value(self):
        # b=40, c=10: continuity-corrected statistic (|30|-1)^2 / 50 = 16.82
        a = np.ones(120, dtype=bool)
        b = np.ones_like(a)
        b[:40] = False
        a[40:50] = False
        stat, p = M.mcnemar_test(a, b)
        assert stat == pytest.approx(16.82)
        assert p < 0.001

    def test_symmetry_under_model_swap(self):
        rng = np.random.default_rng(1)
        a = rng.random(300) < 0.8
        b = rng.random(300) < 0.7
        stat_ab, p_ab = M.mcnemar_test(a, b)
        stat_ba, p_ba = M.mcnemar_test(b, a)
        assert p_ab == p_ba
        assert stat_ab == stat_ba

    def test_no_discordance_convention(self):
        a = np.array([True, False, True])
        stat, p = M.mcnemar_test(a, a)
        assert p == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            M.mcnemar_test(np.ones(3, bool), np.ones(4, bool))

    @staticmethod
    def _discordant(b, c):
        """Paired outcomes with b items only A gets right and c only B does."""
        a = np.arange(b + c) < b
        return a, ~a

    def test_chi_square_branch_matches_scipy(self):
        pairs = [(b, n - b) for n in range(25, 401) for b in range(n + 1)]
        got = np.array([M.mcnemar_test(*self._discordant(b, c)) for b, c in pairs])
        b, c = np.array(pairs).T
        assert np.array_equal(got[:, 0], (np.abs(b - c) - 1.0) ** 2 / (b + c))
        np.testing.assert_allclose(got[:, 1], stats.chi2.sf(got[:, 0], df=1),
                                   rtol=1e-12, atol=0.0)

    def test_exact_branch_is_the_doubled_binomial_tail(self):
        # every value below b + c = 25 is a dyadic rational, so float() of
        # the exact fraction is the value bit for bit
        for n in range(1, 25):
            for b in range(n + 1):
                k = min(b, n - b)
                want = min(Fraction(1), Fraction(2 * sum(math.comb(n, i) for i in range(k + 1)),
                                                 2 ** n))
                assert M.mcnemar_test(*self._discordant(b, n - b)) == (float(k), float(want))


class TestECE:
    def test_confident_and_correct_is_zero(self):
        n, c = 50, 4
        y = np.random.default_rng(0).integers(0, c, size=n)
        probs = np.zeros((n, c))
        probs[np.arange(n), y] = 1.0
        assert M.ece(PredictionSet(y, y, probs)) == 0.0

    def test_single_bin_hand_value(self):
        # 100 samples at confidence 0.8, 60 correct -> ECE = |0.6 - 0.8|
        y_true = np.array([0] * 60 + [1] * 40)
        probs = np.tile([0.8, 0.2], (100, 1))
        p = PredictionSet(y_true, np.zeros(100, dtype=int), probs)
        assert M.ece(p) == pytest.approx(0.2)

    def test_perfectly_calibrated_sampler(self):
        rng = np.random.default_rng(42)
        n, c = 10_000, 4
        probs = rng.dirichlet(np.ones(c), size=n)
        y = np.array([rng.choice(c, p=row) for row in probs])
        value = M.ece(PredictionSet.from_probs(y, probs))
        assert value < 0.02

    def test_bounds_and_permutation_invariance(self):
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(3), size=500)
        y = rng.integers(0, 3, size=500)
        p = PredictionSet.from_probs(y, probs)
        val = M.ece(p)
        assert 0.0 <= val <= 1.0
        perm = rng.permutation(500)
        shuffled = PredictionSet(y[perm], p.y_pred[perm], probs[perm])
        assert M.ece(shuffled) == pytest.approx(val, abs=1e-12)

    @pytest.mark.parametrize("bins", [0, -3])
    def test_bins_below_1_rejected(self, bins):
        p = preds_from_pairs([0, 1, 1], [0, 1, 0], 2)
        for fn in (M.reliability_bins, M.ece):
            with pytest.raises(ConfigError, match="ece_bins"):
                fn(p, bins=bins)

    def test_bin_counts_sum_to_n(self):
        rng = np.random.default_rng(3)
        probs = rng.dirichlet(np.ones(5), size=333)
        p = PredictionSet.from_probs(rng.integers(0, 5, size=333), probs)
        rb = M.reliability_bins(p)
        assert rb.counts.sum() == 333
        assert len(rb.rows()) == M.ECE_BINS


def calibrated_logits(rng, n=4000, c=5, spread=1.5):
    logits = rng.normal(size=(n, c)) * spread
    probs = M.apply_temperature(logits, 1.0)
    labels = np.array([rng.choice(c, p=row) for row in probs])
    return logits, labels


class TestTemperature:
    def test_calibrated_logits_recover_one(self):
        logits, labels = calibrated_logits(np.random.default_rng(0))
        t, degenerate = M.fit_temperature(logits, labels)
        assert not degenerate
        assert abs(t - 1.0) < 0.05
        assert not M.temperature_at_bound(t)

    def test_doubled_logits_recover_two(self):
        logits, labels = calibrated_logits(np.random.default_rng(1))
        t, _ = M.fit_temperature(2.0 * logits, labels)
        assert abs(t - 2.0) < 0.05
        assert not M.temperature_at_bound(t)

    def test_nll_at_fit_never_worse(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            logits, labels = calibrated_logits(rng, n=500)
            t, _ = M.fit_temperature(3.0 * logits, labels)
            assert M.nll(3.0 * logits, labels, t) <= M.nll(3.0 * logits, labels, 1.0) + 1e-12

    def test_degenerate_logits_flagged(self):
        logits = np.ones((10, 4))
        t, degenerate = M.fit_temperature(logits, np.zeros(10, dtype=int))
        assert t == 1.0 and degenerate

    def test_boundary_fit_flagged_at_bound(self):
        # the correct class always leads (trails): NLL keeps falling as T
        # shrinks (grows), so the search ends on the edge of its bracket
        labels = np.arange(40) % 5
        onehot = np.eye(5)[labels]
        t_low, degenerate = M.fit_temperature(0.01 * onehot, labels)
        t_high, _ = M.fit_temperature(-0.01 * onehot, labels)
        assert not degenerate
        assert abs(math.log(t_low) + 3.0) < 1e-3 and M.temperature_at_bound(t_low)
        assert abs(math.log(t_high) - 3.0) < 1e-3 and M.temperature_at_bound(t_high)

    def test_exact_fit_below_the_old_bracket(self):
        # two of 40 predictions wrong: NLL has an interior minimum at
        # log T ~ -6.07, well below the e^-3 edge answer
        labels = np.arange(40) % 5
        pointed = labels.copy()
        pointed[:2] = (labels[:2] + 1) % 5
        z = 0.01 * np.eye(5)[pointed]
        t, degenerate = M.fit_temperature(z, labels)
        assert not degenerate and not M.temperature_at_bound(t)
        assert abs(math.log(t) + 6.07) < 0.01
        assert abs(M.nll(z, labels, t) - 0.268) < 1e-3
        for step in (1 + 1e-6, 1 - 1e-6):
            assert M.nll(z, labels, t) <= M.nll(z, labels, t * step)

    def test_edge_answers_exact(self):
        # all correct: no finite minimum, T -> 0; anti-informative: no T
        # beats uniform, T -> inf. Both answers stay finite and positive.
        labels = np.arange(40) % 5
        onehot = np.eye(5)[labels]
        assert M.fit_temperature(0.01 * onehot, labels) == (math.exp(-3.0), False)
        assert M.fit_temperature(-0.01 * onehot, labels) == (math.exp(3.0), False)
        assert M.temperature_at_bound(math.exp(-3.0))
        assert M.temperature_at_bound(math.exp(3.0))
        # a tie with the label counts as right
        tied = 0.01 * onehot
        tied[0, (labels[0] + 1) % 5] = 0.01
        assert M.fit_temperature(tied, labels) == (math.exp(-3.0), False)

    @pytest.mark.parametrize("case", ["nan", "inf", "label_high", "label_negative",
                                      "label_count", "one_dim", "empty"])
    def test_bad_fit_input_rejected(self, case):
        logits = np.random.default_rng(7).normal(size=(6, 3))
        labels = np.arange(6) % 3
        if case in ("nan", "inf"):
            logits[2, 1] = float(case)
        elif case == "label_high":
            labels[4] = 3
        elif case == "label_negative":
            labels[4] = -1
        elif case == "label_count":
            labels = labels[:5]
        elif case == "one_dim":
            logits = logits[:, 0]
        else:
            logits, labels = np.zeros((0, 3)), labels[:0]
        with pytest.raises(InputError):
            M.fit_temperature(logits, labels)

    @pytest.mark.parametrize("labels", [[0, -1], [0, 3], [0], [0, 1, 2], [0.0, 2.0]],
                             ids=["negative", "high", "short", "long", "float"])
    def test_nll_rejects_bad_labels(self, labels):
        # -1 would index the last class: the same value as labels [0, 2]
        with pytest.raises(InputError, match=r"label in \[0, 3\)"):
            M.nll([[2, 0, -1], [0, 1, 3]], labels)
        assert M.nll([[2, 0, -1], [0, 1, 3]], [0, 2]) == pytest.approx(0.1698, abs=1e-4)

    def test_apply_identity_at_one(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(6, 4))
        e = np.exp(z - z.max(axis=1, keepdims=True))
        np.testing.assert_allclose(M.apply_temperature(z, 1.0),
                                   e / e.sum(axis=1, keepdims=True), atol=1e-12)

    def test_argmax_invariance_exact(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(200, 7)) * 3
        base = np.argmax(z, axis=1)
        for t in (0.5, 1.15, 10.0):
            assert np.array_equal(np.argmax(M.apply_temperature(z, t), axis=1), base)

    def test_high_temperature_limit_uniform(self):
        z = np.random.default_rng(5).normal(size=(10, 4)) * 5
        probs = M.apply_temperature(z, 1e6)
        np.testing.assert_allclose(probs, 0.25, atol=1e-3)

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ConfigError):
            M.apply_temperature(np.ones((2, 2)), 0.0)

    def test_scaling_usually_improves_ece(self):
        rng = np.random.default_rng(6)
        wins = 0
        trials = 20
        for _ in range(trials):
            logits, labels = calibrated_logits(rng, n=1500, c=4)
            over = 2.5 * logits  # overconfident
            t, _ = M.fit_temperature(over, labels)
            before = M.ece(PredictionSet.from_probs(labels, M.apply_temperature(over, 1.0)))
            after = M.ece(PredictionSet.from_probs(labels, M.apply_temperature(over, t)))
            wins += int(after <= before)
        assert wins >= int(0.95 * trials)


class TestPredictionSetCSV:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(3), size=20)
        p = PredictionSet.from_probs(rng.integers(0, 3, size=20), probs)
        path = tmp_path / "preds.csv"
        p.save_csv(path)
        back = PredictionSet.load_csv(path)
        assert np.array_equal(back.y_true, p.y_true)
        assert np.array_equal(back.y_pred, p.y_pred)
        np.testing.assert_array_equal(back.probs, p.probs)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(InputError):
            PredictionSet.load_csv(path)

    def test_row_sum_validated(self):
        with pytest.raises(InputError):
            PredictionSet(np.array([0]), np.array([0]), np.array([[0.5, 0.4]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_rejected(self, bad):
        # NaN - 1 compares False against any tolerance, so the row-sum
        # check alone would let a NaN row through
        probs = np.array([[0.5, 0.5], [bad, 0.5]])
        with pytest.raises(InputError, match="finite"):
            PredictionSet(np.array([0, 1]), np.array([0, 1]), probs)
