import numpy as np
import pytest

from milliflow.errors import ConfigError, EmptyInput, EmptyMask, LengthMismatch
from milliflow.metrics import (
    FlowMetrics,
    aggregate_flow_metrics,
    flow_metrics,
    mean_iou,
    mean_joint_error,
    overall_accuracy,
)


def vecs(*rows):
    return np.array(rows, dtype=np.float64)


class TestFlowMetrics:
    def test_perfect_prediction(self):
        gt = vecs((0.1, 0, 0), (0.0, 0.02, 0), (0, 0, 0))
        m = flow_metrics(gt.copy(), gt)
        assert m.epe_all == 0.0
        assert m.acc_strict == 1.0
        assert m.acc_relax == 1.0

    def test_relax_hit_strict_miss(self):
        gt = vecs((0.1, 0, 0))
        pred = vecs((0.07, 0, 0))
        m = flow_metrics(pred, gt)
        assert m.n_moving == 1
        assert m.epe_all == pytest.approx(0.03)
        assert m.acc_strict == 0.0  # 0.03 >= 0.025 and 0.3 >= 0.05
        assert m.acc_relax == 1.0  # 0.03 < 0.05

    def test_moving_threshold_is_strict_inequality(self):
        gt = vecs((0.005, 0, 0), (0.01, 0, 0), (0.0100001, 0, 0))
        m = flow_metrics(gt.copy(), gt)
        assert m.n_static == 2  # 0.005 and exactly 0.01 both static
        assert m.n_moving == 1

    def test_population_counts_sum(self):
        rng = np.random.default_rng(0)
        gt = rng.normal(scale=0.02, size=(50, 3))
        pred = gt + rng.normal(scale=0.01, size=(50, 3))
        m = flow_metrics(pred, gt)
        assert m.n_moving + m.n_static == m.n_points == 50

    def test_subpopulation_epe(self):
        gt = vecs((0.2, 0, 0), (0, 0, 0))
        pred = vecs((0.24, 0, 0), (0.01, 0, 0))
        m = flow_metrics(pred, gt)
        assert m.epe_moving == pytest.approx(0.04)
        assert m.epe_static == pytest.approx(0.01)
        assert m.epe_all == pytest.approx(0.025)

    def test_no_moving_points_gives_nan(self):
        gt = np.zeros((3, 3))
        m = flow_metrics(gt.copy(), gt)
        assert np.isnan(m.epe_moving)
        assert m.epe_static == 0.0

    def test_relative_rule_guard(self):
        # tiny reference flow: only the absolute rule may grant a hit
        gt = vecs((1e-9, 0, 0))
        m = flow_metrics(vecs((0.03, 0, 0)), gt)
        assert m.acc_strict == 0.0
        assert m.acc_relax == 1.0  # 0.03 < 0.05 absolute
        m = flow_metrics(vecs((1e-10, 0, 0)), gt)
        assert m.acc_strict == 1.0  # error ~1e-10 < 0.025

    def test_relative_rule_helps_large_flows(self):
        gt = vecs((1.0, 0, 0))
        pred = vecs((1.03, 0, 0))  # error 0.03 >= 0.025, ratio 0.03 < 0.05
        assert flow_metrics(pred, gt).acc_strict == 1.0

    def test_mask_selects_points(self):
        gt = vecs((0.1, 0, 0), (9.0, 9.0, 9.0))
        pred = vecs((0.1, 0, 0), (0.0, 0.0, 0.0))
        m = flow_metrics(pred, gt, eval_mask=np.array([True, False]))
        assert m.epe_all == 0.0
        assert m.n_points == 1

    def test_empty_mask_raises(self):
        with pytest.raises(EmptyMask):
            flow_metrics(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2, dtype=bool))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            flow_metrics(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(LengthMismatch):
            flow_metrics(np.zeros((2, 3)), np.zeros((2, 3)), np.ones(3, dtype=bool))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        gt = rng.normal(scale=0.05, size=(40, 3))
        pred = gt + rng.normal(scale=0.02, size=(40, 3))
        mask = rng.random(40) < 0.8
        perm = rng.permutation(40)
        a = flow_metrics(pred, gt, mask)
        b = flow_metrics(pred[perm], gt[perm], mask[perm])
        assert (a.n_points, a.n_moving, a.n_static) == (b.n_points, b.n_moving, b.n_static)
        for field in ("epe_all", "epe_moving", "epe_static", "acc_strict", "acc_relax"):
            assert getattr(a, field) == pytest.approx(
                getattr(b, field), abs=1e-12, nan_ok=True
            )

    def test_strict_never_exceeds_relax(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = rng.integers(1, 30)
            gt = rng.normal(scale=0.05, size=(n, 3))
            pred = gt + rng.normal(scale=0.03, size=(n, 3))
            m = flow_metrics(pred, gt)
            assert m.acc_strict <= m.acc_relax

    def test_triangle_bound_on_epe(self):
        rng = np.random.default_rng(3)
        gt = rng.normal(size=(25, 3))
        mid = rng.normal(size=(25, 3))
        pred = rng.normal(size=(25, 3))
        lhs = flow_metrics(pred, gt).epe_all
        rhs = flow_metrics(pred, mid).epe_all + flow_metrics(mid, gt).epe_all
        assert lhs <= rhs + 1e-12


class TestAggregation:
    def test_mean_of_frames(self):
        a = flow_metrics(vecs((0.1, 0, 0)), vecs((0.2, 0, 0)))
        b = flow_metrics(vecs((0.3, 0, 0)), vecs((0.3, 0, 0)))
        out = aggregate_flow_metrics([a, b], n_excluded=1)
        assert out["epe3d"]["all"] == pytest.approx(0.05)
        assert out["n_frames"] == 2
        assert out["n_frames_excluded"] == 1
        assert out["n_points"] == 2

    def test_nan_subpopulations_skipped(self):
        static_only = flow_metrics(np.zeros((2, 3)), np.zeros((2, 3)))
        moving = flow_metrics(vecs((0.22, 0, 0)), vecs((0.2, 0, 0)))
        out = aggregate_flow_metrics([static_only, moving])
        assert out["epe3d"]["moving"] == pytest.approx(0.02)
        assert out["epe3d"]["static"] == 0.0

    def test_empty_list_raises(self):
        with pytest.raises(EmptyInput):
            aggregate_flow_metrics([])


class TestOverallAccuracy:
    def test_examples(self):
        assert overall_accuracy([0, 1, 2, 3], [0, 1, 2, 3]) == 1.0
        assert overall_accuracy([0, 1, 0, 0], [0, 1, 2, 3]) == 0.5
        assert overall_accuracy([1, 1], [0, 0]) == 0.0

    def test_errors(self):
        with pytest.raises(EmptyInput):
            overall_accuracy([], [])
        with pytest.raises(LengthMismatch):
            overall_accuracy([0], [0, 1])


class TestMeanIou:
    def test_perfect(self):
        labels = np.array([0, 1, 2, 3, 4, 5])
        assert mean_iou(labels, labels, n_classes=6) == 1.0

    def test_hand_counted_example(self):
        gt = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 1, 1])
        assert mean_iou(pred, gt, n_classes=2) == pytest.approx(7 / 12)
        # absent classes excluded, so a larger class count changes nothing
        assert mean_iou(pred, gt, n_classes=6) == pytest.approx(7 / 12)

    def test_absent_class_excluded(self):
        gt = np.array([0, 0])
        pred = np.array([0, 0])
        assert mean_iou(pred, gt, n_classes=6) == 1.0

    def test_errors(self):
        with pytest.raises(EmptyInput):
            mean_iou([], [], n_classes=6)
        with pytest.raises(LengthMismatch):
            mean_iou([0], [0, 1], n_classes=6)
        with pytest.raises(ConfigError):
            mean_iou([0, 6], [0, 0], n_classes=6)


class TestMeanJointError:
    def test_exact(self):
        pts = np.arange(12.0).reshape(2, 2, 3)
        assert mean_joint_error(pts, pts) == 0.0

    def test_uniform_offset(self):
        gt = np.zeros((4, 3))
        pred = gt + np.array([0.02, 0, 0])
        assert mean_joint_error(pred, gt) == pytest.approx(0.02)

    def test_arithmetic_mean(self):
        gt = np.zeros((2, 3))
        pred = np.array([[0.01, 0, 0], [0.03, 0, 0]])
        assert mean_joint_error(pred, gt) == pytest.approx(0.02)

    def test_errors(self):
        with pytest.raises(LengthMismatch):
            mean_joint_error(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(EmptyInput):
            mean_joint_error(np.zeros((0, 3)), np.zeros((0, 3)))
