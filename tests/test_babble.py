import numpy as np
import pytest

from posturemap.babble import MAX_DURATION_S, SAMPLE_RATE_HZ, BabbleConfig, generate_babble
from posturemap.errors import TargetUnreachableError


class TestShapes:
    def test_one_minute_is_3000_rows(self, babble_60s):
        assert babble_60s.samples.shape == (3000, 13)
        assert babble_60s.duration_s == 60.0

    def test_single_sample_period(self):
        ds = generate_babble(BabbleConfig(seed=1, duration_s=0.02))
        assert ds.samples.shape == (1, 13)

    def test_joint_order(self, babble_60s):
        assert babble_60s.joint_names[:3] == ("shoulder_pitch", "shoulder_roll", "shoulder_yaw")
        assert babble_60s.joint_names[7:] == (
            "neck_pitch", "neck_roll", "neck_yaw", "eyes_tilt", "eyes_version", "eyes_vergence"
        )


class TestContracts:
    def test_deterministic_per_seed(self):
        a = generate_babble(BabbleConfig(seed=7, duration_s=4.0))
        b = generate_babble(BabbleConfig(seed=7, duration_s=4.0))
        assert np.array_equal(a.samples, b.samples)

    def test_seed_changes_output(self):
        a = generate_babble(BabbleConfig(seed=7, duration_s=4.0))
        b = generate_babble(BabbleConfig(seed=8, duration_s=4.0))
        assert not np.array_equal(a.samples, b.samples)

    def test_within_joint_bounds(self, babble_60s):
        lo = np.array([j.min_deg for j in babble_60s.joints])
        hi = np.array([j.max_deg for j in babble_60s.joints])
        assert np.all(babble_60s.samples >= lo)
        assert np.all(babble_60s.samples <= hi)

    def test_velocity_bounded(self, babble_60s):
        cfg = BabbleConfig()
        step = np.abs(np.diff(babble_60s.samples, axis=0)).max()
        assert step <= cfg.max_velocity_deg_s / 50.0 + 1e-9

    def test_velocity_bound_respects_config(self):
        cfg = BabbleConfig(seed=3, duration_s=10.0, max_velocity_deg_s=40.0)
        ds = generate_babble(cfg)
        assert np.abs(np.diff(ds.samples, axis=0)).max() <= 40.0 / 50.0 + 1e-9

    def test_dwell_produces_holds(self):
        cfg = BabbleConfig(seed=5, duration_s=10.0, dwell_s=0.2)
        ds = generate_babble(cfg)
        holds = np.all(np.diff(ds.samples, axis=0) == 0.0, axis=1)
        assert holds.any()

    def test_unreachable_box_errors(self):
        cfg = BabbleConfig(seed=0, duration_s=1.0, box_center=(2.0, 0.0, 0.0),
                           max_target_retries=3)
        with pytest.raises(TargetUnreachableError):
            generate_babble(cfg)


class TestConfigValidation:
    def test_bad_duration(self):
        with pytest.raises(ValueError):
            BabbleConfig(duration_s=0.0)

    @pytest.mark.parametrize("duration", [float("inf"), float("nan")])
    def test_non_finite_duration(self, duration):
        # inf used to end in an OverflowError when sizing the recording.
        with pytest.raises(ValueError) as info:
            BabbleConfig(duration_s=duration)
        assert str(info.value) == (
            "duration_s must be a finite number > 0 and <= 7200 s (360000 samples at 50 Hz), "
            f"got {duration!r}"
        )

    @pytest.mark.parametrize("duration", [MAX_DURATION_S + 0.5, 1e7, 1e300])
    def test_duration_cap(self, duration):
        # 1e7 s used to fail allocating 48 GiB; 1e300 a numpy dimension limit.
        samples = f"{MAX_DURATION_S * SAMPLE_RATE_HZ:.0f} samples at {SAMPLE_RATE_HZ:g} Hz"
        with pytest.raises(ValueError) as info:
            BabbleConfig(duration_s=duration)
        assert str(info.value) == (
            f"duration_s must be a finite number > 0 and <= 7200 s ({samples}), got {duration!r}"
        )
        assert BabbleConfig(duration_s=MAX_DURATION_S).duration_s == MAX_DURATION_S

    def test_bad_extent(self):
        with pytest.raises(ValueError):
            BabbleConfig(box_extent=(0.1, -0.1, 0.1))

    def test_bad_velocity(self):
        with pytest.raises(ValueError):
            BabbleConfig(max_velocity_deg_s=0.0)

    def test_wrong_joint_list(self):
        from posturemap.dataset import JointSpec

        with pytest.raises(ValueError):
            BabbleConfig(joints=(JointSpec("x", 0, 1),))
