"""Fault profile and registry semantics."""

import pytest

from repro.faults import (
    FaultProfile,
    SensorNoise,
    StuckSensor,
    fault_stream,
    get_fault_profile,
    list_fault_profiles,
    register_fault_profile,
)
from repro.faults.base import ObsLayout

LAYOUT = ObsLayout(n_zones=1, horizon=3, n_levels=4)


class TestRegistry:
    def test_none_is_first_and_clean(self):
        names = list_fault_profiles()
        assert names[0] == "none"
        assert get_fault_profile("none").is_clean

    def test_presets_cover_the_taxonomy(self):
        names = set(list_fault_profiles())
        assert {
            "noisy-sensors",
            "stuck-thermistor",
            "dead-thermistor",
            "stuck-damper",
            "degraded-capacity",
            "bad-forecast",
            "occupancy-surprise",
            "compound-degraded",
        } <= names

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(KeyError, match="available"):
            get_fault_profile("gremlins")

    def test_duplicate_registration_rejected(self):
        profile = FaultProfile("dup-test-profile")
        register_fault_profile(profile)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_fault_profile(profile)
            register_fault_profile(profile, overwrite=True)  # allowed
        finally:
            from repro.faults import profiles as profiles_module

            profiles_module._REGISTRY.pop("dup-test-profile", None)


class TestProfileBuild:
    def test_clean_profile_builds_none(self):
        assert FaultProfile("empty-test").build([LAYOUT], [0]) is None

    def test_build_requires_one_seed_per_env(self):
        profile = FaultProfile("p", faults=(SensorNoise(temp_bias_c=1.0),))
        with pytest.raises(ValueError, match="seed"):
            profile.build([LAYOUT, LAYOUT], [0])

    def test_templates_are_not_shared_between_injectors(self):
        """Two injectors from one profile must hold independent state —
        build() deep-copies the registered templates."""
        import numpy as np

        profile = FaultProfile(
            "latch-test", faults=(StuckSensor(zone=0, start_step=0, mode="hold"),)
        )
        a = profile.build([LAYOUT], [0])
        b = profile.build([LAYOUT], [0])
        obs = np.full(LAYOUT.obs_dim, 0.25)
        a.apply_reset_obs(np.array([0]), obs[None])
        assert a.models[0]._held_set[0]
        assert not b.models[0]._held_set[0]
        # The registered template itself stays unbound.
        assert profile.faults[0].n_envs == 0

    def test_profile_rejects_non_models(self):
        with pytest.raises(TypeError):
            FaultProfile("bad", faults=("noise",))

    def test_profile_needs_a_name(self):
        with pytest.raises(ValueError):
            FaultProfile("")


class TestFaultStream:
    def test_deterministic_per_seed(self):
        assert (
            fault_stream(3).integers(1 << 30) == fault_stream(3).integers(1 << 30)
        )
        assert (
            fault_stream(3).integers(1 << 30) != fault_stream(4).integers(1 << 30)
        )

    def test_independent_of_env_stream(self):
        """Env seed k and fault seed k must produce unrelated streams —
        fault draws must not replay weather/reset randomness."""
        import numpy as np

        env_rng = np.random.default_rng(5)
        fault_rng = fault_stream(5)
        assert env_rng.integers(1 << 30) != fault_rng.integers(1 << 30)


class TestScenarioIntegration:
    def test_registry_reexported_through_scenarios(self):
        from repro.sim import scenarios

        assert scenarios.list_fault_profiles() == list_fault_profiles()

    def test_build_faulted_env_matches_manual_wrapping(self):
        import numpy as np

        from repro.faults import FaultyHVACEnv
        from repro.sim import build_faulted_env, get_scenario

        scenario = get_scenario("baseline-tou")
        via_helper = build_faulted_env(scenario, "noisy-sensors", seed=3)
        manual = FaultyHVACEnv(scenario.build(3), "noisy-sensors", seed=3)
        np.testing.assert_array_equal(via_helper.reset(), manual.reset())
        for _ in range(5):
            a1 = via_helper.step([1])
            a2 = manual.step([1])
            np.testing.assert_array_equal(a1[0], a2[0])
