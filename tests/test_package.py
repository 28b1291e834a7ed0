import plumecpd
from plumecpd import inference


def test_all_is_sorted_unique_and_resolves():
    names = plumecpd.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(plumecpd, name)]
    assert missing == []


def test_names_only_tests_use_are_not_exported():
    # The full-grid posterior, its helpers and the error only they raise
    # live in the tests' oracles, the dispersion-model classes are gone;
    # the others are reached through their modules.
    dropped = [
        "ConstantDispersion",
        "EmissionPosterior",
        "LikelihoodConfig",
        "MeasurementIncompatibleError",
        "ReflectedGaussianDispersion",
        "grid_integrate",
        "instance_rng",
        "posterior_mean_std",
        "posterior_mode",
        "stratified_lognormal_series",
        "uniform_prior",
    ]
    assert [name for name in dropped if name in plumecpd.__all__] == []
    assert [name for name in dropped if hasattr(plumecpd, name)] == []
    moved = ["EmissionPosterior", "conjugate_posterior", "uniform_prior", "grid_integrate"]
    moved += ["posterior_mode", "posterior_mean_std"]
    assert [name for name in moved if hasattr(inference, name)] == []
