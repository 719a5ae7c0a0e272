import os
import subprocess
import sys

import goxlens


def test_version_string():
    parts = goxlens.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_all_names_resolve():
    for name in goxlens.__all__:
        assert getattr(goxlens, name) is not None


def test_subpackages_import():
    import goxlens.cli
    import goxlens.econometrics
    import goxlens.ml

    assert callable(goxlens.cli.main)
    assert callable(goxlens.econometrics.adf)
    assert callable(goxlens.ml.train_tree)


def _loaded_after(module, names):
    """Which of `names` a fresh interpreter has loaded after importing `module`."""
    src = os.path.dirname(os.path.dirname(goxlens.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = f"import sys, {module}; print([m for m in {names!r} if m in sys.modules])"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout.strip()


def test_cli_import_leaves_studies_and_scipy_stats_unloaded():
    # the studies pull in scipy.linalg and the models; ingest, detect and bars
    # must not pay for them
    assert _loaded_after("goxlens.cli", ("scipy.stats", "goxlens.studies")) == "[]"


def test_studies_import_leaves_scipy_stats_unloaded():
    # the p-values come from scipy.special; scipy.stats would add most of a
    # second to every analyze command
    assert _loaded_after("goxlens.studies", ("scipy.stats",)) == "[]"


def test_lazy_names_import_by_name():
    from goxlens import GoxlensError, study_timing

    assert callable(study_timing)
    assert issubclass(GoxlensError, Exception)
    assert set(goxlens.__all__) <= set(dir(goxlens))
