import json
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


def _fresh_python(code, *args, env=None):
    """stdout of `code` run in a fresh interpreter that imports goxlens from this tree."""
    src = os.path.dirname(os.path.dirname(goxlens.__file__))
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout.strip()


def _loaded_after(code, names, *args):
    """Which of the packages `names` a fresh interpreter has loaded after running `code`.

    A package counts as loaded when it or any of its submodules is.
    """
    probe = (
        f"import json, sys\n{code}\nnames = {list(names)!r}\n"
        "print([n for n in names if any(m == n or m.startswith(n + '.') for m in sys.modules)])"
    )
    return _fresh_python(probe, *args)


def test_cli_import_leaves_studies_and_scipy_stats_unloaded():
    # the studies pull in the models; ingest, detect and bars must not pay for them
    assert _loaded_after("import goxlens.cli", ("scipy.stats", "goxlens.studies")) == "[]"


def test_studies_import_leaves_scipy_unloaded():
    # scipy.linalg alone costs ~0.3 s and ~25 MB per process; the fits solve
    # through numpy and import scipy inside the functions that need it
    assert _loaded_after("import goxlens.studies", ("scipy",)) == "[]"


# what each study may load: media, event and cross-asset report nothing scipy
# computes; onchain and market take p-values from scipy.special; only timing
# runs Johansen (scipy.linalg)
_UNLOADED_BY_STUDY = {
    "media": ["scipy"],
    "event": ["scipy"],
    "cross-asset": ["scipy"],
    "onchain": ["scipy.linalg", "scipy.stats"],
    "market": ["scipy.linalg", "scipy.stats"],
}


def test_analyze_loads_scipy_only_where_a_study_uses_it(analyze_invocations, tmp_path):
    _, invocations = analyze_invocations
    run = "from goxlens.cli import main\nassert main(json.loads(sys.argv[1])) == 0"
    for label, argv in invocations:
        if label in _UNLOADED_BY_STUDY:
            argv = json.dumps([*argv, "--out", str(tmp_path / label)])
            assert _loaded_after(run, _UNLOADED_BY_STUDY[label], argv) == "[]", label


def test_cli_sets_one_blas_thread_unless_the_user_chose():
    probe = "import os, goxlens.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    assert _fresh_python(probe, env=env) == "1"
    assert _fresh_python(probe, env=dict(env, OPENBLAS_NUM_THREADS="2")) == "2"


def test_lazy_names_import_by_name():
    from goxlens import GoxlensError, study_timing

    assert callable(study_timing)
    assert issubclass(GoxlensError, Exception)
    assert set(goxlens.__all__) <= set(dir(goxlens))
