"""Every subcommand still writes the recorded bytes (see ``golden.py``)."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import golden
import larvaekit

RECORDED = json.loads(golden.DIGESTS.read_text(encoding="utf-8"))

# The commands that promise to run without numpy: all but fit and noise.
NUMPY_FREE = sorted(name for name, argv in golden.CASES.items()
                    if argv[0] != "fit" and argv[:2] != ["preprocess", "noise"])

# Run in a child without site-packages: the named cases on the inputs in argv[1].
WITHOUT_SITE_PACKAGES = """\
import importlib.util, json, sys
from pathlib import Path
if importlib.util.find_spec("numpy") is not None:
    sys.exit("numpy is importable")
import golden
root = Path(sys.argv[1])
json.dump({name: golden.run_case(root, name) for name in sys.argv[2:]}, sys.stdout)
"""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    golden.build_inputs(root)
    return root


# The CPython versions the package supports, each run in its own numpy-free child.
VERSIONS = ("3.10", "3.11", "3.12", "3.13")


def digests_under(python: str, root: Path) -> dict:
    """The digests of every numpy-free case, from one ``python -S -W error`` child.

    ``-S`` loads no site-packages, so numpy cannot be imported; ``-W error``
    fails a case that warns, and ``run_case`` fails a passing case that
    writes anything else to stderr.
    """
    paths = (Path(larvaekit.__file__).resolve().parent.parent, Path(__file__).resolve().parent)
    child = subprocess.run(
        [python, "-S", "-W", "error", "-c", WITHOUT_SITE_PACKAGES, str(root), *NUMPY_FREE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))},
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def interpreter(version: str) -> str:
    """A Python ``version`` that starts, or a skip naming each candidate tried.

    The candidates are ``python<version>`` on ``PATH`` and the builds under
    ``$PYENV_ROOT/versions`` (``~/.pyenv`` by default). A candidate counts
    only if it starts and reports ``version``: a pyenv shim for a version
    that is not selected is on ``PATH`` but exits with an error.
    """
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    candidates = [shutil.which(f"python{version}"),
                  *map(str, sorted(pyenv.glob(f"versions/{version}.*/bin/python")))]
    tried = []
    for candidate in filter(None, candidates):
        try:
            child = subprocess.run(
                [candidate, "-S", "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
                capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired) as err:
            tried.append(f"{candidate}: {err}")
            continue
        if child.returncode == 0 and child.stdout.strip() == version:
            return candidate
        said = (child.stderr.strip() or child.stdout.strip()).splitlines()[:1]
        tried.append(f"{candidate}: exit {child.returncode} {' '.join(said)}".rstrip())
    pytest.skip(f"no Python {version} starts: {'; '.join(tried) or 'no candidate found'}")


@pytest.fixture(scope="module")
def inputs_without_site_packages(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-without-site-packages")
    golden.build_inputs(root)
    return root


@pytest.fixture(scope="module")
def digests_without_site_packages(inputs_without_site_packages):
    return digests_under(sys.executable, inputs_without_site_packages)


def test_every_case_is_recorded():
    assert sorted(golden.CASES) == sorted(RECORDED)


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_outputs_match_the_recorded_digests(inputs, name):
    assert golden.run_case(inputs, name) == RECORDED.get(name)


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_outputs_match_without_site_packages(digests_without_site_packages, name):
    assert digests_without_site_packages[name] == RECORDED.get(name)


@pytest.mark.parametrize("version", VERSIONS)
def test_numpy_free_cases_match_under_each_python(request, inputs_without_site_packages,
                                                  version):
    if version == "%d.%d" % sys.version_info[:2]:
        digests = request.getfixturevalue("digests_without_site_packages")
    else:
        digests = digests_under(interpreter(version), inputs_without_site_packages)
    assert [name for name in NUMPY_FREE if digests[name] != RECORDED.get(name)] == []


# Sums the golden cases cannot see: builtin sum() compensates from 3.12 on,
# and on these inputs math.fsum gives 1/3, 0.10000000000000002 and 0.1.
LEFT_TO_RIGHT_SUMS = """\
from larvaekit.evaluation import _integrate, _mean
print(repr((_mean([1e16, 1.0, -1e16]), _integrate([1.0], [0.1], "101point"),
            _integrate([i / 10 for i in range(1, 11)], [0.1] * 10, "envelope"))))
"""


@pytest.mark.parametrize("version", VERSIONS)
def test_sums_run_left_to_right_under_each_python(version):
    python = sys.executable if version == "%d.%d" % sys.version_info[:2] else interpreter(version)
    src = Path(larvaekit.__file__).resolve().parent.parent
    child = subprocess.run([python, "-S", "-c", LEFT_TO_RIGHT_SUMS], capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert child.returncode == 0, child.stderr
    assert child.stdout == "(0.0, 0.0999999999999998, 0.09999999999999999)\n"
