"""Every subcommand still writes the recorded bytes (see ``golden.py``)."""

import json
import os
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


@pytest.fixture(scope="module")
def digests_without_site_packages(tmp_path_factory):
    """The digests of every numpy-free case, from one ``python -S -W error`` child.

    ``-S`` loads no site-packages, so numpy cannot be imported; ``-W error``
    fails a case that warns, and ``run_case`` fails a passing case that
    writes anything else to stderr.
    """
    root = tmp_path_factory.mktemp("golden-without-site-packages")
    golden.build_inputs(root)
    paths = (Path(larvaekit.__file__).resolve().parent.parent, Path(__file__).resolve().parent)
    child = subprocess.run(
        [sys.executable, "-S", "-W", "error", "-c", WITHOUT_SITE_PACKAGES, str(root), *NUMPY_FREE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))},
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_every_case_is_recorded():
    assert sorted(golden.CASES) == sorted(RECORDED)


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_outputs_match_the_recorded_digests(inputs, name):
    assert golden.run_case(inputs, name) == RECORDED.get(name)


@pytest.mark.parametrize("name", NUMPY_FREE)
def test_outputs_match_without_site_packages(digests_without_site_packages, name):
    assert digests_without_site_packages[name] == RECORDED.get(name)
