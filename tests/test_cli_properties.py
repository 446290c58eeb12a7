"""The CLI never tracebacks, whatever bytes its input files hold.

Each example writes one fuzzed input (arbitrary bytes, or a valid file
with a few bytes replaced, inserted or deleted) beside valid companions
in a fresh directory and runs ``cli.main`` in-process. The exit code must
be 0 or 1; on 1, stderr must be one ``error:`` line that names the input.
Fixed observation CSVs whose fits overflow are run the same way.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from larvaekit.cli import main
from larvaekit.growth import load_observations_csv
from larvaekit.raster import encode_raster

from conftest import overflowing_observations, solid_image

GT = b"0 0.5 0.5 0.2 0.2\n0 0.25 0.3 0.1 0.05\n"
PRED = b"0 0.5 0.5 0.2 0.2 0.9\n0 0.7 0.7 0.1 0.1 0.4\n"
MANIFEST = (
    b"image_id,image_path,gt_path,pred_path,width_px,height_px,density_group,day_label\n"
    b"a,,gt.txt,pred.txt,100,80,100,d1\n"
    b"b,,gt.txt,,100,80,,\n"
)
FRAME = encode_raster(solid_image(5, 4))
OBSERVATIONS = b"age_days,length_mm\n0,1.65\n1,1.81\n3,1.93\n4,2.2\n5,2.5\n8,3.1\n"

# Byte runs that reach the parsers' edge cases more often than random bytes do.
TOKENS = [b"\x00", b"\r", b"\n", b",", b'"', b" ", b"\xff", b"\xef\xbb\xbf", b"-", b"0",
          b"1e999", b"nan", b"inf", b"1e-300", b"9" * 131073, b"P6", b"65535"]


def _mutate(valid: bytes, edits) -> bytes:
    data = bytearray(valid)
    for where, cut, insert in edits:
        pos = min(where, len(data))
        data[pos:pos + cut] = insert
    return bytes(data)


def fuzzed(valid: bytes):
    edit = st.tuples(st.integers(0, len(valid)), st.integers(0, 4),
                     st.one_of(st.binary(max_size=6), st.sampled_from(TOKENS)))
    return st.one_of(
        st.binary(max_size=300),
        st.builds(_mutate, st.just(valid), st.lists(edit, min_size=1, max_size=4)),
    )


def run(argv) -> tuple[int, str]:
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, stderr.getvalue()


def assert_clean_exit(code: int, stderr: str, *prefixes: str) -> str:
    """Check the exit contract; returns the error line ('' on success)."""
    assert code in (0, 1), stderr
    if code == 0:
        return ""
    assert stderr.count("\n") == 1 and stderr.endswith("\n"), stderr
    assert stderr.startswith(prefixes), stderr
    return stderr


FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@FUZZ
@given(data=fuzzed(GT), side=st.sampled_from(["gt", "pred"]),
       command=st.sampled_from(["eval", "count"]))
def test_label_file_behind_a_manifest(data, side, command):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "gt.txt").write_bytes(GT)
        (root / "pred.txt").write_bytes(PRED)
        (root / f"{side}.txt").write_bytes(data)
        (root / "m.csv").write_bytes(MANIFEST)
        code, stderr = run([command, root / "m.csv", "--out-dir", root / "out"])
        # The manifest binds each label file to an image; errors name that image.
        assert_clean_exit(code, stderr, "error: image 'a': ")


@FUZZ
@given(data=fuzzed(PRED), quantile=st.sampled_from([None, 0.0, 0.5, 1.0]))
def test_label_file_through_enlarge(data, quantile):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        label = root / "x.txt"
        label.write_bytes(data)
        flag = ["--threshold", 0.05] if quantile is None else ["--quantile", quantile]
        code, stderr = run(["preprocess", "enlarge", label, *flag, "--out-dir", root / "out"])
        # A quantile is taken over the boxes of every input, not one file.
        assert_clean_exit(code, stderr, f"error: {label}: ",
                          "error: no boxes to take a quantile over\n")


@FUZZ
@given(data=fuzzed(MANIFEST), command=st.sampled_from(["eval", "count"]))
def test_manifest(data, command):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "gt.txt").write_bytes(GT)
        (root / "pred.txt").write_bytes(PRED)
        manifest = root / "m.csv"
        manifest.write_bytes(data)
        code, stderr = run([command, manifest, "--out-dir", root / "out"])
        # A row may also point at a label file that is missing or not a
        # label file; that error names the row's image.
        assert_clean_exit(code, stderr, f"error: {manifest}: ", "error: image '")


@FUZZ
@given(data=fuzzed(FRAME))
def test_frame(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        frame = root / "f.pgm"
        frame.write_bytes(data)
        code, stderr = run(["preprocess", "rotate", frame, "--out-dir", root / "out"])
        assert_clean_exit(code, stderr, f"error: {frame}: ")


@FUZZ
@given(data=fuzzed(OBSERVATIONS), models=st.sampled_from(["all", "linear", "vbgm,power"]))
def test_observations_csv(data, models):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        obs = root / "obs.csv"
        obs.write_bytes(data)
        code, stderr = run(["fit", obs, "--models", models, "--out-dir", root / "out"])
        line = assert_clean_exit(code, stderr, "error: ")
        if line and not line.startswith(f"error: {obs}: "):
            # A fit that fails names its family, not the file: the file
            # itself must then have parsed.
            load_observations_csv(data.decode())
            family = line.removeprefix("error: ").split(":")[0]
            assert family in ("vbgm", "gompertz", "linear", "power", "exponential"), line


@pytest.mark.parametrize("last_age, models",
                         [("1e200", "linear"), ("1e200", "all"), ("2e153", "all")])
def test_overflowing_observations_in_process(tmp_path, last_age, models):
    # In-process, a numpy RuntimeWarning is an error under the suite's filter.
    obs = tmp_path / "obs.csv"
    obs.write_text(overflowing_observations(last_age))
    code, stderr = run(["fit", obs, "--models", models, "--out-dir", tmp_path / "out"])
    assert code == 1
    assert_clean_exit(code, stderr, "error: ")
    assert not (tmp_path / "out").exists()
