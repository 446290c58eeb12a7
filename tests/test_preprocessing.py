"""Crop, mask, box enlargement, noise, and rotation transforms."""

import contextlib
import tracemalloc

import numpy as np
import pytest

from larvaekit import cli, preprocessing
from larvaekit.annotations import Box2D, LabeledBox, ScoredBox
from larvaekit.errors import LarvaekitError, OutOfRange
from larvaekit.preprocessing import (
    add_gaussian_noise,
    area_quantile,
    center_crop,
    circular_mask,
    enlarge_small_boxes,
    rotate90,
)
from larvaekit.raster import RasterImage, decode_raster, encode_raster

from conftest import solid_image
from oracles import (
    array_area_quantile,
    array_center_crop,
    array_circular_mask,
    array_enlarge_small_boxes,
    array_rotate90,
    gaussian_noise_stream,
)


class TestCenterCrop:
    def test_full_resolution_to_square(self):
        # 3024x4032 -> 2100x2100 puts the window at offsets (462, 966)
        arr = np.zeros((4032, 3024), dtype=np.uint8)
        arr[966, 462] = 201  # lands at the crop origin
        image = RasterImage.from_array(arr)
        gt = [LabeledBox(0, Box2D(1512 / 3024, 2016 / 4032, 100 / 3024, 100 / 4032))]
        cropped, boxes = center_crop(image, gt, 2100, 2100)
        assert (cropped.width, cropped.height) == (2100, 2100)
        assert cropped.to_array()[0, 0, 0] == 201
        assert boxes[0].box.cx == pytest.approx(0.5, abs=1e-12)
        assert boxes[0].box.cy == pytest.approx(0.5, abs=1e-12)
        assert boxes[0].box.w == pytest.approx(100 / 2100, abs=1e-12)
        assert boxes[0].box.h == pytest.approx(100 / 2100, abs=1e-12)

    def test_full_frame_is_identity(self):
        image = solid_image(40, 30)
        gt = [LabeledBox(0, Box2D(0.31, 0.47, 0.1, 0.2))]
        cropped, boxes = center_crop(image, gt, 40, 30)
        assert cropped.pixels == image.pixels
        assert boxes[0] is gt[0]

    def test_box_outside_window_dropped(self):
        image = solid_image(100, 100)
        gt = [
            LabeledBox(0, Box2D(0.1, 0.5, 0.2, 0.2)),  # entirely in the left margin
            LabeledBox(0, Box2D(0.5, 0.5, 0.1, 0.1)),
        ]
        _, boxes = center_crop(image, gt, 50, 50)
        assert len(boxes) == 1
        assert boxes[0].box.cx == pytest.approx(0.5)

    def test_straddling_box_is_clipped(self):
        image = solid_image(100, 100)
        # absolute x span 10..30; the window starts at 25, keeping 25..30
        gt = [LabeledBox(0, Box2D(0.2, 0.5, 0.2, 0.2))]
        _, boxes = center_crop(image, gt, 50, 50)
        b = boxes[0].box
        assert b.cx == pytest.approx(2.5 / 50)
        assert b.w == pytest.approx(5 / 50)

    def test_interior_boxes_round_trip(self):
        rng = np.random.default_rng(31)
        image = solid_image(200, 160)
        for _ in range(100):
            # absolute geometry strictly inside the 150x120 window at (25, 20)
            w = rng.uniform(1, 40)
            h = rng.uniform(1, 40)
            cx = rng.uniform(26 + w / 2, 174 - w / 2)
            cy = rng.uniform(21 + h / 2, 139 - h / 2)
            gt = [LabeledBox(0, Box2D(cx / 200, cy / 160, w / 200, h / 160))]
            _, boxes = center_crop(image, gt, 150, 120)
            b = boxes[0].box
            assert b.cx * 150 + 25 == pytest.approx(cx, abs=1e-9)
            assert b.cy * 120 + 20 == pytest.approx(cy, abs=1e-9)
            assert b.w * 150 == pytest.approx(w, abs=1e-9)
            assert b.h * 120 == pytest.approx(h, abs=1e-9)

    def test_target_too_large(self):
        with pytest.raises(LarvaekitError, match="^crop 11x10 exceeds image 10x10$"):
            center_crop(solid_image(10, 10), [], 11, 10)

    def test_non_positive_target(self):
        with pytest.raises(OutOfRange):
            center_crop(solid_image(10, 10), [], 0, 10)


class TestCircularMask:
    def test_radius_covering_frame_is_identity(self):
        rng = np.random.default_rng(32)
        arr = rng.integers(0, 256, size=(8, 10, 1), dtype=np.uint8)
        image = RasterImage.from_array(arr)
        assert circular_mask(image, 5, 4, 50).pixels == image.pixels

    def test_tiny_radius_keeps_only_the_center_pixel(self):
        image = solid_image(7, 5, value=255)
        masked = circular_mask(image, 3, 2, 0.0001).to_array()[:, :, 0]
        assert masked[2, 3] == 255
        assert int(np.count_nonzero(masked)) == 1

    def test_pixel_exactly_on_circle_survives(self):
        image = solid_image(6, 6, value=7)
        masked = circular_mask(image, 0, 0, 5).to_array()[:, :, 0]
        assert masked[4, 3] == 7  # 3*3 + 4*4 = 25 = r*r, not strictly outside
        assert masked[4, 4] == 0  # 32 > 25

    def test_idempotent(self):
        rng = np.random.default_rng(33)
        for _ in range(25):
            arr = rng.integers(0, 256, size=(12, 9, 3), dtype=np.uint8)
            image = RasterImage.from_array(arr)
            cx, cy = rng.uniform(-2, 11), rng.uniform(-2, 14)
            radius = rng.uniform(0.5, 10)
            once = circular_mask(image, cx, cy, radius)
            assert circular_mask(once, cx, cy, radius).pixels == once.pixels

    def test_negative_radius(self):
        with pytest.raises(OutOfRange):
            circular_mask(solid_image(4, 4), 2, 2, -1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("which", range(3))
    def test_non_finite_geometry(self, which, bad):
        circle = [1.0, 1.0, 1.0]
        circle[which] = bad
        with pytest.raises(OutOfRange, match="not finite"):
            circular_mask(solid_image(4, 4), *circle)


def row_of_area(area: float) -> tuple[float, float, float, float]:
    return (0.5, 0.5, area, 1.0)


class TestAreaQuantile:
    def test_linear_interpolation(self):
        rows = [row_of_area(a) for a in (0.01, 0.02, 0.03, 0.04)]
        assert area_quantile(rows, 0.25) == pytest.approx(0.0175, abs=1e-15)

    def test_single_box(self):
        assert area_quantile([(0.5, 0.5, 0.1, 0.2)], 0.8) == pytest.approx(0.02)

    def test_all_equal(self):
        rows = [(0.5, 0.5, 0.1, 0.1)] * 5
        assert area_quantile(rows, 0.37) == pytest.approx(0.01)

    def test_matches_numpy(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            areas = rng.uniform(1e-4, 0.5, size=int(rng.integers(1, 20)))
            q = float(rng.uniform(0, 1))
            got = area_quantile([row_of_area(float(a)) for a in areas], q)
            assert got == pytest.approx(float(np.quantile(areas, q)), rel=1e-12)

    def test_empty(self):
        with pytest.raises(LarvaekitError, match="^no boxes to take a quantile over$"):
            area_quantile([], 0.25)

    def test_bad_rank(self):
        with pytest.raises(OutOfRange):
            area_quantile([row_of_area(0.01)], 1.5)


class TestEnlargeSmallBoxes:
    def test_literal_mode_overshoots(self):
        # area 0.0025 under threshold 0.01 -> factor 4 on both extents
        out = enlarge_small_boxes([LabeledBox(0, Box2D(0.5, 0.5, 0.05, 0.05))], 0.01)
        assert out[0].box.w == pytest.approx(0.20, abs=1e-12)
        assert out[0].box.h == pytest.approx(0.20, abs=1e-12)

    def test_normalize_mode_lands_on_threshold(self):
        out = enlarge_small_boxes(
            [LabeledBox(0, Box2D(0.5, 0.5, 0.05, 0.05))], 0.01, mode="normalize"
        )
        assert out[0].box.w == pytest.approx(0.10, abs=1e-12)
        assert out[0].box.h == pytest.approx(0.10, abs=1e-12)

    def test_box_at_threshold_untouched(self):
        item = ScoredBox(0, Box2D(0.5, 0.5, 0.1, 0.1), 0.7)
        assert enlarge_small_boxes([item], 0.01)[0] is item

    def test_area_laws(self):
        rng = np.random.default_rng(35)
        for _ in range(200):
            area = float(rng.uniform(1e-4, 0.01))
            thr = float(rng.uniform(area * 1.01, area * 9))
            side = float(np.sqrt(area))
            box = [LabeledBox(0, Box2D(0.5, 0.5, side, side))]
            lit = enlarge_small_boxes(box, thr)[0].box
            nrm = enlarge_small_boxes(box, thr, mode="normalize")[0].box
            assert lit.area == pytest.approx(thr * thr / box[0].box.area, rel=1e-9)
            assert nrm.area == pytest.approx(thr, rel=1e-9)
            assert lit.cx == 0.5 and nrm.cx == 0.5

    def test_normalize_floor_over_dataset(self):
        rng = np.random.default_rng(36)
        sides = rng.uniform(0.01, 0.12, size=40)
        boxes = [LabeledBox(0, Box2D(0.5, 0.5, float(s), float(s))) for s in sides]
        thr = 0.005
        out = enlarge_small_boxes(boxes, thr, mode="normalize")
        assert min(item.box.area for item in out) >= thr - 1e-12

    def test_clamped_at_the_frame_edge(self):
        # the width hits the unit-square wall at 2*cx and stops there
        out = enlarge_small_boxes(
            [LabeledBox(0, Box2D(0.05, 0.5, 0.02, 0.02))], 0.25, mode="normalize"
        )
        b = out[0].box
        assert b.cx == 0.05
        assert b.w == pytest.approx(0.10, abs=1e-12)
        assert b.h == pytest.approx(0.50, abs=1e-12)
        assert b.cx - b.w / 2 >= 0 and b.cx + b.w / 2 <= 1

    def test_bad_threshold(self):
        with pytest.raises(OutOfRange):
            enlarge_small_boxes([], 0.0)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            enlarge_small_boxes([], 0.01, mode="scale")


class TestGaussianNoise:
    def test_variance_zero_is_identity(self):
        image = solid_image(8, 8)
        [out] = add_gaussian_noise([image], 0.0, seed=1)
        assert out is image

    @pytest.mark.parametrize("variance", [0.0, 4.0])
    def test_batch_keeps_order_and_takes_any_iterable(self, variance):
        images = [solid_image(8, 8), solid_image(3, 5, value=7), solid_image(8, 8)]
        out = add_gaussian_noise(iter(images), variance, seed=1)
        assert [(o.width, o.height) for o in out] == [(8, 8), (3, 5), (8, 8)]
        assert [o is i for o, i in zip(out, images)] == [variance == 0.0] * 3
        assert out[0].pixels == out[2].pixels
        assert add_gaussian_noise([], variance, seed=1) == []

    def test_deterministic_per_seed(self):
        image = solid_image(32, 32)
        [a] = add_gaussian_noise([image], 10.0, seed=42)
        [b] = add_gaussian_noise([image], 10.0, seed=42)
        [c] = add_gaussian_noise([image], 10.0, seed=43)
        assert a.pixels == b.pixels
        assert a.pixels != c.pixels

    def test_matches_documented_stream(self):
        image = solid_image(16, 16, value=100)
        [out] = add_gaussian_noise([image], 25.0, seed=5)
        samples = np.frombuffer(image.pixels, dtype=np.uint8).astype(np.float64)
        noise = gaussian_noise_stream(25.0, 5, samples.size)
        expect = np.clip(np.rint(samples + noise), 0, 255).astype(np.uint8)
        assert out.pixels == expect.tobytes()

    def test_stream_prefix_independent_of_count(self):
        head = gaussian_noise_stream(25.0, 9, 100)
        assert np.array_equal(head, gaussian_noise_stream(25.0, 9, 10_000)[:100])

    def test_mid_gray_moments(self):
        noise = gaussian_noise_stream(25.0, seed=123, count=1_000_000)
        assert abs(float(noise.mean())) < 0.05
        assert abs(float(noise.var()) - 25.0) < 0.5

    def test_negative_variance(self):
        with pytest.raises(OutOfRange):
            add_gaussian_noise([solid_image(4, 4)], -1.0, seed=0)

    @pytest.mark.parametrize("variance", [float("nan"), float("inf")])
    def test_non_finite_variance(self, variance):
        with pytest.raises(OutOfRange, match="finite"):
            add_gaussian_noise([solid_image(4, 4)], variance, seed=1)
        with pytest.raises(OutOfRange, match="finite"):
            gaussian_noise_stream(variance, seed=1, count=5)


class TestRotate90:
    def test_fixed_point_box_swaps_extents(self):
        _, boxes = rotate90(solid_image(10, 10), [LabeledBox(0, Box2D(0.5, 0.5, 0.1, 0.2))])
        b = boxes[0].box
        assert (b.cx, b.cy, b.w, b.h) == (0.5, 0.5, 0.2, 0.1)

    def test_pixel_mapping(self):
        image = RasterImage(3, 2, 1, bytes(range(6)))
        rotated, _ = rotate90(image, [])
        assert (rotated.width, rotated.height) == (2, 3)
        # column x of the source becomes row (W-1-x); top row reads the
        # rightmost source column first
        assert rotated.pixels == bytes([2, 5, 1, 4, 0, 3])

    def test_four_turns_restore_everything(self):
        rng = np.random.default_rng(37)
        arr = rng.integers(0, 256, size=(6, 9, 3), dtype=np.uint8)
        image = RasterImage.from_array(arr)
        boxes = [
            ScoredBox(0, Box2D(0.31, 0.62, 0.11, 0.07), 0.5),
            LabeledBox(1, Box2D(0.74, 0.2, 0.2, 0.3)),
        ]
        img, bxs = image, list(boxes)
        for _ in range(4):
            img, bxs = rotate90(img, bxs)
        assert img.pixels == image.pixels
        assert (img.width, img.height) == (image.width, image.height)
        for before, after in zip(boxes, bxs):
            assert after.box.cx == pytest.approx(before.box.cx, abs=1e-9)
            assert after.box.cy == pytest.approx(before.box.cy, abs=1e-9)
            assert after.box.w == pytest.approx(before.box.w, abs=1e-9)
            assert after.box.h == pytest.approx(before.box.h, abs=1e-9)

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (5, 7), (64, 3)])
    def test_pixels_as_numpy_turns_them(self, shape, channels):
        image = random_image((*shape, channels), seed=sum(shape) + channels)
        rotated, _ = rotate90(image, [])
        expected = np.rot90(image.to_array())
        assert (rotated.height, rotated.width, rotated.channels) == expected.shape
        assert rotated.pixels == expected.tobytes()

    def test_left_edge_box_lands_on_bottom_edge(self):
        box = LabeledBox(0, Box2D(0.05, 0.4, 0.1, 0.2))  # touches x = 0
        _, rotated = rotate90(solid_image(20, 20), [box])
        b = rotated[0].box
        assert b.cy + b.h / 2 == pytest.approx(1.0, abs=1e-12)


# Frames whose mask strips are exactly 64 rows, so these heights sit
# below, on and across strip edges; noise strips fall mid-row.
STRIP_W = preprocessing._STRIP_SAMPLES // 64
WIDE = preprocessing._STRIP_SAMPLES + 5
STRIP_SHAPES = [
    (h, STRIP_W, c) for h in (1, 63, 64, 65, 129) for c in (1, 3)
] + [
    (2 * preprocessing._STRIP_SAMPLES + 3, 1, 1),
    (preprocessing._STRIP_SAMPLES // 3 + 2, 1, 3),
    (1, WIDE, 1),
    (1, WIDE, 3),
    (3, 7, 3),
]


def random_image(shape, seed):
    rng = np.random.default_rng(seed)
    return RasterImage.from_array(rng.integers(0, 256, size=shape, dtype=np.uint8))


def noise_draws(fn, *args):
    """The sizes of the normal draws that ``fn(*args)`` makes, in order."""
    drawn = []
    default_rng = np.random.default_rng

    class CountingGenerator:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def standard_normal(self, out):
            drawn.append(out.size)
            return self.rng.standard_normal(out=out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", CountingGenerator)
        fn(*args)
    return drawn


def whole_frame_noise(image, variance, seed):
    samples = np.frombuffer(image.pixels, dtype=np.uint8).astype(np.float64)
    noise = gaussian_noise_stream(variance, seed, samples.size)
    return np.clip(np.rint(samples + noise), 0, 255).astype(np.uint8).tobytes()


def whole_frame_mask(image, cx, cy, radius):
    arr = image.to_array().copy()
    ys = np.arange(image.height, dtype=np.float64)[:, np.newaxis]
    xs = np.arange(image.width, dtype=np.float64)[np.newaxis, :]
    arr[(xs - cx) ** 2 + (ys - cy) ** 2 > radius * radius] = 0
    return arr.tobytes()


class TestStripsChangeNoBytes:
    """Strip-wise noise and mask against the whole-frame formulas."""

    @pytest.mark.parametrize("shape", STRIP_SHAPES)
    @pytest.mark.parametrize("variance", [1e-3, 25.0, 1e5])
    def test_noise(self, shape, variance):
        image = random_image(shape, seed=sum(shape))
        [out] = add_gaussian_noise([image], variance, seed=11)
        assert out.pixels == whole_frame_noise(image, variance, 11)

    @pytest.mark.parametrize("order", ["listed", "reversed", "shuffled"])
    def test_noise_batch(self, order):
        # One call noises frames of every length: each takes its prefix of
        # the shared strips, whichever frame is the longest.
        images = [random_image(shape, seed=sum(shape) + 2) for shape in STRIP_SHAPES]
        if order == "reversed":
            images.reverse()
        elif order == "shuffled":
            np.random.default_rng(6).shuffle(images)
        out = add_gaussian_noise(iter(images), 25.0, seed=11)
        assert [(o.width, o.height, o.channels) for o in out] == [
            (i.width, i.height, i.channels) for i in images]
        assert [o.pixels for o in out] == [whole_frame_noise(i, 25.0, 11) for i in images]

    def test_noise_batch_draws_the_longest_frame_once(self):
        images = [random_image(shape, seed=1) for shape in STRIP_SHAPES]
        drawn = noise_draws(add_gaussian_noise, images, 25.0, 3)
        assert sum(drawn) == max(len(image.pixels) for image in images)
        assert max(drawn) == preprocessing._STRIP_SAMPLES

    @pytest.mark.parametrize("shapes, drawn_frames", [
        # The benchmark's frames: two RGB, then one gray of the same size.
        ([(150, 200, 3), (150, 200, 3), (150, 200, 1)], [0, 2]),
        ([(150, 200, 3)] * 5, [0, 2, 4]),
        # A large frame and two small ones: a pair, then the last frame.
        ([(150, 200, 3), (50, 200, 3), (50, 200, 3)], [0, 2]),
    ], ids=["benchmark", "five-equal", "large-small-small"])
    def test_noise_command_draws_each_pair_once(self, tmp_path, shapes, drawn_frames):
        images = [random_image(shape, seed=n) for n, shape in enumerate(shapes)]
        paths = [tmp_path / f"frame{n}.pnm" for n in range(len(images))]
        for path, image in zip(paths, images):
            path.write_bytes(encode_raster(image))
        out = tmp_path / "out"
        argv = ["preprocess", "noise", *map(str, paths), "--variance", "25", "--seed", "3",
                "--out-dir", str(out)]
        drawn = noise_draws(cli.main, argv)
        assert sum(drawn) == sum(len(images[n].pixels) for n in drawn_frames)
        assert [(out / path.name).read_bytes() for path in paths] == [
            encode_raster(RasterImage(i.width, i.height, i.channels,
                                      whole_frame_noise(i, 25.0, 3))) for i in images]

    def test_large_variance_saturates_both_ends(self):
        image = random_image((65, STRIP_W, 3), seed=3)
        [noisy] = add_gaussian_noise([image], 1e5, seed=4)
        out = np.frombuffer(noisy.pixels, dtype=np.uint8)
        assert out.min() == 0 and out.max() == 255

    @pytest.mark.parametrize("shape", STRIP_SHAPES)
    def test_mask(self, shape):
        image = random_image(shape, seed=sum(shape) + 1)
        h, w = shape[0], shape[1]
        circles = [
            (w / 2, h / 2, min(w, h) / 3 + 0.5),  # inside the frame
            (-50.0, -50.0, 10.0),  # off the frame: everything zeroed
            (w / 2, h / 2, 0.0),  # radius 0
            (3, 4, 5),  # exact-distance ties on the circle
            (w / 2, h / 2, float(w + h)),  # covers the whole frame
            (w - 0.5, h + 2.0, (w + h) / 2),  # centre below the frame
        ]
        for cx, cy, radius in circles:
            out = circular_mask(image, cx, cy, radius)
            assert out.pixels == whole_frame_mask(image, cx, cy, radius), (cx, cy, radius)

    @pytest.mark.parametrize("budget", [1, 2, 7, 64])
    def test_tiny_strips(self, monkeypatch, budget):
        # Tiles of a handful of samples cross every row and column edge.
        monkeypatch.setattr(preprocessing, "_STRIP_SAMPLES", budget)
        images = []
        for shape in [(1, 1, 1), (5, 9, 3), (13, 4, 1), (1, 17, 3), (17, 1, 1)]:
            image = random_image(shape, seed=budget + sum(shape))
            images.append(image)
            h, w = shape[0], shape[1]
            for cx, cy, r in [(w / 2, h / 2, 2.5), (3, 4, 5), (-9, 2, 4), (0, 0, 0)]:
                out = circular_mask(image, cx, cy, r)
                assert out.pixels == whole_frame_mask(image, cx, cy, r)
            for variance in (0.01, 400.0, 1e5):
                [out] = add_gaussian_noise([image], variance, seed=budget)
                assert out.pixels == whole_frame_noise(image, variance, budget)
        # Batches of these unequal frames end inside, on and past strip edges.
        for batch in (images, images[::-1], images[1::2] + images[::2]):
            for variance in (0.01, 400.0, 1e5):
                out = add_gaussian_noise(batch, variance, seed=budget)
                assert [o.pixels for o in out] == [
                    whole_frame_noise(image, variance, budget) for image in batch]

    @pytest.mark.parametrize("shape", [(37, 41, 3), (3, preprocessing._STRIP_SAMPLES + 9, 1),
                                       (preprocessing._STRIP_SAMPLES + 9, 1, 1), (1, 1, 3)])
    def test_mask_seeded_circles(self, shape):
        # Centres in and out of the frame, on and off the pixel grid, radii
        # from 0 past the frame's diagonal; squares overflowing to inf.
        h, w = shape[0], shape[1]
        image = random_image(shape, seed=h + w)
        rng = np.random.default_rng(h * w)
        circles = [(1e200, 0.0, 1e200), (-3.0, 2.0, 1e160), (0.5, 0.5, 0.5)]
        for _ in range(20):
            cx = float(rng.choice([rng.uniform(-w, 2 * w), rng.integers(-2, w + 2),
                                   rng.integers(0, w) + 0.5]))
            cy = float(rng.choice([rng.uniform(-h, 2 * h), rng.integers(-2, h + 2),
                                   rng.integers(0, h) + 0.5]))
            radius = float(rng.choice([0.0, rng.uniform(0, 1.5 * np.hypot(w, h)),
                                       rng.integers(0, max(w, h) + 1)]))
            circles.append((cx, cy, radius))
        for cx, cy, radius in circles:
            out = circular_mask(image, cx, cy, radius)
            with np.errstate(over="ignore"):
                expected = whole_frame_mask(image, cx, cy, radius)
            assert out.pixels == expected, (cx, cy, radius)

    @pytest.mark.parametrize("chunk", [1, 7, 999, preprocessing._STRIP_SAMPLES + 1])
    @pytest.mark.parametrize("sd", [1e-3, 5.0, 316.2])
    def test_scaled_standard_normals_are_the_normal_draws(self, chunk, sd):
        # add_gaussian_noise scales standard normals in place of calling
        # normal(0.0, sd): equal values, and equal bits once a sample is added.
        count = 200_003
        samples = np.random.default_rng(1).integers(0, 256, count).astype(np.float64)
        drawn, scaled = np.random.default_rng(77), np.random.default_rng(77)
        buffer = np.empty(chunk)
        for start in range(0, count, chunk):
            stop = min(start + chunk, count)
            expected = drawn.normal(0.0, sd, size=stop - start)
            strip = buffer[: stop - start]
            scaled.standard_normal(out=strip)
            strip *= sd
            assert np.array_equal(strip, expected)
            strip += samples[start:stop]
            assert strip.tobytes() == (expected + samples[start:stop]).tobytes()

    @pytest.mark.parametrize("chunk", [1, 7, 999, 262_144])
    def test_chunked_draws_continue_one_stream(self, chunk):
        count = 1_000_003
        rng = np.random.default_rng(2024)
        drawn = np.empty(count)
        for start in range(0, count, chunk):
            stop = min(start + chunk, count)
            drawn[start:stop] = rng.normal(0.0, 5.0, size=stop - start)
        assert np.array_equal(drawn, gaussian_noise_stream(25.0, 2024, count))


def random_boxes(seed, count):
    """Valid labels of every size up to 0.6 of a side, a third of them flush
    with an edge of the unit square."""
    rng = np.random.default_rng(seed)
    boxes = []
    for i in range(count):
        w, h = (float(v) for v in rng.uniform(1e-4, 0.6, 2))
        cx, cy = (float(v) for v in rng.uniform(0.0, 1.0, 2))
        cx = min(max(cx, w / 2), 1 - w / 2) if i % 3 else w / 2
        cy = min(max(cy, h / 2), 1 - h / 2) if i % 3 != 1 else 1 - h / 2
        with contextlib.suppress(LarvaekitError):
            boxes.append(LabeledBox(i % 4, Box2D(cx, cy, w, h)))
    return boxes


def frame_and_boxes(image, boxes):
    """What an operation returned, in a form that compares bytes and bits."""
    return (image.width, image.height, image.channels, bytes(image.pixels), repr(list(boxes)))


FRAME_SHAPES = [(1, 1, 1), (1, 1, 3), (1, 9, 3), (9, 1, 1), (5, 7, 1), (6, 4, 3), (33, 20, 3)]


class TestAgainstArrayForms:
    """Crop, mask, rotate, quantile and enlarge give the bytes and boxes of
    their numpy forms, kept in ``oracles``."""

    @pytest.mark.parametrize("shape", FRAME_SHAPES)
    def test_crop(self, shape):
        image = random_image(shape, seed=sum(shape))
        h, w = shape[0], shape[1]
        boxes = random_boxes(sum(shape), 60)
        # Every window size, so odd and even margins on each side, the full
        # frame and a single pixel.
        for target_h in range(1, h + 1):
            for target_w in range(1, w + 1):
                got = center_crop(image, boxes, target_w, target_h)
                expected = array_center_crop(image, boxes, target_w, target_h)
                assert frame_and_boxes(*got) == frame_and_boxes(*expected), (target_w, target_h)

    @pytest.mark.parametrize("shape", FRAME_SHAPES)
    def test_mask(self, shape):
        image = random_image(shape, seed=sum(shape) + 2)
        h, w = shape[0], shape[1]
        circles = [(w / 2, h / 2, 0.0), (0, 0, 0), (-50.0, -50.0, 10.0), (w + 40.0, h / 2, 3.0),
                   (1e308, h / 2, 5.0), (-1e308, h / 2, 5.0), (w / 2, 1e308, 1e308),
                   (-1e308, -1e308, 1e308), (w / 2, h / 2, 1e200), (w / 3, h - 1, 2.0)]
        for cx, cy, radius in circles:
            assert (circular_mask(image, cx, cy, radius).pixels
                    == array_circular_mask(image, cx, cy, radius).pixels), (cx, cy, radius)

    @pytest.mark.parametrize("shape", FRAME_SHAPES)
    def test_rotate(self, shape):
        image = random_image(shape, seed=sum(shape) + 3)
        boxes = random_boxes(sum(shape) + 3, 60)
        assert frame_and_boxes(*rotate90(image, boxes)) == frame_and_boxes(
            *array_rotate90(image, boxes))

    @pytest.mark.parametrize("count", [1, 2, 3, 7, 100, 60_000])
    def test_area_quantile(self, count):
        rng = np.random.default_rng(count)
        # Half the areas tied to a few values, the others all different.
        sides = rng.uniform(1e-3, 1.0, (count, 2))
        sides[::2] = rng.choice([0.1, 0.2, 0.5], (len(sides[::2]), 2))
        rows = [(0.5, 0.5, w, h) for w, h in sides.tolist()]
        ranks = [0, 1, 0.0, 1.0, 0.5, 0.25, *rng.uniform(0, 1, 20).tolist()]
        # Ranks k / (n - 1) land on an area, or one rounding step off it.
        ranks += [k / (count - 1) for k in range(1, count - 1, max(1, count // 7))]
        for q in ranks:
            assert repr(area_quantile(rows, q)) == repr(array_area_quantile(rows, q)), q

    def test_halfway_rank_interpolates_from_the_upper_area(self):
        # At t = 0.5 numpy takes b - (b - a) * 0.5, which for these pairs
        # differs from a + (b - a) * 0.5 in the last bit.
        for a, b in [(0.1, 0.7), (0.02, 0.3), (0.1, 0.5)]:
            rows = [(0.5, 0.5, b, 1.0), (0.5, 0.5, a, 1.0)]
            assert a + (b - a) * 0.5 != b - (b - a) * 0.5
            assert area_quantile(rows, 0.5) == array_area_quantile(rows, 0.5) == b - (b - a) * 0.5

    @pytest.mark.parametrize("mode", ["literal", "normalize"])
    def test_enlarge(self, mode):
        boxes = random_boxes(7, 300)
        shrunk = 0
        for threshold in (1e-6, 0.001, 0.01, 0.2, 1.0):
            got = enlarge_small_boxes(boxes, threshold, mode)
            assert repr(got) == repr(array_enlarge_small_boxes(boxes, threshold, mode))
            assert [a is b for a, b in zip(boxes, got)] == [a.box.area >= threshold for a in boxes]
            # Grown boxes that reach an edge are shrunk to fit at it.
            shrunk += sum(a is not b and b.box.w == 2 * min(b.box.cx, 1.0 - b.box.cx)
                          for a, b in zip(boxes, got))
        assert shrunk >= 50


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    """Noise and mask hold their input and one output frame, a noise command
    at most three frames (a pair of outputs and one encoded copy), and decoding
    holds no copy of the payload."""

    def frame(self):
        return random_image((1000, 1200, 3), seed=8)

    def test_noise_peak(self):
        image = self.frame()
        assert traced_peak(add_gaussian_noise, [image], 25.0, 7) <= 1.5 * len(image.pixels)

    @pytest.mark.parametrize("frames", ["L" * n for n in (2, 3, 4, 5, 8)] + ["Lss"],
                             ids=["2", "3", "4", "5", "8", "large-small-small"])
    def test_noise_command_peak(self, tmp_path, frames):
        # A pair of frames is noised and written before the next pair is read,
        # so the command holds at most three frames and two float64 strips.
        images = {"L": self.frame(), "s": random_image((500, 600, 3), seed=9)}
        paths = [tmp_path / f"frame{n}.ppm" for n in range(len(frames))]
        for path, kind in zip(paths, frames):
            path.write_bytes(encode_raster(images[kind]))
        out = tmp_path / "out"
        argv = ["preprocess", "noise", *map(str, paths), "--variance", "25", "--seed", "3",
                "--out-dir", str(out)]
        strips = 2 * 8 * preprocessing._STRIP_SAMPLES
        assert traced_peak(cli.main, argv) <= 3 * len(images["L"].pixels) + strips + 65536
        expected = {kind: encode_raster(RasterImage(i.width, i.height, i.channels,
                                                    whole_frame_noise(i, 25.0, 3)))
                    for kind, i in images.items()}
        assert all((out / path.name).read_bytes() == expected[kind]
                   for path, kind in zip(paths, frames))

    def test_mask_peak(self):
        image = self.frame()
        assert traced_peak(circular_mask, image, 600.0, 500.0, 450.0) <= 1.5 * len(image.pixels)

    def test_decode_peak(self):
        data = encode_raster(self.frame())
        assert traced_peak(decode_raster, data) <= 0.01 * len(data)
