"""Synthetic task generation, axial shifts, and the feature-file format."""

import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slicegraph.data
from slicegraph.data import (
    FEATURE_MAGIC,
    Sample,
    SynthTaskConfig,
    apply_z_shift,
    generate_sample,
    generate_split,
    generate_task,
    label_subspace,
    read_dataset,
    read_features,
    write_dataset,
    write_features,
)
from slicegraph.errors import (
    BadMagicError,
    BinaryFormatError,
    TruncatedPayloadError,
    VersionMismatchError,
)
from slicegraph.model import aggregate_sum


def small_cfg(**overrides):
    base = dict(n_nodes=16, d=8, n_labels=4, n_train=24, n_val=8, n_test=8,
                local_labels=(0, 1), diffuse_labels=(2, 3), seed=0)
    base.update(overrides)
    return SynthTaskConfig(**base)


def random_sample(rng, n=6, d=5, n_labels=3):
    return Sample(
        features=rng.normal(size=(n, d)).astype(np.float32),
        labels=rng.integers(0, 2, size=n_labels).astype(np.uint8),
        spacing_z_mm=float(rng.uniform(0.5, 3.0)),
    )


class TestSample:
    def test_rejects_non_finite_features(self):
        bad = np.zeros((3, 2), dtype=np.float32)
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            Sample(bad, np.array([1, 0], dtype=np.uint8), 1.5)

    def test_rejects_non_binary_labels(self):
        with pytest.raises(ValueError):
            Sample(np.zeros((3, 2), dtype=np.float32),
                   np.array([2, 0], dtype=np.uint8), 1.5)

    @pytest.mark.parametrize("labels", [[0.5, 1.0], [-1, 1], [1, 256]])
    def test_rejects_fractional_negative_and_wide_labels(self, labels):
        with pytest.raises(ValueError, match="binary"):
            Sample(np.zeros((3, 2), dtype=np.float32), np.array(labels), 1.5)

    @pytest.mark.parametrize("n_nodes", [0, 1])
    def test_rejects_volume_under_two_nodes(self, n_nodes):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            Sample(np.zeros((n_nodes, 2), dtype=np.float32),
                   np.array([1, 0], dtype=np.uint8), 1.5)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ValueError):
            Sample(np.zeros((3, 2), dtype=np.float32),
                   np.array([1, 0], dtype=np.uint8), 0.0)

    def test_rejects_infinite_spacing(self):
        with pytest.raises(ValueError, match="positive and finite"):
            Sample(np.zeros((3, 2), dtype=np.float32),
                   np.array([1, 0], dtype=np.uint8), np.inf)


class TestSynthTaskConfig:
    def test_desk_defaults(self):
        cfg = SynthTaskConfig()
        assert (cfg.n_nodes, cfg.d, cfg.n_labels) == (20, 16, 4)
        assert (cfg.n_train, cfg.n_val, cfg.n_test) == (2000, 500, 500)
        assert set(cfg.local_labels) | set(cfg.diffuse_labels) == {0, 1, 2, 3}

    def test_label_sets_must_partition(self):
        with pytest.raises(ValueError):
            small_cfg(local_labels=(0, 1), diffuse_labels=(1, 2, 3))
        with pytest.raises(ValueError):
            small_cfg(local_labels=(0,), diffuse_labels=(2, 3))

    def test_feature_dim_must_cover_labels(self):
        with pytest.raises(ValueError):
            small_cfg(d=3)

    def test_label_subspaces_are_disjoint_and_cover_evenly(self):
        cfg = small_cfg()
        slices = [label_subspace(cfg, lab) for lab in range(cfg.n_labels)]
        width = cfg.d // cfg.n_labels
        seen = set()
        for s in slices:
            cols = set(range(cfg.d)[s])
            assert len(cols) == width
            assert not cols & seen
            seen |= cols


class TestGeneration:
    def test_deterministic_across_calls(self):
        cfg = small_cfg()
        a_train, a_val, a_test = generate_task(cfg)
        b_train, b_val, b_test = generate_task(cfg)
        for xs, ys in ((a_train, b_train), (a_val, b_val), (a_test, b_test)):
            assert len(xs) == len(ys)
            for sa, sb in zip(xs, ys):
                np.testing.assert_array_equal(sa.features, sb.features)
                np.testing.assert_array_equal(sa.labels, sb.labels)

    def test_split_sizes(self):
        cfg = small_cfg()
        train, val, test = generate_task(cfg)
        assert (len(train), len(val), len(test)) == (24, 8, 8)

    def test_splits_differ_from_each_other(self):
        cfg = small_cfg()
        train, val, _ = generate_task(cfg)
        assert not np.array_equal(train[0].features, val[0].features)

    def test_seed_changes_data(self):
        a = generate_split(small_cfg(seed=0), "train")
        b = generate_split(small_cfg(seed=1), "train")
        assert not np.array_equal(a[0].features, b[0].features)

    def test_noiseless_local_positive_plants_exact_block(self):
        cfg = small_cfg(noise_std=0.0, signal_scale=1.0, n_train=400)
        span_len = max(1, round(cfg.n_nodes / 8))
        found_local = found_empty = False
        for idx in range(cfg.n_train):
            s = generate_sample(cfg, "train", idx)
            if not s.labels.any():
                np.testing.assert_array_equal(s.features, 0.0)
                found_empty = True
            if s.labels.tolist() == [1, 0, 0, 0]:
                found_local = True
                cols = label_subspace(cfg, 0)
                inside = s.features[:, cols]
                outside = np.delete(s.features, range(cfg.d)[cols], axis=1)
                np.testing.assert_array_equal(outside, 0.0)
                rows = np.flatnonzero(inside.any(axis=1))
                assert len(rows) == span_len
                assert (np.diff(rows) == 1).all()  # contiguous span
                np.testing.assert_array_equal(inside[rows], cfg.signal_scale)
            if found_local and found_empty:
                break
        assert found_local and found_empty

    def test_noiseless_diffuse_positive_plants_quarter_strength(self):
        cfg = small_cfg(noise_std=0.0, signal_scale=1.0, n_train=400)
        n_scattered = max(1, round(cfg.n_nodes / 2))
        for idx in range(cfg.n_train):
            s = generate_sample(cfg, "train", idx)
            if s.labels.tolist() == [0, 0, 1, 0]:
                cols = label_subspace(cfg, 2)
                inside = s.features[:, cols]
                rows = np.flatnonzero(inside.any(axis=1))
                assert len(rows) == n_scattered
                np.testing.assert_allclose(
                    inside[rows], cfg.signal_scale / 4.0, rtol=1e-6)
                break
        else:
            pytest.fail("no purely diffuse-positive sample found")

    def test_label_marginal_close_to_rate(self):
        cfg = small_cfg(n_train=10_000)
        labels = np.stack([
            generate_sample(cfg, "train", i).labels for i in range(10_000)])
        marginals = labels.mean(axis=0)
        np.testing.assert_allclose(marginals, 0.3, atol=0.02)

    def test_features_are_float32(self):
        s = generate_sample(small_cfg(), "train", 0)
        assert s.features.dtype == np.float32
        assert s.spacing_z_mm == pytest.approx(1.5)

    def test_rejects_unknown_split(self):
        with pytest.raises(ValueError):
            generate_sample(small_cfg(), "holdout", 0)

    def test_noiseless_pooled_features_linearly_separate_labels(self):
        # a least-squares probe on the pooled features must be perfect
        cfg = small_cfg(noise_std=0.0, n_train=200)
        samples = generate_split(cfg, "train")
        pooled = np.stack([aggregate_sum(s.features) for s in samples])
        labels = np.stack([s.labels for s in samples])
        design = np.hstack([pooled, np.ones((len(samples), 1))])
        for lab in range(cfg.n_labels):
            coef, *_ = np.linalg.lstsq(design, labels[:, lab], rcond=None)
            predicted = (design @ coef) >= 0.5
            assert (predicted == labels[:, lab].astype(bool)).all()


class TestApplyZShift:
    def test_zero_shift_is_identity(self):
        s = random_sample(np.random.default_rng(0))
        shifted = apply_z_shift(s, 0)
        np.testing.assert_array_equal(shifted.features, s.features)
        np.testing.assert_array_equal(shifted.labels, s.labels)

    def test_positive_shift_moves_rows_up_in_index(self):
        s = random_sample(np.random.default_rng(1), n=5)
        shifted = apply_z_shift(s, 2)
        np.testing.assert_array_equal(shifted.features[2:], s.features[:3])
        np.testing.assert_array_equal(shifted.features[:2], 0.0)

    def test_negative_shift_moves_rows_down_in_index(self):
        s = random_sample(np.random.default_rng(2), n=5)
        shifted = apply_z_shift(s, -2)
        np.testing.assert_array_equal(shifted.features[:3], s.features[2:])
        np.testing.assert_array_equal(shifted.features[3:], 0.0)

    def test_max_shift_keeps_single_row(self):
        s = random_sample(np.random.default_rng(3), n=6)
        shifted = apply_z_shift(s, 5)
        np.testing.assert_array_equal(shifted.features[5], s.features[0])
        np.testing.assert_array_equal(shifted.features[:5], 0.0)

    def test_round_trip_restores_when_margins_match_pad(self):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(7, 3)).astype(np.float32)
        features[:2] = 0.0
        features[-2:] = 0.0
        s = Sample(features, np.array([1, 0], dtype=np.uint8), 1.5)
        back = apply_z_shift(apply_z_shift(s, 2), -2)
        np.testing.assert_array_equal(back.features, s.features)

    def test_wrap_mode_is_a_roll(self):
        s = random_sample(np.random.default_rng(6), n=6)
        shifted = apply_z_shift(s, 2, wrap=True)
        np.testing.assert_array_equal(shifted.features,
                                      np.roll(s.features, 2, axis=0))

    def test_rejects_shift_of_full_height(self):
        s = random_sample(np.random.default_rng(7), n=5)
        with pytest.raises(ValueError):
            apply_z_shift(s, 5)
        with pytest.raises(ValueError):
            apply_z_shift(s, -5)

    @given(st.integers(min_value=0, max_value=10_000),
           st.integers(min_value=-5, max_value=5))
    @settings(max_examples=40)
    def test_surviving_rows_are_pure_copies(self, seed, shift):
        s = random_sample(np.random.default_rng(seed), n=6)
        shifted = apply_z_shift(s, shift)
        for i in range(6):
            j = i + shift
            if 0 <= j < 6:
                np.testing.assert_array_equal(shifted.features[j], s.features[i])

    def test_labels_never_change(self):
        s = random_sample(np.random.default_rng(8), n=6)
        for shift in (-3, -1, 0, 2, 4):
            np.testing.assert_array_equal(
                apply_z_shift(s, shift).labels, s.labels)


class TestFeatureFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        for i in range(20):
            s = random_sample(rng)
            path = tmp_path / f"{i}.ctgf"
            write_features(path, s)
            loaded = read_features(path)
            np.testing.assert_array_equal(loaded.features, s.features)
            np.testing.assert_array_equal(loaded.labels, s.labels)
            assert loaded.spacing_z_mm == s.spacing_z_mm
            assert loaded.features.dtype == np.float32

    def test_magic_constant(self, tmp_path):
        path = tmp_path / "s.ctgf"
        write_features(path, random_sample(np.random.default_rng(0)))
        assert path.read_bytes()[:4] == FEATURE_MAGIC == b"CTGF"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "s.ctgf"
        write_features(path, random_sample(np.random.default_rng(0)))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError) as excinfo:
            read_features(path)
        assert excinfo.value.code == "bad_magic"

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "s.ctgf"
        write_features(path, random_sample(np.random.default_rng(0)))
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError) as excinfo:
            read_features(path)
        assert excinfo.value.code == "version_mismatch"

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "s.ctgf"
        write_features(path, random_sample(np.random.default_rng(0)))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 5])
        with pytest.raises(TruncatedPayloadError) as excinfo:
            read_features(path)
        assert excinfo.value.code == "truncated_payload"

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "s.ctgf"
        write_features(path, random_sample(np.random.default_rng(0)))
        path.write_bytes(path.read_bytes() + b"\x7f")
        with pytest.raises(TruncatedPayloadError):
            read_features(path)

    def test_error_codes_are_distinct(self):
        assert BadMagicError("x").code != VersionMismatchError("x").code
        assert BadMagicError("x").code != TruncatedPayloadError("x").code
        assert issubclass(BadMagicError, BinaryFormatError)

    def test_corrupt_label_byte_rejected(self, tmp_path):
        s = random_sample(np.random.default_rng(0), n=3, d=2, n_labels=2)
        path = tmp_path / "s.ctgf"
        write_features(path, s)
        raw = bytearray(path.read_bytes())
        raw[28] = 7  # first label byte, just past the 28-byte header
        path.write_bytes(bytes(raw))
        with pytest.raises(BinaryFormatError):
            read_features(path)


    @pytest.mark.parametrize("offset, value", [
        (20, struct.pack("<d", 0.0)),            # spacing_z_mm
        (20, struct.pack("<d", np.inf)),
        (28 + 2, struct.pack("<f", np.nan)),     # first feature, past 2 label bytes
        (28 + 1, b"\xff"),                       # second label byte
    ], ids=["zero_spacing", "inf_spacing", "nan_feature", "label_byte_255"])
    def test_content_that_sample_rejects_is_a_format_error(self, tmp_path, offset, value):
        s = random_sample(np.random.default_rng(0), n=3, d=2, n_labels=2)
        path = tmp_path / "s.ctgf"
        write_features(path, s)
        raw = bytearray(path.read_bytes())
        raw[offset:offset + len(value)] = value
        path.write_bytes(bytes(raw))
        with pytest.raises(BinaryFormatError, match="s.ctgf"):
            read_features(path)


    @pytest.mark.parametrize("n_nodes", [0, 1])
    def test_volume_under_two_nodes_is_a_format_error(self, tmp_path, n_nodes):
        path = tmp_path / "s.ctgf"
        header = struct.pack("<4sIIIId", FEATURE_MAGIC, 1, n_nodes, 2, 2, 1.5)
        path.write_bytes(header + b"\x01\x00" + b"\x00" * (4 * 2 * n_nodes))
        with pytest.raises(BinaryFormatError, match="at least 2 nodes"):
            read_features(path)


class TestDatasetDirectory:
    def test_reads_the_glob_file_set_in_sorted_order(self, tmp_path, monkeypatch):
        names = ["10.ctgf", "9.ctgf", ".h.ctgf", "B.ctgf", "a.ctgf"]
        rng = np.random.default_rng(12)
        written = {}
        for name in names:
            written[name] = random_sample(rng)
            write_features(tmp_path / name, written[name])
        (tmp_path / "notes.txt").write_text("not a volume")
        write_features(tmp_path / "x.ctgf.bak", random_sample(rng))
        expected = [p.name for p in sorted(Path(tmp_path).glob("*.ctgf"))]
        assert expected == [".h.ctgf", "10.ctgf", "9.ctgf", "B.ctgf", "a.ctgf"]

        calls = []
        original = slicegraph.data.read_features
        monkeypatch.setattr(slicegraph.data, "read_features",
                            lambda path: calls.append(Path(path).name) or original(path))
        loaded = read_dataset(tmp_path)
        assert calls == expected
        for name, sample in zip(expected, loaded):
            np.testing.assert_array_equal(sample.features, written[name].features)
            assert sample.spacing_z_mm == written[name].spacing_z_mm

    def test_write_read_preserves_order_and_content(self, tmp_path):
        rng = np.random.default_rng(10)
        samples = [random_sample(rng) for _ in range(5)]
        write_dataset(tmp_path / "split", samples)
        loaded = read_dataset(tmp_path / "split")
        assert len(loaded) == 5
        for a, b in zip(samples, loaded):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_empty_directory_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError):
            read_dataset(tmp_path / "empty")

    @pytest.mark.parametrize("odd", [{"d": 4}, {"n_labels": 2}])
    def test_mixed_width_or_label_count_rejected(self, tmp_path, odd):
        rng = np.random.default_rng(11)
        samples = [random_sample(rng) for _ in range(4)]
        samples[2] = random_sample(rng, **odd)
        write_dataset(tmp_path / "split", samples)
        with pytest.raises(BinaryFormatError, match="00002.ctgf"):
            read_dataset(tmp_path / "split")

    @pytest.mark.parametrize("edit, error", [
        (lambda raw: raw[:-1], TruncatedPayloadError),
        (lambda raw: raw + b"\x00", TruncatedPayloadError),
        (lambda raw: b"XXXX" + raw[4:], BadMagicError),
        (lambda raw: raw[:4] + b"\x63" + raw[5:], VersionMismatchError),
        (lambda raw: raw[:20], TruncatedPayloadError),
        (lambda raw: raw[:3], BadMagicError),
    ], ids=["short", "long", "magic", "version", "header_only", "stub"])
    def test_headers_check_magic_version_and_size(self, tmp_path, edit, error):
        rng = np.random.default_rng(13)
        write_dataset(tmp_path / "split", [random_sample(rng) for _ in range(3)])
        path = tmp_path / "split" / "00001.ctgf"
        path.write_bytes(edit(path.read_bytes()))
        for read, arg in ((read_features, path), (read_features, str(path)),
                          (read_dataset, tmp_path / "split")):
            with pytest.raises(error, match="00001.ctgf"):
                read(arg)
