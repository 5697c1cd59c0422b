"""Volume formats, preprocessing chain, folds, and the phantom generator."""

import dataclasses
import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msseg import rng as rngmod
from msseg.data import (
    BRAIN_FLOOR,
    FORMAT_VERSION,
    LESION_BAND,
    ManifestEntry,
    MaskVolume,
    PhantomSpec,
    Volume,
    crop_to_roi,
    generate_phantom,
    load_mask,
    load_volume,
    make_folds,
    make_triplets,
    normalize_intensity,
    parse_manifest,
    preprocess_pair,
    remove_black_slices,
    save_mask,
    save_volume,
    write_manifest,
    _brain_semis,
    _largest_lesion,
    _lesion_radius,
)
from msseg.cli import _folds
from msseg.errors import FileFormatError, ShapeError


def rand_volume(rng, dims, scale=1.0):
    return Volume(scale * rng.random(dims, dtype=np.float32))


# ---------------------------------------------------------------------------
# types


def test_volume_validation():
    with pytest.raises(ShapeError):
        Volume(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        Volume(np.full((1, 1, 1), np.nan))
    with pytest.raises(ValueError, match="non-negative"):
        Volume(np.full((1, 1, 1), -1.0))
    with pytest.raises(ValueError, match="0 or 1"):
        MaskVolume(np.full((1, 1, 1), 3, dtype=np.uint8))
    v = Volume(np.ones((2, 3, 4)))
    assert v.dims == (2, 3, 4)
    assert v.voxels.dtype == np.float32


# ---------------------------------------------------------------------------
# file round trips


def test_volume_round_trip_bit_identical(tmp_path):
    rng = rngmod.stream(1, "io")
    v = rand_volume(rng, (3, 5, 7))
    path = str(tmp_path / "v.msvol")
    save_volume(v, path)
    back = load_volume(path)
    assert back.voxels.tobytes() == v.voxels.tobytes()
    assert back.dims == v.dims


def test_mask_round_trip_bit_identical(tmp_path):
    rng = rngmod.stream(2, "io")
    m = MaskVolume((rng.random((3, 5, 7)) < 0.3).astype(np.uint8))
    path = str(tmp_path / "m.msmsk")
    save_mask(m, path)
    back = load_mask(path)
    assert back.labels.tobytes() == m.labels.tobytes()


def _traced_peak(call):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def test_volume_io_copies_the_payload_at_most_once(tmp_path):
    v = rand_volume(rngmod.stream(3, "io-peak"), (12, 192, 192))
    path = str(tmp_path / "big.msvol")
    _, save_peak = _traced_peak(lambda: save_volume(v, path))
    # the header and the array go to the file as two chunks, with no join
    assert save_peak < 0.25 * v.voxels.nbytes
    raw = (tmp_path / "big.msvol").read_bytes()
    header = struct.pack("<6sB3I", b"MSVOL1", FORMAT_VERSION, 12, 192, 192)
    assert raw == header + v.voxels.tobytes()
    del raw
    back, load_peak = _traced_peak(lambda: load_volume(path))
    # the payload is read into its one array; Volume's checks add about 0.25x
    assert load_peak < 1.5 * v.voxels.nbytes
    assert back.voxels.tobytes() == v.voxels.tobytes()


def test_single_voxel_file_size(tmp_path):
    path = str(tmp_path / "one.msvol")
    save_volume(Volume(np.full((1, 1, 1), 0.5, dtype=np.float32)), path)
    raw = (tmp_path / "one.msvol").read_bytes()
    assert len(raw) == 6 + 1 + 12 + 4
    assert raw[:6] == b"MSVOL1"
    assert raw[6] == FORMAT_VERSION
    assert np.frombuffer(raw[19:], dtype="<f4")[0] == np.float32(0.5)


def test_save_leaves_no_temp_files(tmp_path):
    save_volume(Volume(np.ones((1, 2, 2))), str(tmp_path / "v.msvol"))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["v.msvol"]


def test_every_magic_mutation_rejected(tmp_path):
    path = str(tmp_path / "v.msvol")
    save_volume(Volume(np.ones((1, 1, 1))), path)
    raw = bytearray((tmp_path / "v.msvol").read_bytes())
    for pos in range(6):
        for delta in (1, 128):
            bad = bytearray(raw)
            bad[pos] = (bad[pos] + delta) % 256
            (tmp_path / "bad.msvol").write_bytes(bytes(bad))
            with pytest.raises(FileFormatError, match="bad magic") as exc:
                load_volume(str(tmp_path / "bad.msvol"))
            assert exc.value.code == "bad-magic"


def test_header_error_codes(tmp_path):
    path = tmp_path / "v.msvol"
    save_volume(Volume(np.ones((2, 2, 2))), str(path))
    raw = bytearray(path.read_bytes())

    bad = bytearray(raw)
    bad[6] = 9
    path.write_bytes(bytes(bad))
    with pytest.raises(FileFormatError) as exc:
        load_volume(str(path))
    assert exc.value.code == "bad-version"

    path.write_bytes(bytes(raw[:10]))
    with pytest.raises(FileFormatError) as exc:
        load_volume(str(path))
    assert exc.value.code == "truncated"

    path.write_bytes(bytes(raw[:-4]))
    with pytest.raises(FileFormatError) as exc:
        load_volume(str(path))
    assert exc.value.code == "truncated"

    path.write_bytes(bytes(raw) + b"xyz")
    with pytest.raises(FileFormatError) as exc:
        load_volume(str(path))
    assert exc.value.code == "size-mismatch"

    path.write_bytes(struct.pack("<6sB3I", b"MSVOL1", 1, 1 << 20, 1 << 20, 2))
    with pytest.raises(FileFormatError) as exc:
        load_volume(str(path))
    assert exc.value.code == "dim-overflow"

    path.write_bytes(struct.pack("<6sB3I", b"MSVOL1", 1, 0, 4, 4))
    with pytest.raises(FileFormatError) as exc:
        load_volume(str(path))
    assert exc.value.code == "bad-dims"


def test_mask_label_and_payload_checks(tmp_path):
    path = tmp_path / "m.msmsk"
    save_mask(MaskVolume(np.zeros((1, 2, 2), dtype=np.uint8)), str(path))
    raw = bytearray(path.read_bytes())
    raw[-1] = 2
    path.write_bytes(bytes(raw))
    with pytest.raises(FileFormatError) as exc:
        load_mask(str(path))
    assert exc.value.code == "bad-labels"

    vpath = tmp_path / "v.msvol"
    save_volume(Volume(np.ones((1, 1, 1))), str(vpath))
    raw = bytearray(vpath.read_bytes())
    for bad in (np.nan, -1.0):
        raw[19:] = np.array([bad], dtype="<f4").tobytes()
        vpath.write_bytes(bytes(raw))
        with pytest.raises(FileFormatError) as exc:
            load_volume(str(vpath))
        assert exc.value.code == "bad-payload"
        assert str(vpath) in str(exc.value)


# ---------------------------------------------------------------------------
# preprocessing


def test_remove_black_slices_drops_terminal():
    vox = np.zeros((5, 4, 4), dtype=np.float32)
    vox[1:4] = 1.0
    lab = np.zeros((5, 4, 4), dtype=np.uint8)
    lab[2, 1, 1] = 1
    v, m = remove_black_slices(Volume(vox), MaskVolume(lab))
    assert v.dims == (3, 4, 4)
    np.testing.assert_array_equal(v.voxels, vox[1:4])
    np.testing.assert_array_equal(m.labels, lab[1:4])


def test_remove_black_slices_identity_when_clean():
    rng = rngmod.stream(3, "black")
    vox = rng.random((4, 3, 3), dtype=np.float32) + 0.1
    v, m = remove_black_slices(Volume(vox), MaskVolume(np.zeros((4, 3, 3), np.uint8)))
    np.testing.assert_array_equal(v.voxels, vox)


def test_remove_black_slices_randomized_oracle():
    rng = rngmod.stream(4, "black-oracle")
    for _ in range(20):
        s = int(rng.integers(1, 10))
        vox = rng.random((s, 3, 3), dtype=np.float32)
        for i in range(s):
            if rng.random() < 0.4:
                vox[i] = 0.0
        expected = [i for i in range(s) if np.any(vox[i] != 0)]
        vol = Volume(vox)
        msk = MaskVolume(np.zeros((s, 3, 3), np.uint8))
        if not expected:
            with pytest.raises(ValueError, match="black"):
                remove_black_slices(vol, msk)
            continue
        v, _ = remove_black_slices(vol, msk)
        assert v.dims[0] == len(expected)
        np.testing.assert_array_equal(v.voxels, vox[expected])


def test_crop_181x217_to_160():
    vox = np.zeros((2, 181, 217), dtype=np.float32)
    vox[:, 40:140, 60:160] = 1.0
    v, m = crop_to_roi(Volume(vox), MaskVolume(np.zeros((2, 181, 217), np.uint8)))
    assert v.dims == (2, 160, 160)
    assert m.dims == (2, 160, 160)
    assert v.voxels.sum() == vox.sum()


def test_crop_identity_when_content_fills_target():
    rng = rngmod.stream(5, "crop")
    vox = rng.random((2, 160, 160), dtype=np.float32) + 0.1
    v, _ = crop_to_roi(Volume(vox), MaskVolume(np.zeros((2, 160, 160), np.uint8)))
    np.testing.assert_array_equal(v.voxels, vox)


def test_crop_window_centers_on_content_box():
    rng = rngmod.stream(6, "crop-oracle")
    for _ in range(20):
        h = int(rng.integers(160, 220))
        w = int(rng.integers(160, 220))
        r0 = int(rng.integers(0, h - 30))
        r1 = int(rng.integers(r0, min(r0 + 159, h - 1)))
        c0 = int(rng.integers(0, w - 30))
        c1 = int(rng.integers(c0, min(c0 + 159, w - 1)))
        vox = np.zeros((1, h, w), dtype=np.float32)
        vox[0, r0 : r1 + 1, c0 : c1 + 1] = 0.5
        marker = 7.0
        vox[0, r0, c0] = marker
        v, _ = crop_to_roi(Volume(vox), MaskVolume(np.zeros((1, h, w), np.uint8)), (160, 160))
        assert v.dims == (1, 160, 160)
        where = np.argwhere(v.voxels[0] == marker)
        assert len(where) == 1
        rs = r0 - int(where[0][0])
        cs = c0 - int(where[0][1])
        assert rs == min(max((r0 + r1) // 2 - 80, 0), h - 160)
        assert cs == min(max((c0 + c1) // 2 - 80, 0), w - 160)
        assert v.voxels.sum() == vox.sum()


def test_crop_errors():
    small = Volume(np.ones((1, 100, 200)))
    with pytest.raises(ShapeError, match="smaller"):
        crop_to_roi(small, MaskVolume(np.zeros((1, 100, 200), np.uint8)))
    wide = np.zeros((1, 200, 200), dtype=np.float32)
    wide[0, 10:190, 10:190] = 1.0
    with pytest.raises(ValueError, match="180x180"):
        crop_to_roi(Volume(wide), MaskVolume(np.zeros((1, 200, 200), np.uint8)))
    blank = Volume(np.zeros((1, 200, 200)))
    with pytest.raises(ValueError, match="no nonzero"):
        crop_to_roi(blank, MaskVolume(np.zeros((1, 200, 200), np.uint8)))


def test_normalize_examples():
    v = normalize_intensity(Volume(np.arange(0, 101, dtype=np.float32).reshape(1, 1, 101)))
    assert v.voxels.min() == 0.0
    assert v.voxels.max() == 1.0
    np.testing.assert_allclose(v.voxels[0, 0], np.arange(101) / 100.0, atol=1e-7)

    rng = rngmod.stream(7, "norm")
    vox = rng.random((2, 4, 4), dtype=np.float32)
    vox.flat[0] = 0.0
    vox.flat[1] = 1.0
    once = normalize_intensity(Volume(vox))
    np.testing.assert_array_equal(once.voxels, vox)
    twice = normalize_intensity(once)
    np.testing.assert_array_equal(twice.voxels, once.voxels)

    with pytest.raises(ValueError, match="constant"):
        normalize_intensity(Volume(np.full((1, 2, 2), 3.0)))


def test_preprocess_chain_keeps_image_mask_alignment():
    vox = np.zeros((6, 200, 200), dtype=np.float32)
    rng = rngmod.stream(8, "align")
    vox[1:5, 50:150, 60:140] = rng.random((4, 100, 80), dtype=np.float32) + 0.5
    vox[2, 70, 90] = 9.5
    vox[3, 100, 100] = 7.25
    lab = np.zeros((6, 200, 200), dtype=np.uint8)
    lab[2, 70, 90] = 1
    lab[3, 100, 100] = 1
    v, m = preprocess_pair(Volume(vox), MaskVolume(lab))
    assert v.dims == (4, 160, 160)
    assert int(m.labels.sum()) == 2
    at_max = np.unravel_index(np.argmax(v.voxels), v.voxels.shape)
    assert v.voxels[at_max] == 1.0
    assert m.labels[at_max] == 1
    marked = sorted(v.voxels[m.labels == 1])
    np.testing.assert_allclose(marked[1], 1.0)
    np.testing.assert_allclose(marked[0], 7.25 / 9.5, atol=1e-6)


# ---------------------------------------------------------------------------
# triplets


def test_triplets_single_slice_replicates():
    v = Volume(np.ones((1, 2, 2)))
    m = MaskVolume(np.zeros((1, 2, 2), np.uint8))
    samples = make_triplets(v, m)
    assert len(samples) == 1
    stack, lab = samples[0]
    assert stack.shape == (3, 2, 2)
    np.testing.assert_array_equal(stack[0], stack[1])
    np.testing.assert_array_equal(stack[1], stack[2])


def test_triplets_edges_and_interior():
    rng = rngmod.stream(9, "trip")
    vox = rng.random((5, 3, 3), dtype=np.float32)
    lab = (rng.random((5, 3, 3)) < 0.5).astype(np.uint8)
    samples = make_triplets(Volume(vox), MaskVolume(lab))
    assert len(samples) == 5
    np.testing.assert_array_equal(samples[0][0], np.stack([vox[0], vox[0], vox[1]]))
    np.testing.assert_array_equal(samples[4][0], np.stack([vox[3], vox[4], vox[4]]))
    for i in range(1, 4):
        np.testing.assert_array_equal(
            samples[i][0], np.stack([vox[i - 1], vox[i], vox[i + 1]])
        )
        np.testing.assert_array_equal(samples[i][1], lab[i])


# ---------------------------------------------------------------------------
# manifests and folds


def entry(vid, patient, tp):
    return ManifestEntry(vid, patient, tp, f"{vid}.msvol", f"{vid}.msmsk")


def isbi_shaped_entries():
    entries = []
    for p in range(1, 6):
        tps = 5 if p == 5 else 4
        for t in range(1, tps + 1):
            entries.append(entry(f"p{p}t{t}", str(p), t))
    return entries


def test_manifest_round_trip(tmp_path):
    entries = isbi_shaped_entries()
    path = str(tmp_path / "manifest.tsv")
    write_manifest(entries, path)
    assert parse_manifest(path) == entries


def test_manifest_errors(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("a\t1\t1\tx.msvol\n")
    with pytest.raises(ValueError, match="line 1.*5 tab-separated"):
        parse_manifest(str(p))
    p.write_text("a\t1\tfour\tx.msvol\ty.msmsk\n")
    with pytest.raises(ValueError, match="line 1.*not an integer"):
        parse_manifest(str(p))
    p.write_text("a\t1\t1\tx\ty\n\na\t1\t2\tx\ty\n")
    with pytest.raises(ValueError, match="duplicate volume id"):
        parse_manifest(str(p))


def test_folds_structure_and_membership():
    entries = isbi_shaped_entries()
    folds = make_folds(entries)
    assert len(folds) == 5
    all_ids = {e.id for e in entries}

    assert folds[0].test == ["p1t4"]
    assert folds[0].val == ["p2t4", "p3t4", "p4t4"]
    assert folds[4].test == ["p5t5"]
    assert folds[4].val == ["p1t4", "p2t4", "p3t4"]

    tests = set()
    for k, f in enumerate(folds, start=1):
        assert f.fold_id == k
        assert len(f.test) == 1
        assert len(f.val) == 3
        assert len(f.train) == len(entries) - 4
        parts = [set(f.train), set(f.val), set(f.test)]
        assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])
        assert parts[0] | parts[1] | parts[2] == all_ids
        tests.update(f.test)
    assert len(tests) == 5


def test_folds_open_no_volume_files(tmp_path):
    image, mask = str(tmp_path / "absent.msvol"), str(tmp_path / "absent.msmsk")
    entries = [
        ManifestEntry(f"p{p}t{t}", str(p), t, image, mask) for p in range(1, 6) for t in (1, 2)
    ]
    folds = _folds(entries)
    assert sorted(folds) == [1, 2, 3, 4, 5]
    assert folds[1].test == ["p1t2"]


def test_folds_errors():
    entries = [entry("a1", "1", 1), entry("a2", "1", 2)]
    with pytest.raises(ValueError, match="exactly 5 patients"):
        make_folds(entries)

    entries = [entry(f"p{p}t1", str(p), 1) for p in range(1, 6)]
    entries += [entry(f"p{p}t2", str(p), 2) for p in range(1, 5)]
    with pytest.raises(ValueError, match="fewer than 2 time points"):
        make_folds(entries)

    entries = [entry(f"p{p}t{t}", str(p), t) for p in range(1, 6) for t in (1, 2)]
    dup = entries + [entry("p1x", "1", 2)]
    with pytest.raises(ValueError, match="duplicate time points"):
        make_folds(dup)


# ---------------------------------------------------------------------------
# phantoms


def test_phantom_deterministic():
    spec = PhantomSpec(seed=11)
    v1, m1 = generate_phantom(spec)
    v2, m2 = generate_phantom(spec)
    assert v1.voxels.tobytes() == v2.voxels.tobytes()
    assert m1.labels.tobytes() == m2.labels.tobytes()
    v3, _ = generate_phantom(PhantomSpec(seed=12))
    assert v3.voxels.tobytes() != v1.voxels.tobytes()


def test_phantom_intensity_bands():
    v, m = generate_phantom(PhantomSpec(seed=13))
    vox, lab = v.voxels, m.labels
    assert lab.sum() > 0
    lesion = vox[lab == 1]
    assert lesion.min() >= LESION_BAND[0] - 1e-6
    assert lesion.max() <= LESION_BAND[1]
    rest = vox[lab == 0]
    rest = rest[rest > 0]
    assert rest.max() <= BRAIN_FLOOR + 0.45 + 1e-6
    assert rest.min() >= BRAIN_FLOOR - 1e-6
    assert rest.max() < LESION_BAND[0]


def test_phantom_terminal_slices_black_and_lesions_inside():
    v, m = generate_phantom(PhantomSpec(seed=14))
    assert np.all(v.voxels[0] == 0) and np.all(v.voxels[-1] == 0)
    nonzero_slices = np.any(v.voxels != 0, axis=(1, 2))
    lesion_slices = np.any(m.labels != 0, axis=(1, 2))
    assert np.all(nonzero_slices[lesion_slices])
    vv, mm = remove_black_slices(v, m)
    assert int(mm.labels.sum()) == int(m.labels.sum())


def test_phantom_zero_lesions():
    v, m = generate_phantom(PhantomSpec(seed=15, n_lesions=(0, 0)))
    assert m.labels.sum() == 0
    assert v.voxels.max() < LESION_BAND[0]


def test_phantom_spec_validation():
    with pytest.raises(ValueError, match="diameter"):
        generate_phantom(PhantomSpec(seed=1, dims=(6, 64, 64), lesion_radius=(3.5, 3.5)))
    with pytest.raises(ValueError, match=r"diameter 8; the largest radius that fits is 0\.937"):
        PhantomSpec(seed=1, dims=(10, 12, 12), n_lesions=(1, 1), lesion_radius=(4.0, 4.0))


# Ranges drawn as (lo, lo + step): wide steps reach radii far past the fit.
def _span(lo, step):
    return st.tuples(lo, step).map(lambda t: (t[0], t[0] + t[1]))


@settings(max_examples=500, deadline=None)
@given(
    dims=st.tuples(*[st.integers(0, 48)] * 3),
    counts=_span(st.integers(-1, 3), st.integers(-1, 3)),
    radii=_span(st.floats(-0.25, 1.5), st.floats(-0.5, 8.0)),
)
# at the fit limit itself the containment term rounds just above 0 on these dims
@example(dims=(12, 16, 8), counts=(1, 1), radii=(_largest_lesion((12, 16, 8)),) * 2)
def test_phantom_spec_refused_exactly_when_no_lesion_fits(dims, counts, radii):
    (nlo, nhi), (rlo, rhi) = counts, radii
    bad = rlo <= 0 or rhi < rlo or nlo < 0 or nhi < nlo or rlo > _largest_lesion(dims)
    try:
        spec = PhantomSpec(seed=7, dims=dims, n_lesions=counts, lesion_radius=radii)
    except ValueError:
        assert bad
        return
    assert not bad
    v, m = generate_phantom(spec)
    grid = np.indices(dims)
    norm2 = sum(((g - (d - 1) / 2) / a) ** 2 for g, d, a in zip(grid, dims, _brain_semis(dims)))
    lesion = m.labels == 1
    assert np.all(norm2[lesion] <= 1.0)
    assert np.all(v.voxels[lesion] >= np.float32(LESION_BAND[0]))
    assert np.all(v.voxels[lesion] <= LESION_BAND[1])
    v2, m2 = generate_phantom(spec)
    assert v2.voxels.tobytes() == v.voxels.tobytes()
    assert m2.labels.tobytes() == m.labels.tobytes()


def test_phantom_bytes_are_pinned():
    """SHA-256 over voxels, then labels, of the quick start's and pipeline
    benchmark's 12x32x32 phantoms and the three benchmark model phantoms."""
    specs = [PhantomSpec(seed=seed, dims=(12, 32, 32), lesion_radius=_lesion_radius((12, 32, 32)))
             for seed in [*range(3, 13), *range(1, 11)]]
    specs += [PhantomSpec(seed=1, dims=(12, n, n), lesion_radius=(1.2, 2.2)) for n in (72, 192, 40)]
    digest = hashlib.sha256()
    for spec in specs:
        v, m = generate_phantom(spec)
        digest.update(v.voxels.tobytes())
        digest.update(m.labels.tobytes())
    assert digest.hexdigest() == "cf840090155d02b66c8f532359a5023ef714607a13c7de16e079abc08be43d13"


@pytest.mark.parametrize(
    "field, value, says",
    [
        ("lesion_radius", (0.0, 1.0), "bad lesion radius range"),
        ("lesion_radius", (2.0, 1.0), "bad lesion radius range"),
        ("n_lesions", (-1, 2), "bad lesion count range"),
        ("n_lesions", (3, 2), "bad lesion count range"),
        ("dims", (6, 64, 64), "cannot fit a lesion of diameter 8"),
    ],
)
def test_phantom_spec_refuses_a_bad_range_when_made(field, value, says):
    with pytest.raises(ValueError, match=says):
        PhantomSpec(seed=1, **{field: value})
    with pytest.raises(ValueError, match=says):
        dataclasses.replace(PhantomSpec(seed=1), **{field: value})


def test_phantom_feeds_preprocessing():
    v, m = generate_phantom(PhantomSpec(seed=16, dims=(24, 200, 200)))
    pv, pm = preprocess_pair(v, m, (160, 160))
    assert pv.dims[1:] == (160, 160)
    assert pv.dims == pm.dims
    assert pv.voxels.max() == 1.0
    assert int(pm.labels.sum()) == int(m.labels.sum())
