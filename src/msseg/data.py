"""Volume storage, preprocessing, fold construction, and phantom synthesis.

The on-disk formats are deliberately small: a magic string, a version byte,
three little-endian u32 dims, then a raw payload (f32 voxels for images, u8
labels for masks).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import rng as rngmod
from .errors import FileFormatError, ShapeError

VOLUME_MAGIC = b"MSVOL1"
MASK_MAGIC = b"MSMSK1"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<6sB3I")
_MAX_VOXELS = 1 << 40

LESION_BAND = (0.8, 1.0)
BRAIN_FLOOR = 0.2


def atomic_write_bytes(path: str, *chunks) -> None:
    """Write ``chunks`` (bytes or C-contiguous arrays, each written as its
    raw buffer) in order via a temp file in the same directory (made if
    missing), then rename into place. Large buffers passed as their own
    chunks are never joined in memory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass
class Volume:
    """A stack of axial image slices, voxels float32 in (slices, height, width)."""

    voxels: np.ndarray

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels, dtype=np.float32)
        if self.voxels.ndim != 3:
            raise ShapeError(f"volume voxels must be 3-d, got shape {self.voxels.shape}")
        if not np.all(np.isfinite(self.voxels)):
            raise ValueError("volume voxels must all be finite")
        if np.any(self.voxels < 0):
            raise ValueError("volume voxels must be non-negative")

    @property
    def dims(self) -> tuple[int, int, int]:
        s, h, w = self.voxels.shape
        return (int(s), int(h), int(w))


@dataclass
class MaskVolume:
    """Binary lesion labels with the same (slices, height, width) layout."""

    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if self.labels.ndim != 3:
            raise ShapeError(f"mask labels must be 3-d, got shape {self.labels.shape}")
        if np.any(self.labels > 1):
            raise ValueError("mask labels must be 0 or 1")

    @property
    def dims(self) -> tuple[int, int, int]:
        s, h, w = self.labels.shape
        return (int(s), int(h), int(w))


# ---------------------------------------------------------------------------
# file I/O


def _pack_header(magic: bytes, dims: tuple[int, int, int]) -> bytes:
    return _HEADER.pack(magic, FORMAT_VERSION, *dims)


def _read_header(raw: bytes, path: str, expected_magic: bytes):
    if len(raw) < _HEADER.size:
        raise FileFormatError(f"{path}: file shorter than the header", code="truncated")
    magic, version, s, h, w = _HEADER.unpack_from(raw)
    if magic != expected_magic:
        raise FileFormatError(f"{path}: bad magic {magic!r}", code="bad-magic")
    if version != FORMAT_VERSION:
        raise FileFormatError(
            f"{path}: unsupported version {version}, expected {FORMAT_VERSION}",
            code="bad-version",
        )
    if s == 0 or h == 0 or w == 0:
        raise FileFormatError(f"{path}: zero dimension in {(s, h, w)}", code="bad-dims")
    if s * h * w > _MAX_VOXELS:
        raise FileFormatError(
            f"{path}: dims {(s, h, w)} exceed the voxel budget", code="dim-overflow"
        )
    return (s, h, w)


def _read_array(path: str, magic: bytes, dtype) -> np.ndarray:
    """Read a volume file: header, then exactly the payload its dims call for.

    The file's size is checked before anything is allocated, and the payload
    is read straight into the one array returned.
    """
    with open(path, "rb") as fh:
        dims = _read_header(fh.read(_HEADER.size), path, magic)
        expected = np.dtype(dtype).itemsize * dims[0] * dims[1] * dims[2]
        got = os.fstat(fh.fileno()).st_size - _HEADER.size
        if got > expected:
            raise FileFormatError(
                f"{path}: {got - expected} trailing bytes after payload", code="size-mismatch"
            )
        if got == expected:
            out = np.empty(dims, dtype)
            got = fh.readinto(out)
    if got < expected:
        raise FileFormatError(
            f"{path}: payload truncated, {got} of {expected} bytes", code="truncated"
        )
    return out


def save_volume(v: Volume, path: str) -> None:
    payload = np.ascontiguousarray(v.voxels, dtype="<f4")
    atomic_write_bytes(path, _pack_header(VOLUME_MAGIC, v.dims), payload)


def load_volume(path: str) -> Volume:
    voxels = _read_array(path, VOLUME_MAGIC, "<f4")
    try:
        return Volume(voxels)
    except ValueError as e:
        raise FileFormatError(f"{path}: {e}", code="bad-payload") from None


def save_mask(m: MaskVolume, path: str) -> None:
    payload = np.ascontiguousarray(m.labels, dtype=np.uint8)
    atomic_write_bytes(path, _pack_header(MASK_MAGIC, m.dims), payload)


def load_mask(path: str) -> MaskVolume:
    labels = _read_array(path, MASK_MAGIC, np.uint8)
    try:
        return MaskVolume(labels)
    except ValueError as e:
        raise FileFormatError(f"{path}: {e}", code="bad-labels") from None


# ---------------------------------------------------------------------------
# preprocessing


def _require_paired(v: Volume, m: MaskVolume) -> None:
    if v.dims != m.dims:
        raise ShapeError(f"image dims {v.dims} and mask dims {m.dims} differ")


def remove_black_slices(v: Volume, m: MaskVolume) -> tuple[Volume, MaskVolume]:
    """Drop every slice whose image voxels are all zero, keeping order."""
    _require_paired(v, m)
    keep = np.any(v.voxels != 0, axis=(1, 2))
    if not np.any(keep):
        raise ValueError("every slice is black; nothing left after removal")
    return Volume(v.voxels[keep]), MaskVolume(m.labels[keep])


def _window_start(lo: int, hi: int, size: int, target: int) -> int:
    start = (lo + hi) // 2 - target // 2
    return min(max(start, 0), size - target)


def crop_to_roi(
    v: Volume, m: MaskVolume, target: tuple[int, int] = (160, 160)
) -> tuple[Volume, MaskVolume]:
    """Center a fixed window on the nonzero content box and crop both stacks."""
    _require_paired(v, m)
    th, tw = target
    _, h, w = v.dims
    if h < th or w < tw:
        raise ShapeError(f"volume is {h}x{w}, smaller than the {th}x{tw} window")
    nz = v.voxels != 0
    rows = np.any(nz, axis=(0, 2))
    cols = np.any(nz, axis=(0, 1))
    if not rows.any():
        raise ValueError("volume has no nonzero content to center on")
    r0, r1 = int(np.argmax(rows)), int(h - 1 - np.argmax(rows[::-1]))
    c0, c1 = int(np.argmax(cols)), int(w - 1 - np.argmax(cols[::-1]))
    bh, bw = r1 - r0 + 1, c1 - c0 + 1
    if bh > th or bw > tw:
        raise ValueError(
            f"nonzero content spans {bh}x{bw} (rows {r0}..{r1}, cols {c0}..{c1}), "
            f"wider than the {th}x{tw} window"
        )
    rs = _window_start(r0, r1, h, th)
    cs = _window_start(c0, c1, w, tw)
    return (
        Volume(v.voxels[:, rs : rs + th, cs : cs + tw]),
        MaskVolume(m.labels[:, rs : rs + th, cs : cs + tw]),
    )


def normalize_intensity(v: Volume) -> Volume:
    """Min-max rescale the whole volume to [0, 1]."""
    mn = np.float32(v.voxels.min())
    mx = np.float32(v.voxels.max())
    if mx <= mn:
        raise ValueError("constant volume cannot be normalized")
    return Volume((v.voxels - mn) / (mx - mn))


def preprocess_pair(
    v: Volume, m: MaskVolume, target: tuple[int, int] = (160, 160)
) -> tuple[Volume, MaskVolume]:
    """Black-slice removal, content-centered crop, intensity normalization."""
    v, m = remove_black_slices(v, m)
    v, m = crop_to_roi(v, m, target)
    return normalize_intensity(v), m


def _triplet_indices(s: int) -> np.ndarray:
    """(previous, same, next) slice index for each of s slices, shape (s, 3).

    Boundary slices replicate the edge neighbor.
    """
    i = np.arange(s)
    return np.stack([np.maximum(i - 1, 0), i, np.minimum(i + 1, s - 1)], axis=1)


def make_triplets(v: Volume, m: MaskVolume) -> list[tuple[np.ndarray, np.ndarray]]:
    """One sample per slice: stacked (previous, same, next) plus the center mask."""
    _require_paired(v, m)
    return [(v.voxels[t], m.labels[i]) for i, t in enumerate(_triplet_indices(v.dims[0]))]


# ---------------------------------------------------------------------------
# manifests and folds


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    patient: str
    timepoint: int
    image_path: str
    mask_path: str


def parse_manifest(path: str) -> list[ManifestEntry]:
    entries = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ValueError(
                    f"manifest line {lineno}: expected 5 tab-separated fields, "
                    f"got {len(parts)}"
                )
            vid, patient, tp, image_path, mask_path = parts
            try:
                timepoint = int(tp)
            except ValueError:
                raise ValueError(
                    f"manifest line {lineno}: time point {tp!r} is not an integer"
                ) from None
            if vid in seen:
                raise ValueError(f"manifest line {lineno}: duplicate volume id {vid!r}")
            seen.add(vid)
            entries.append(ManifestEntry(vid, patient, timepoint, image_path, mask_path))
    return entries


def write_manifest(entries: list[ManifestEntry], path: str) -> None:
    lines = [
        f"{e.id}\t{e.patient}\t{e.timepoint}\t{e.image_path}\t{e.mask_path}\n"
        for e in entries
    ]
    atomic_write_bytes(path, "".join(lines).encode("utf-8"))


@dataclass(frozen=True)
class FoldSpec:
    fold_id: int
    train: list[str]
    val: list[str]
    test: list[str]


def make_folds(entries: list[ManifestEntry]) -> list[FoldSpec]:
    """Leave-one-scan-out folds over exactly five patients.

    Fold k holds out patient k's final time point for testing and uses the
    final time points of the next three patients (cyclically) for validation;
    everything else trains.  Only the entries' ids, patients and time points
    are read; no volume file is opened.
    """
    by_patient: dict[str, list[ManifestEntry]] = {}
    for e in entries:
        by_patient.setdefault(e.patient, []).append(e)
    patients = sorted(by_patient)
    if len(patients) != 5:
        raise ValueError(
            f"fold construction needs exactly 5 patients, found {len(patients)}"
        )
    finals = {}
    for p in patients:
        scans = sorted(by_patient[p], key=lambda e: e.timepoint)
        if len(scans) < 2:
            raise ValueError(f"patient {p!r} has fewer than 2 time points")
        tps = [e.timepoint for e in scans]
        if len(set(tps)) != len(tps):
            raise ValueError(f"patient {p!r} has duplicate time points")
        finals[p] = scans[-1].id

    folds = []
    for k in range(5):
        test = [finals[patients[k]]]
        val = [finals[patients[(k + j) % 5]] for j in (1, 2, 3)]
        held = set(test) | set(val)
        train = [e.id for e in entries if e.id not in held]
        folds.append(FoldSpec(k + 1, train, val, test))
    return folds


# ---------------------------------------------------------------------------
# phantom generation


_DEFAULT_LESION_RADIUS = (2.0, 4.0)
# Brain voxels are BRAIN_FLOOR plus up to this much texture, which keeps them
# below LESION_BAND's floor.
TEXTURE_AMPLITUDE = 0.45


@dataclass(frozen=True)
class PhantomSpec:
    """Knobs for the synthetic FLAIR-like test volumes, checked when made; a
    radius range is refused only when its smallest radius cannot fit."""

    seed: int
    dims: tuple[int, int, int] = (24, 64, 64)
    n_lesions: tuple[int, int] = (2, 5)
    lesion_radius: tuple[float, float] = _DEFAULT_LESION_RADIUS

    def __post_init__(self) -> None:
        rlo, rhi = self.lesion_radius
        nlo, nhi = self.n_lesions
        if rlo <= 0 or rhi < rlo:
            raise ValueError(f"bad lesion radius range {self.lesion_radius}")
        if nlo < 0 or nhi < nlo:
            raise ValueError(f"bad lesion count range {self.n_lesions}")
        largest = _largest_lesion(self.dims)
        if rlo > largest:
            raise ValueError(f"dims {self.dims} cannot fit a lesion of radius {rlo:g}; "
                             f"the largest radius that fits is {max(largest, 0.0):.3g}")


LESION_MARGIN = 1.5


def _brain_semis(dims: tuple[int, int, int]) -> tuple[float, float, float]:
    """Semi-axes of the phantom's brain ellipsoid."""
    s, h, w = dims
    return (0.35 * s, 0.40 * h, 0.40 * w)


def _largest_lesion(dims: tuple[int, int, int]) -> float:
    """The one lesion-fit rule: a ball of radius r plus margin m fits at the
    brain ellipsoid's center when sum(((r + m) / semi)**2) <= 1.  The bound
    tends to -m as a semi-axis shrinks to 0, so a dim below 1 gets -m."""
    if min(dims) < 1:
        return -LESION_MARGIN
    return 1.0 / math.sqrt(sum(1.0 / s**2 for s in _brain_semis(dims))) - LESION_MARGIN


def _lesion_radius(dims: tuple[int, int, int]) -> tuple[float, float]:
    """Pick a lesion radius range that actually fits inside the brain.

    Small volumes get smaller lesions; at the default dims this is the
    default range.  The lower bound never drops below 0.9 voxels so every
    lesion covers at least one voxel wherever its fractional center lands.
    """
    hi = min(_DEFAULT_LESION_RADIUS[1], _largest_lesion(dims))
    if hi < 0.9:
        raise ValueError(
            f"dims {dims[0]}x{dims[1]}x{dims[2]} leave no room for lesions"
        )
    lo = min(_DEFAULT_LESION_RADIUS[0], max(0.9, 0.5 * hi))
    return lo, hi


def generate_phantom(spec: PhantomSpec) -> tuple[Volume, MaskVolume]:
    """Deterministic brain-like volume: textured ellipsoid plus bright spheres.

    The mask marks exactly the sphere voxels, and every sphere sits strictly
    inside the ellipsoid so lesions never touch the zero background.  Each
    radius is drawn uniformly from the part of the spec's range that fits.
    """
    s, h, w = spec.dims
    rlo, rhi = spec.lesion_radius
    rhi = min(rhi, _largest_lesion(spec.dims))
    nlo, nhi = spec.n_lesions
    rng = rngmod.stream(spec.seed, "phantom")
    centers = [(d - 1) / 2 for d in spec.dims]
    semis = _brain_semis(spec.dims)
    zz, yy, xx = np.ogrid[:s, :h, :w]
    norm2 = (
        ((zz - centers[0]) / semis[0]) ** 2
        + ((yy - centers[1]) / semis[1]) ** 2
        + ((xx - centers[2]) / semis[2]) ** 2
    )
    brain = norm2 <= 1.0

    coarse = rng.random((math.ceil(s / 4), math.ceil(h / 4), math.ceil(w / 4)))
    texture = np.kron(coarse, np.ones((4, 4, 4)))[:s, :h, :w]
    image = np.where(brain, BRAIN_FLOOR + TEXTURE_AMPLITUDE * texture, 0.0)
    mask = np.zeros(spec.dims, dtype=np.uint8)

    n = int(rng.integers(nlo, nhi + 1))
    for _ in range(n):
        # Containment test: padding every axis offset by the ball radius and
        # checking the ellipsoid inequality is sufficient for the whole ball
        # to sit inside.  Along a fixed direction the padded value grows
        # monotonically with distance from the center, so the largest safe
        # offset solves a quadratic and placement never needs rejection.
        r = float(rng.uniform(rlo, rhi))
        direction = rng.standard_normal(3)
        d = direction / float(np.linalg.norm(direction))
        b = np.array([(r + LESION_MARGIN) / s for s in semis])
        c = min(float(b @ b) - 1.0, 0.0)  # r fits at the center, so c <= 0 but for rounding
        bb = float(np.abs(d) @ b)
        tmax = -bb + (bb * bb - c) ** 0.5
        t = float(rng.uniform(0.0, tmax))
        cz, cy, cx = (centers[a] + semis[a] * d[a] * t for a in range(3))
        ball = (
            (zz - cz) ** 2 + (yy - cy) ** 2 + (xx - cx) ** 2
        ) <= r * r
        count = int(ball.sum())
        lo, hi = LESION_BAND
        image[ball] = lo + (hi - lo) * rng.random(count)
        mask[ball] = 1

    return Volume(image.astype(np.float32)), MaskVolume(mask)
