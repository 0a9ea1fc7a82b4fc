"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Image/audio/video ride as Arrow ``binary`` columns with metadata
columns (media_type, width/height or sample_rate, codec).  Decode /
feature-extract / resize / frame-sample are actor-pool ``map_batches``
stages.

Codec reality in this container: no PIL/opencv/ffmpeg/soundfile.  The
UNCOMPRESSED formats need none of them — PPM (P6), 24-bit BMP and
PCM-16 WAV are header-plus-raw-bytes, decoded here with pure
numpy/struct (``decode_payload``).  So ``real=True`` stages genuinely
decode those; only COMPRESSED payloads (JPEG/PNG/MP4 — the formats
that do need the absent libs) raise ``NotImplementedError`` at the
clearly-marked seam.  ``real=False`` keeps the deterministic fake
decoder (a pure function of the payload bytes) for plumbing tests on
arbitrary byte noise.

Batch-size note: binary payloads dominate block bytes; callers should
pass a small ``batch_size`` (e.g. 64-256) so batch × concurrency fits
worker heaps — the opposite of the narrow-column aggregate stages.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa


# --- pure-numpy codecs (uncompressed formats) ---------------------------
def encode_ppm(img: np.ndarray) -> bytes:
    """(h, w, 3) uint8 → binary PPM (P6)."""
    h, w, _ = img.shape
    return b"P6\n%d %d\n255\n" % (w, h) + img.astype(np.uint8).tobytes()


def decode_ppm(payload: bytes) -> np.ndarray:
    if not payload.startswith(b"P6"):
        raise ValueError("not a P6 PPM payload")
    # header: magic, width, height, maxval — whitespace separated;
    # every scan is bounded so a truncated header errors, never spins
    parts, pos, end = [], 2, len(payload)
    while len(parts) < 3:
        while pos < end and payload[pos:pos + 1].isspace():
            pos += 1
        tok = b""
        while pos < end and not payload[pos:pos + 1].isspace():
            tok += payload[pos:pos + 1]
            pos += 1
        if not tok or not tok.isdigit():
            raise ValueError("truncated or malformed PPM header")
        parts.append(int(tok))
    pos += 1  # single whitespace after maxval
    w, h, maxval = parts
    if maxval != 255:
        raise ValueError("only maxval=255 PPM supported")
    data = np.frombuffer(payload, dtype=np.uint8, count=w * h * 3,
                         offset=pos)
    return data.reshape(h, w, 3)


def encode_bmp24(img: np.ndarray) -> bytes:
    """(h, w, 3) uint8 RGB → 24-bit uncompressed BMP (bottom-up, BGR,
    4-byte row padding) — the classic BITMAPINFOHEADER layout."""
    h, w, _ = img.shape
    row = w * 3
    pad = (-row) % 4
    body_rows = []
    bgr = img[:, :, ::-1]
    for y in range(h - 1, -1, -1):
        body_rows.append(bgr[y].astype(np.uint8).tobytes() + b"\x00" * pad)
    body = b"".join(body_rows)
    off = 14 + 40
    header = struct.pack("<2sIHHI", b"BM", off + len(body), 0, 0, off)
    info = struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(body),
                       2835, 2835, 0, 0)
    return header + info + body


def decode_bmp24(payload: bytes) -> np.ndarray:
    if payload[:2] != b"BM":
        raise ValueError("not a BMP payload")
    off, = struct.unpack_from("<I", payload, 10)
    hdr_size, w, h, _planes, bpp, comp = struct.unpack_from(
        "<IiiHHI", payload, 14)
    if bpp != 24 or comp != 0:
        raise ValueError("only 24-bit uncompressed BMP supported")
    row = w * 3
    stride = row + ((-row) % 4)
    flipped = h > 0
    h = abs(h)
    rows = np.frombuffer(payload, dtype=np.uint8, count=stride * h,
                         offset=off).reshape(h, stride)[:, :row]
    img = rows.reshape(h, w, 3)[:, :, ::-1]  # BGR → RGB
    return img[::-1] if flipped else img


def encode_wav_pcm16(samples: np.ndarray, sample_rate: int) -> bytes:
    """1-D int16 mono samples → RIFF/WAVE PCM-16."""
    data = samples.astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, sample_rate, sample_rate * 2, 2, 16)
    return (b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(data))
            + b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)


def decode_wav_pcm16(payload: bytes) -> tuple[np.ndarray, int]:
    if payload[:4] != b"RIFF" or payload[8:12] != b"WAVE":
        raise ValueError("not a RIFF/WAVE payload")
    pos, sample_rate, samples = 12, None, None
    while pos + 8 <= len(payload):
        cid = payload[pos:pos + 4]
        size, = struct.unpack_from("<I", payload, pos + 4)
        body = payload[pos + 8:pos + 8 + size]
        if cid == b"fmt ":
            audio_fmt, channels, sample_rate = struct.unpack_from(
                "<HHI", body, 0)
            bits, = struct.unpack_from("<H", body, 14)
            if (audio_fmt, channels, bits) != (1, 1, 16):
                raise ValueError("only PCM-16 mono WAV supported")
        elif cid == b"data":
            samples = np.frombuffer(body, dtype="<i2")
        pos += 8 + size + (size & 1)
    if sample_rate is None or samples is None:
        raise ValueError("WAV missing fmt/data chunk")
    return samples, sample_rate


def decode_payload(payload: bytes):
    """Magic-sniffing decode of the supported uncompressed formats:
    returns ("image", (h,w,3) array) or ("audio", (samples, rate)).
    Compressed/unknown formats raise NotImplementedError — THE seam
    where PIL/ffmpeg would plug in."""
    if payload.startswith(b"P6"):
        return "image", decode_ppm(payload)
    if payload[:2] == b"BM":
        return "image", decode_bmp24(payload)
    if payload[:4] == b"RIFF":
        return "audio", decode_wav_pcm16(payload)
    raise NotImplementedError(
        "compressed/unknown media payload (JPEG/PNG/MP4 need codec "
        "libraries not present in this environment)")


# what an undecodable payload can raise: the seam marker, malformed
# headers (ValueError), or truncated struct fields (struct.error) —
# skip paths must treat all three as "not decodable"
UNDECODABLE = (NotImplementedError, ValueError, struct.error)


def nn_resize(img: np.ndarray, new_w: int, new_h: int) -> np.ndarray:
    """Nearest-neighbor resample — pure numpy index take."""
    h, w, _ = img.shape
    yi = np.minimum((np.arange(new_h) * h) // new_h, h - 1)
    xi = np.minimum((np.arange(new_w) * w) // new_w, w - 1)
    return img[yi][:, xi]


def synth_media_table(n: int, *, seed: int = 42,
                      payload_bytes: int = 4096,
                      real_payloads: bool = False) -> pa.Table:
    """Deterministic media table.  ``real_payloads=True`` emits REAL
    decodable payloads (PPM/BMP noise images at the metadata dims,
    PCM-16 WAV tones) so the real=True stages have true work; the
    default emits opaque byte noise for plumbing tests."""
    rng = np.random.default_rng(seed)
    kinds = np.array(["image", "audio", "video"], dtype=object)[
        rng.integers(0, 3, n)]
    if not real_payloads:
        payloads = [rng.integers(0, 256, payload_bytes,
                                 dtype=np.uint8).tobytes()
                    for _ in range(n)]
        widths = rng.integers(64, 1920, n)
        heights = rng.integers(64, 1080, n)
    else:
        widths = rng.integers(8, 64, n)
        heights = rng.integers(8, 64, n)
        payloads = []
        for i in range(n):
            if kinds[i] == "image":
                img = rng.integers(0, 256, (heights[i], widths[i], 3),
                                   dtype=np.uint8)
                payloads.append(encode_ppm(img) if i % 2 == 0
                                else encode_bmp24(img))
            elif kinds[i] == "audio":
                sr = 8000
                t = np.arange(sr // 4)
                tone = (np.sin(2 * np.pi * (100 + 10 * (i % 40)) * t / sr)
                        * 12000).astype(np.int16)
                payloads.append(encode_wav_pcm16(tone, sr))
            else:  # video: still opaque (containers need ffmpeg)
                payloads.append(rng.integers(0, 256, payload_bytes,
                                             dtype=np.uint8).tobytes())
    return pa.table({
        "media_id": pa.array(range(n), pa.int64()),
        "payload": pa.array(payloads, pa.binary()),
        "media_type": pa.array(kinds, pa.string()),
        "width": pa.array(widths, pa.int32()),
        "height": pa.array(heights, pa.int32()),
    })


class MediaDecoder:
    """Actor-pool stage: payload → fixed-dim feature vector.

    ``real=True`` decodes PPM/BMP/WAV with the pure-numpy codecs and
    extracts REAL statistics (dims, per-channel mean/std, luma or
    amplitude histogram); payloads it cannot decode (compressed
    formats) raise per-row unless ``skip_undecodable=True``, which
    routes them out with a null feature row.  ``real=False`` is the
    deterministic fake for opaque byte noise."""

    FEATURE_DIM = 32

    def __init__(self, real: bool = False, skip_undecodable: bool = True,
                 precision: str = "f32"):
        self.real = real
        self.skip = skip_undecodable
        self.precision = precision  # "f64": oracle-facing exact path

    def _fake_features(self, payload: bytes) -> np.ndarray:
        # deterministic pure function of bytes: blake2 → unit floats
        h = hashlib.blake2b(payload, digest_size=self.FEATURE_DIM * 2).digest()
        raw = np.frombuffer(h, dtype=np.uint16).astype(np.float32)
        return raw / 65535.0

    def _real_features64(self, payload: bytes) -> np.ndarray:
        """Canonical float64 feature arithmetic — every formula is
        written in the exact expression order the SQL replay oracle
        uses (explicit floor-binning instead of np.histogram, std as
        sqrt(E[x²]−E[x]²)), so the two sides compute bit-identical
        values before the shared round-half-away quantization."""
        kind, data = decode_payload(payload)
        out = np.zeros(self.FEATURE_DIM, dtype=np.float64)
        if kind == "image":
            img = data.astype(np.float64)
            h, w, _ = img.shape
            out[0], out[1] = w, h
            m = img.mean(axis=(0, 1))
            m2 = (img * img).mean(axis=(0, 1))
            out[2:5] = m / 255.0
            out[5:8] = np.sqrt(np.maximum(m2 - m * m, 0.0)) / 255.0
            luma = img.mean(axis=2).ravel()
            bins = np.minimum(np.floor((luma * 24.0) / 255.0),
                              23).astype(np.int64)
            hist = np.bincount(bins, minlength=24)
            out[8:32] = hist / max(luma.size, 1)
        else:
            samples, sr = data
            x = samples.astype(np.float64) / 32768.0
            out[0], out[1] = sr, len(x)
            out[2] = float(np.sqrt(np.mean(x * x))) if len(x) else 0.0
            out[3] = float(np.mean(np.abs(np.diff(np.sign(x))) > 0)) \
                if len(x) > 1 else 0.0
            bins = np.minimum(np.floor(((x + 1.0) * 28.0) / 2.0),
                              27).astype(np.int64)
            hist = np.bincount(bins, minlength=28)
            out[4:32] = hist / max(len(x), 1)
        return out

    def _real_features(self, payload: bytes) -> np.ndarray:
        return self._real_features64(payload).astype(np.float32)

    def __call__(self, batch: pa.Table) -> pa.Table:
        f64 = self.precision == "f64"
        zero = np.zeros(self.FEATURE_DIM,
                        dtype=np.float64 if f64 else np.float32)
        ids, types, feats, sizes, ok = [], [], [], [], []
        for mid, mt, p in zip(batch["media_id"].to_pylist(),
                              batch["media_type"].to_pylist(),
                              batch["payload"].to_pylist()):
            try:
                if self.real:
                    f = (self._real_features64(p) if f64
                         else self._real_features(p))
                else:
                    f = self._fake_features(p)
                decoded = True
            except UNDECODABLE:
                if not self.skip:
                    raise
                f = zero
                decoded = False
            ids.append(mid)
            types.append(mt)
            feats.append(f.tolist())
            sizes.append(len(p))
            ok.append(decoded)
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "media_type": pa.array(types, pa.string()),
            "features": pa.array(
                feats, pa.list_(pa.float64() if f64 else pa.float32())),
            "payload_size": pa.array(sizes, pa.int64()),
            "decoded": pa.array(ok, pa.bool_()),
        })


class Resizer:
    """Actor-pool stage: image resize preserving aspect ratio.

    ``real=True``: decode (PPM/BMP) → nearest-neighbor numpy resample
    → re-encode PPM — a genuinely real resize with no codec libs.
    Non-image / undecodable payloads pass through unresized (scale 1).
    ``real=False`` computes the REAL metadata transform and emits a
    deterministic fake payload slice (plumbing tests on byte noise)."""

    def __init__(self, max_side: int = 256, real: bool = False):
        self.max_side = max_side
        self.real = real

    def _resize_real(self, p: bytes):
        try:
            kind, img = decode_payload(p)
        except UNDECODABLE:
            return p, None
        if kind != "image":
            return p, None
        h, w, _ = img.shape
        scale = min(1.0, self.max_side / max(w, h))
        if scale >= 1.0:
            return encode_ppm(img), (w, h, 1.0)
        nw, nh = max(1, round(w * scale)), max(1, round(h * scale))
        return encode_ppm(nn_resize(img, nw, nh)), (nw, nh, scale)

    def __call__(self, batch: pa.Table) -> pa.Table:
        w = batch["width"].to_numpy(zero_copy_only=False).astype(np.int64)
        h = batch["height"].to_numpy(zero_copy_only=False).astype(np.int64)
        payloads = batch["payload"].to_pylist()
        if self.real:
            new_w, new_h = w.copy(), h.copy()
            scale = np.ones(len(w))
            resized = []
            for i, p in enumerate(payloads):
                rp, meta = self._resize_real(p)
                resized.append(rp)
                if meta is not None:
                    new_w[i], new_h[i], scale[i] = meta
            new_w = new_w.astype(np.int32)
            new_h = new_h.astype(np.int32)
        else:
            scale = np.minimum(1.0, self.max_side / np.maximum(w, h))
            new_w = np.maximum(1, np.round(w * scale).astype(np.int32))
            new_h = np.maximum(1, np.round(h * scale).astype(np.int32))
            ratio = (new_w.astype(np.float64) * new_h) / np.maximum(w * h, 1)
            resized = [p[: max(1, int(len(p) * r))]
                       for p, r in zip(payloads, ratio)]
        return pa.table({
            "media_id": batch["media_id"],
            "media_type": batch["media_type"],
            "width": pa.array(new_w, pa.int32()),
            "height": pa.array(new_h, pa.int32()),
            "scale": pa.array(scale, pa.float64()),
            "payload": pa.array(resized, pa.binary()),
        })


class FrameSampler:
    """Actor-pool stage: deterministic frame/segment sampling plan.

    WAV payloads get a REAL plan (every_n windows of ``frame_bytes``
    samples over the actual data chunk); other payloads fall back to
    the size-derived fake frame count (container parsing needs the
    absent codec libs)."""

    def __init__(self, every_n: int = 10, frame_bytes: int = 256):
        self.every_n = every_n
        self.frame_bytes = frame_bytes

    @staticmethod
    def frame_count(payload: bytes, frame_bytes: int = 256) -> int:
        """Per-payload frame count — ONE implementation shared by the
        distributed stage and the scalar oracle fixture
        (``ensure_frames_fixture``), so a convention change cannot
        silently diverge the two."""
        if payload[:4] == b"RIFF":
            try:
                samples, _ = decode_wav_pcm16(payload)
                return max(1, len(samples) // frame_bytes)
            except UNDECODABLE:
                pass
        return max(1, len(payload) // frame_bytes)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, frames = [], []
        for mid, p in zip(batch["media_id"].to_pylist(),
                          batch["payload"].to_pylist()):
            n_frames = self.frame_count(p, self.frame_bytes)
            for f in range(0, n_frames, self.every_n):
                ids.append(mid)
                frames.append(f)
        return pa.table({"media_id": pa.array(ids, pa.int64()),
                         "frame_index": pa.array(frames, pa.int32())})


def stft_band_energies(x: np.ndarray, sr: int, *, n_fft: int = 512,
                       hop: int = 256, n_bands: int = 16,
                       f_lo: float = 50.0):
    """REAL short-time spectral analysis with nothing but numpy: Hann
    window → rfft per frame → mean power spectrum → log-spaced band
    energies (a log-mel-like layout without the mel filter constants).
    Returns (band_log_energies[n_bands], dominant_hz).  Short clips
    (< one window) are zero-padded to a single frame."""
    x = x.astype(np.float64) / 32768.0
    if len(x) < n_fft:
        x = np.pad(x, (0, n_fft - len(x)))
    n_frames = 1 + (len(x) - n_fft) // hop
    idx = (np.arange(n_fft)[None, :]
           + hop * np.arange(n_frames)[:, None])
    frames = x[idx] * np.hanning(n_fft)[None, :]
    power = np.abs(np.fft.rfft(frames, axis=1)) ** 2
    spectrum = power.mean(axis=0)
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / sr)
    dominant_hz = float(freqs[int(np.argmax(spectrum[1:])) + 1])
    edges = np.geomspace(f_lo, sr / 2.0, n_bands + 1)
    band = np.clip(np.searchsorted(edges, freqs, side="right") - 1,
                   -1, n_bands - 1)
    out = np.zeros(n_bands)
    for b in range(n_bands):
        m = band == b
        out[b] = spectrum[m].sum() if m.any() else 0.0
    return np.log10(out + 1e-12), dominant_hz


class SpectrogramExtractor:
    """Actor-pool stage: WAV payload → log-band spectral features +
    dominant frequency (the audio analogue of the image feature
    extractor).  Non-audio rows and undecodable payloads route out
    with ``decoded=False`` null-ish features — the stage never throws
    on a dirty corpus.  ``precision="f64"`` keeps the band energies in
    the native f64 the STFT computes (the oracle-facing exact path,
    the ``MediaDecoder`` convention); the f32 production default is
    the same arithmetic cast down."""

    N_BANDS = 16

    def __init__(self, precision: str = "f32"):
        self.precision = precision

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, feats, doms, ok = [], [], [], []
        for mid, mt, p in zip(batch["media_id"].to_pylist(),
                              batch["media_type"].to_pylist(),
                              batch["payload"].to_pylist()):
            try:
                if mt != "audio":
                    raise ValueError("not audio")
                samples, sr = decode_wav_pcm16(p)
                e, hz = stft_band_energies(samples, sr,
                                           n_bands=self.N_BANDS)
                if self.precision == "f32":
                    e = e.astype(np.float32)
                feats.append(e.tolist())
                doms.append(hz)
                ok.append(True)
            except Exception:
                feats.append([0.0] * self.N_BANDS)
                doms.append(0.0)
                ok.append(False)
            ids.append(mid)
        ftype = (pa.list_(pa.float32()) if self.precision == "f32"
                 else pa.list_(pa.float64()))
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "band_energies": pa.array(feats, ftype),
            "dominant_hz": pa.array(doms, pa.float64()),
            "decoded": pa.array(ok, pa.bool_()),
        })


def laplacian_variance(img: np.ndarray) -> float:
    """Variance of the 4-neighbour Laplacian over the luma plane — the
    classic single-number blur detector (sharp image → high-frequency
    edges → high variance; blurred image → low).  Pure numpy.
    Variance is computed as E[l²]−E[l]² (not np.var's
    mean-of-squared-deviations) so the SQL replay oracle shares the
    expression form; the two agree to ~1e-12 relative."""
    luma = img.astype(np.float64).mean(axis=2)
    lap = (-4.0 * luma[1:-1, 1:-1] + luma[:-2, 1:-1] + luma[2:, 1:-1]
           + luma[1:-1, :-2] + luma[1:-1, 2:])
    if not lap.size:
        return 0.0
    m = float(np.mean(lap))
    return float(np.mean(lap * lap)) - m * m


def box_blur(img: np.ndarray, radius: int = 2) -> np.ndarray:
    """Separable box blur via padded cumulative sums (numpy-only) —
    used by the sharpness tests to manufacture a blurred twin."""
    k = 2 * radius + 1
    x = img.astype(np.float64)
    for axis in (0, 1):
        pad = [(0, 0)] * x.ndim
        pad[axis] = (radius + 1, radius)
        xp = np.pad(x, pad, mode="edge")
        c = np.cumsum(xp, axis=axis)
        hi = np.take(c, np.arange(k, k + x.shape[axis]), axis=axis)
        lo = np.take(c, np.arange(x.shape[axis]), axis=axis)
        x = (hi - lo) / k
    return np.clip(np.round(x), 0, 255).astype(np.uint8)


class SharpnessScorer:
    """Actor-pool stage: image payload → (laplacian_var, is_sharp)
    blur gate — the curation step that drops soft/duplicate-resize
    images before training.  Non-image rows and undecodable payloads
    route out with ``decoded=False``."""

    def __init__(self, threshold: float = 50.0):
        self.threshold = threshold

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, lv, sharp, ok = [], [], [], []
        for mid, mt, p in zip(batch["media_id"].to_pylist(),
                              batch["media_type"].to_pylist(),
                              batch["payload"].to_pylist()):
            try:
                if mt != "image":
                    raise ValueError("not image")
                kind, img = decode_payload(p)
                if kind != "image":
                    raise ValueError("not image")
                v = laplacian_variance(img)
                lv.append(v)
                sharp.append(bool(v >= self.threshold))
                ok.append(True)
            except Exception:
                lv.append(0.0)
                sharp.append(False)
                ok.append(False)
            ids.append(mid)
        return pa.table({
            "media_id": pa.array(ids, pa.int64()),
            "laplacian_var": pa.array(lv, pa.float64()),
            "is_sharp": pa.array(sharp, pa.bool_()),
            "decoded": pa.array(ok, pa.bool_()),
        })


def _dct2_even(x: np.ndarray) -> np.ndarray:
    """Orthonormal-ish 2-D DCT-II via the even-extension FFT identity
    (no scipy in this environment): DCT along each axis in turn."""
    def dct1(a, axis):
        n = a.shape[axis]
        ext = np.concatenate([a, np.flip(a, axis=axis)], axis=axis)
        F = np.fft.fft(ext, axis=axis)
        sl = [slice(None)] * a.ndim
        sl[axis] = slice(0, n)
        shape = [1] * a.ndim
        shape[axis] = n
        w = np.exp(-1j * np.pi * np.arange(n) / (2 * n)).reshape(shape)
        return np.real(F[tuple(sl)] * w) / 2.0
    return dct1(dct1(x, 0), 1)


def phash64(img: np.ndarray) -> np.uint64:
    """64-bit perceptual hash: luma → 32×32 nn-resize → 2-D DCT →
    low-frequency 8×8 block (DC dropped, next coefficient in) →
    median-threshold bits.  Robust to resize/blur/small noise; flips
    under content change — the image analogue of SimHash."""
    luma = img.astype(np.float64).mean(axis=2)
    small = luma[np.linspace(0, luma.shape[0] - 1, 32).astype(int)][
        :, np.linspace(0, luma.shape[1] - 1, 32).astype(int)]
    d = _dct2_even(small)
    block = d[:8, :8].ravel()[1:]          # drop DC
    bits = block > np.median(block)
    out = np.uint64(0)
    for b in bits[:64]:
        out = np.uint64(out << np.uint64(1)) | np.uint64(bool(b))
    return out


def hamming64(a: np.uint64, b: np.uint64) -> int:
    return int(bin(int(a) ^ int(b)).count("1"))


class PHasher:
    """Actor-pool stage: image payload → (phash, 8×8-bit bands).
    Band equality is the LSH bucket key for near-dup candidate
    generation: two hashes within Hamming ≤ 7 of each other share at
    least one exact 8-bit band by pigeonhole (8 bands, ≤7 differing
    bits).  8-bit bands collide more than 16-bit ones — buckets stay
    small because verification is a vectorized XOR+popcount."""

    N_BANDS = 8

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, hs, ok = [], [], []
        bands = [[] for _ in range(self.N_BANDS)]
        for mid, mt, p in zip(batch["media_id"].to_pylist(),
                              batch["media_type"].to_pylist(),
                              batch["payload"].to_pylist()):
            try:
                if mt != "image":
                    raise ValueError("not image")
                kind, img = decode_payload(p)
                if kind != "image":
                    raise ValueError("not image")
                h = int(phash64(img))
                hs.append(h)
                for i in range(self.N_BANDS):
                    bands[i].append((h >> (8 * i)) & 0xFF)
                ok.append(True)
            except Exception:
                hs.append(0)
                for i in range(self.N_BANDS):
                    bands[i].append(-1)
                ok.append(False)
            ids.append(mid)
        cols = {
            "media_id": pa.array(ids, pa.int64()),
            "phash": pa.array(hs, pa.uint64()),
        }
        for i in range(self.N_BANDS):
            cols[f"band{i}"] = pa.array(bands[i], pa.int64())
        cols["decoded"] = pa.array(ok, pa.bool_())
        return pa.table(cols)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (no np.popcount in this numpy)."""
    v = x.copy().view(np.uint64)
    v = v - ((v >> np.uint64(1)) & np.uint64(0x5555555555555555))
    v = (v & np.uint64(0x3333333333333333)) \
        + ((v >> np.uint64(2)) & np.uint64(0x3333333333333333))
    v = (v + (v >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    return ((v * np.uint64(0x0101010101010101)) >> np.uint64(56)) \
        .astype(np.int64)


PHASH_FIXTURE_PATH = "/tmp/mlp_phash_corpus_v1.parquet"


def phash_demo_corpus():
    """Deterministic STRUCTURED image corpus with planted blurred
    twins: 32 gradient/block base images + 8 box-blurred copies of the
    first 8 (blur/resize survivors are THE image-dedup target;
    pure-noise images are pHash's documented pathological case — no
    low-frequency content to preserve).  Shared by the
    ``media_phash_dedup`` query and its SQL-oracle fixture."""
    import pandas as pd

    y, x = np.mgrid[0:48, 0:64]
    ids, payloads, imgs = [], [], []
    for i in range(32):
        img = np.stack([(x * (i + 2)) % 256, (y * (i + 3)) % 256,
                        ((x + y) * (i + 1)) % 256],
                       axis=2).astype(np.uint8)
        img[(8 + i) % 20:(30 + i) % 40 + 8, 10:50] = (i * 37) % 256
        ids.append(i)
        payloads.append(encode_ppm(img))
        imgs.append(img)
    for i in range(8):
        ids.append(100_000 + i)
        payloads.append(encode_ppm(box_blur(imgs[i], 1)))
    return pd.DataFrame({"media_id": ids, "payload": payloads,
                         "media_type": "image"})


def ensure_phash_fixture() -> str:
    """Idempotently persist ``(media_id, phash)`` for the demo corpus,
    computed by the SCALAR reference path (decode_payload → phash64,
    one image at a time on the driver — no Ray, no banding).  The SQL
    oracle for ``media_phash_dedup`` brute-forces all-pairs Hamming
    (``bit_count(xor(...))``) over this table; the banded-LSH pipeline
    must agree exactly because 8 bands of 8 bits pigeonhole-cover every
    pair within the verify threshold (≤ 6 < 8 differing bits ⇒ some
    band identical)."""
    import os

    import pyarrow.parquet as _pq

    from ..util import publish

    path = PHASH_FIXTURE_PATH
    if os.path.exists(path):
        try:
            _pq.ParquetFile(path)  # footer readable → complete
            return path
        except Exception:
            pass
    corpus = phash_demo_corpus()
    hashes = []
    for p in corpus["payload"]:
        kind, img = decode_payload(p)
        assert kind == "image"
        hashes.append(int(phash64(img)))
    out = pa.table({
        "media_id": pa.array(corpus["media_id"].to_numpy(np.int64)),
        "phash": pa.array(hashes, pa.uint64()),
    })
    return publish(path, lambda tmp: _pq.write_table(out, tmp))


def phash_near_dup(ds, *, max_hamming: int = 6):
    """Image near-duplicate candidates via banded pHash LSH: each
    decoded image emits 8 (band_idx, band_val) keys; a bucketed
    exchange on the key co-locates exact-band matches (pigeonhole: any
    pair within Hamming ≤ 7 of each other shares a band), and each
    bucket verifies true Hamming vectorized (XOR + popcount).  Returns
    (media_id, dup_of, hamming) with dup_of = the earliest matching
    id — the image analogue of ``dedup.simhash_candidates``.  Only
    band-key rows shuffle; payloads never leave the hash stage."""
    import pandas as pd

    from ..util import bucketed_groups

    hashed = ds.map_batches(PHasher, batch_format="pyarrow",
                            batch_size=64, concurrency=(1, 4))

    def band_rows(t: pa.Table) -> pd.DataFrame:
        df = t.to_pandas()
        df = df.loc[df["decoded"]]
        out = []
        for i in range(PHasher.N_BANDS):
            out.append(pd.DataFrame({
                "band_idx": np.int64(i),
                "band_val": df[f"band{i}"].to_numpy(dtype=np.int64),
                "media_id": df["media_id"].to_numpy(dtype=np.int64),
                "phash": df["phash"].to_numpy(dtype=np.uint64)}))
        return pd.concat(out, ignore_index=True)

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["band_idx", "band_val", "media_id"])
        j = g.merge(g, on=["band_idx", "band_val"])
        j = j.loc[j["media_id_x"] > j["media_id_y"]]
        if j.empty:
            return pd.DataFrame({"media_id": pd.array([], dtype="int64"),
                                 "dup_of": pd.array([], dtype="int64"),
                                 "hamming": pd.array([], dtype="int64")})
        ham = _popcount64(np.bitwise_xor(
            j["phash_x"].to_numpy(dtype=np.uint64),
            j["phash_y"].to_numpy(dtype=np.uint64)))
        keep = ham <= max_hamming
        out = pd.DataFrame({
            "media_id": j["media_id_x"].to_numpy(dtype=np.int64)[keep],
            "dup_of": j["media_id_y"].to_numpy(dtype=np.int64)[keep],
            "hamming": ham[keep]})
        # one row per (id, dup_of) inside the bucket
        return out.drop_duplicates(["media_id", "dup_of"])

    cand = bucketed_groups(hashed.map_batches(
        band_rows, batch_format="pyarrow", zero_copy_batch=True),
        ["band_idx", "band_val"], pairs).to_pandas()
    if cand.empty:
        # all-unique corpus: Ray returns a schema-less empty frame —
        # restore the contract columns
        return pd.DataFrame({"media_id": pd.array([], dtype="int64"),
                             "dup_of": pd.array([], dtype="int64"),
                             "hamming": pd.array([], dtype="int64")})
    # earliest dup_of per id (pairs can surface from several bands)
    cand = cand.sort_values(["media_id", "dup_of", "hamming"]) \
        .drop_duplicates(["media_id"], keep="first")
    return cand.reset_index(drop=True)


def ensure_frames_fixture(sf_dir: str) -> str:
    """Idempotently persist ``(media_id, n_frames)`` for the
    deterministic ``synth_media_table(256, real_payloads=True)``
    corpus ``media_frame_plan`` samples: the REAL per-media frame
    count (decoded WAV sample count // 256, size-derived fallback)
    computed scalar-path on the driver.  The SQL oracle re-derives the
    sampling plan itself — ``range(0, max(1, n_frames), 10)`` as a
    LATERAL generate_series — so the distributed expansion is replayed
    end-to-end; only the codec decode rides the fixture.  The
    ``sf_dir`` parameter keys the fixture path convention (the synth
    corpus itself is input-independent)."""
    import os

    from ..util import ensure_fixture, fixture_path

    path = fixture_path("frames", sf_dir)

    def build() -> pa.Table:
        tbl = synth_media_table(256, real_payloads=True)
        ids = tbl["media_id"].to_pylist()
        nf = [FrameSampler.frame_count(p)
              for p in tbl["payload"].to_pylist()]
        return pa.table({"media_id": pa.array(ids, pa.int64()),
                         "n_frames": pa.array(nf, pa.int64())})

    return ensure_fixture(path, "synth256|v1", build)


def ensure_media_meta_fixture(sf_dir: str) -> str:
    """Idempotently persist per-media DECODE METADATA for the
    deterministic ``synth_media_table(256, real_payloads=True)``
    corpus: decoded kind ('image'/'audio'/'opaque'), payload length,
    sample rate and decoded dims — computed scalar-path on the driver
    via the codecs.  The ``media_resize`` SQL oracle replays the
    whole resize arithmetic (aspect scale, Python banker's rounding,
    PPM re-encode size) from these columns; only the codec decode
    itself rides the fixture (the ``media_frame_plan`` pattern)."""
    from ..util import ensure_fixture, fixture_path

    path = fixture_path("mediameta", sf_dir)

    def build() -> pa.Table:
        tbl = synth_media_table(256, real_payloads=True)
        rows = {k: [] for k in ("media_id", "media_type", "kind",
                                "plen", "sr", "w", "h", "n_samp",
                                "meta_w", "meta_h")}
        for mid, mt, p, mw, mh in zip(tbl["media_id"].to_pylist(),
                                      tbl["media_type"].to_pylist(),
                                      tbl["payload"].to_pylist(),
                                      tbl["width"].to_pylist(),
                                      tbl["height"].to_pylist()):
            kind, sr, w, h, n_samp = "opaque", 0, 0, 0, 0
            try:
                kind, data = decode_payload(p)
                if kind == "image":
                    h, w = data.shape[0], data.shape[1]
                else:
                    samples, sr = data
                    n_samp = len(samples)
            except UNDECODABLE:
                pass
            rows["media_id"].append(mid)
            rows["media_type"].append(mt)
            rows["kind"].append(kind)
            rows["plen"].append(len(p))
            rows["sr"].append(sr)
            rows["w"].append(w)
            rows["h"].append(h)
            rows["n_samp"].append(n_samp)
            rows["meta_w"].append(mw)   # synth metadata dims: the
            rows["meta_h"].append(mh)   # non-image passthrough output
        return pa.table({
            "media_id": pa.array(rows["media_id"], pa.int64()),
            "media_type": pa.array(rows["media_type"], pa.string()),
            "kind": pa.array(rows["kind"], pa.string()),
            "plen": pa.array(rows["plen"], pa.int64()),
            "sr": pa.array(rows["sr"], pa.int64()),
            "w": pa.array(rows["w"], pa.int64()),
            "h": pa.array(rows["h"], pa.int64()),
            "n_samp": pa.array(rows["n_samp"], pa.int64()),
            "meta_w": pa.array(rows["meta_w"], pa.int64()),
            "meta_h": pa.array(rows["meta_h"], pa.int64()),
        })

    return ensure_fixture(path, "synth256|v1", build)


def ensure_media_raw_fixture(sf_dir: str) -> str:
    """Idempotently persist the DECODED raw data (pixel / sample
    rows) for the deterministic synth corpus: one row per pixel
    (row-major idx, v0/v1/v2 = r/g/b) or per audio sample (v0 =
    int16 value) — the codec boundary, computed scalar-path.  The
    ``media_features`` SQL oracle recomputes ALL feature arithmetic
    (means, stds, histograms, rms, zero-crossing rate) from these
    rows in plain SQL, so only the decode rides the fixture."""
    from ..util import ensure_fixture, fixture_path

    path = fixture_path("mediaraw", sf_dir)

    def build() -> pa.Table:
        tbl = synth_media_table(256, real_payloads=True)
        mids, idxs, v0s, v1s, v2s = [], [], [], [], []
        for mid, p in zip(tbl["media_id"].to_pylist(),
                          tbl["payload"].to_pylist()):
            try:
                kind, data = decode_payload(p)
            except UNDECODABLE:
                continue
            if kind == "image":
                px = data.reshape(-1, 3).astype(np.int64)
                n = px.shape[0]
                mids.append(np.full(n, mid, dtype=np.int64))
                idxs.append(np.arange(n, dtype=np.int64))
                v0s.append(px[:, 0])
                v1s.append(px[:, 1])
                v2s.append(px[:, 2])
            else:
                samples, _ = data
                n = len(samples)
                mids.append(np.full(n, mid, dtype=np.int64))
                idxs.append(np.arange(n, dtype=np.int64))
                v0s.append(samples.astype(np.int64))
                v1s.append(np.zeros(n, dtype=np.int64))
                v2s.append(np.zeros(n, dtype=np.int64))
        cat = (lambda xs: np.concatenate(xs) if xs
               else np.zeros(0, dtype=np.int64))
        return pa.table({
            "media_id": pa.array(cat(mids)),
            "idx": pa.array(cat(idxs)),
            "v0": pa.array(cat(v0s)),
            "v1": pa.array(cat(v1s)),
            "v2": pa.array(cat(v2s)),
        })

    return ensure_fixture(path, "synth256|v1", build)
