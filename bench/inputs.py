"""Workload definitions and seeded input generation for the benchmark.

Inputs are made here with numpy alone, so no change to the package (its
synthetic clip generator, its RNG or its noise injectors) can change what is
measured: the program sees only the frames and Y4M files written below.
The same seed always gives the same files.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

WIDTH, HEIGHT = 480, 360
CADENCE = 5                  # the package's default keyframe spacing
PSNR_GAIN_FLOOR_DB = 2.0     # acceptance criterion 4: dPSNR >= 2 dB at sigma 25


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    frames: int
    chroma: bool
    # per-frame Gaussian sigma added to the receiver input; None means the
    # clean clip goes to run_simulate, whose sender adds the capture noise
    sigma: Optional[Callable[[int], float]]


def _mixed_sigma(t: int) -> float:
    # 13-frame segments (not a multiple of the cadence), so the noise level
    # changes inside cohorts and about half the keyframes fall on each level
    return 4.0 if (t // 13) % 2 == 0 else 30.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "denoise-noisy",
            "run_denoise, sequential, 480x360 sigma 25 on every frame: every cohort "
            "denoises, so the keyframe and temporal cascades dominate (criterion 8 shape)",
            frames=60, chroma=False, sigma=lambda t: 25.0,
        ),
        Workload(
            "simulate-lossy",
            "run_simulate at 480x360, capture sigma 25, Gilbert-Elliott slice loss, two "
            "feedback windows: the full-reference analyzer, codec and channel dominate",
            frames=50, chroma=False, sigma=None,
        ),
        Workload(
            "cli-mixed-threaded",
            "rtcdenoise denoise in threaded mode on a C420 Y4M whose sigma alternates "
            "4/30: bypass path, stage threads, Y4M I/O and report serialisation",
            frames=200, chroma=True, sigma=_mixed_sigma,
        ),
    )
}


def _smooth_field(rng: np.random.Generator, h: int, w: int, scale: float) -> np.ndarray:
    """Unit-variance Gaussian random field with correlation length ~scale px."""
    white = rng.standard_normal((h, w))
    fy = np.fft.fftfreq(h)[:, None]
    fx = np.fft.rfftfreq(w)[None, :]
    spectrum = np.fft.rfft2(white) * np.exp(-2.0 * (np.pi * scale) ** 2 * (fx * fx + fy * fy))
    field = np.fft.irfft2(spectrum, s=(h, w))
    return field / field.std()


def _canvas(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Smooth shading, fine texture and hard-edged patches.

    The range stays far enough from 0 and 255 that sigma-30 noise saturates
    too few pixels for the detector to call it impulse noise: every seed then
    takes the same routes through the pipeline.
    """
    c = (128.0 + 20.0 * _smooth_field(rng, h, w, 24.0)
         + 6.0 * _smooth_field(rng, h, w, 3.0) + 3.0 * _smooth_field(rng, h, w, 1.0))
    for _ in range(h * w // 2000):
        y0, x0 = rng.integers(0, h), rng.integers(0, w)
        ph, pw = rng.integers(6, 40, size=2)
        c[y0:y0 + ph, x0:x0 + pw] += rng.choice((-15.0, 15.0))
    return np.clip(c, 60.0, 195.0)


def _offset(t: int) -> tuple[int, int]:
    """Slow global pan: one pixel right per frame, one pixel down every two."""
    return t // 2, t


def make_clip(workload: Workload, seed: int):
    """Return (clean_y, input_y, u, v) uint8 stacks; chroma is None for mono."""
    rng = np.random.default_rng([seed, 0x5EED])
    n = workload.frames
    last_dy, last_dx = _offset(n - 1)
    luma = _canvas(rng, HEIGHT + last_dy, WIDTH + last_dx)
    clean = np.empty((n, HEIGHT, WIDTH), dtype=np.uint8)
    noisy = np.empty_like(clean)
    for t in range(n):
        dy, dx = _offset(t)
        crop = luma[dy:dy + HEIGHT, dx:dx + WIDTH]
        clean[t] = np.rint(crop)
        sigma = workload.sigma(t) if workload.sigma is not None else 0.0
        noisy[t] = np.clip(np.rint(crop + sigma * rng.standard_normal(crop.shape)), 0, 255)
    if not workload.chroma:
        return clean, noisy, None, None
    ch, cw = (HEIGHT + 1) // 2, (WIDTH + 1) // 2
    chroma = [128.0 + 20.0 * _smooth_field(rng, ch + last_dy // 2 + 1, cw + last_dx // 2 + 1, 16.0)
              for _ in range(2)]
    planes = []
    for field in chroma:
        plane = np.empty((n, ch, cw), dtype=np.uint8)
        for t in range(n):
            dy, dx = _offset(t)
            plane[t] = np.clip(np.rint(field[dy // 2:dy // 2 + ch, dx // 2:dx // 2 + cw]), 0, 255)
        planes.append(plane)
    return clean, noisy, planes[0], planes[1]


def write_y4m(path: str, y: np.ndarray, u: Optional[np.ndarray], v: Optional[np.ndarray]) -> None:
    n, h, w = y.shape
    tag = "C420" if u is not None else "Cmono"
    with open(path, "wb") as fh:
        fh.write(f"YUV4MPEG2 W{w} H{h} F30:1 Ip A1:1 {tag}\n".encode("ascii"))
        for t in range(n):
            fh.write(b"FRAME\n")
            fh.write(y[t].tobytes())
            if u is not None:
                fh.write(u[t].tobytes())
                fh.write(v[t].tobytes())


def read_y4m(path: str):
    """Read a Y4M file written by the program: (y, u, v) stacks, chroma may be None.

    The checks read the program's output with this reader, not the
    package's, so a fault in the package's Y4M code cannot hide itself.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    header_end = data.index(b"\n")
    params = {tok[:1]: tok[1:] for tok in data[:header_end].split(b" ")[1:] if tok}
    w, h = int(params[b"W"]), int(params[b"H"])
    mono = params.get(b"C", b"420") == b"mono"
    ch, cw = (h + 1) // 2, (w + 1) // 2
    frame_size = w * h if mono else w * h + 2 * ch * cw
    ys, us, vs = [], [], []
    pos = header_end + 1
    while pos < len(data):
        pos = data.index(b"\n", pos) + 1
        raw = np.frombuffer(data, dtype=np.uint8, count=frame_size, offset=pos)
        ys.append(raw[:w * h].reshape(h, w))
        if not mono:
            us.append(raw[w * h:w * h + ch * cw].reshape(ch, cw))
            vs.append(raw[w * h + ch * cw:].reshape(ch, cw))
        pos += frame_size
    return np.stack(ys), (np.stack(us) if us else None), (np.stack(vs) if vs else None)


def prepare(workload: Workload, seed: int, workdir: str) -> None:
    """Write the run inputs for one workload and seed into workdir.

    clean.npy is the reference luma, used only by the output checks. The
    receiver input is input.npy (library workloads) or input.y4m (CLI), and
    warmup.* holds its first cohort for the set-up call.
    """
    os.makedirs(workdir, exist_ok=True)
    clean, noisy, u, v = make_clip(workload, seed)
    np.save(os.path.join(workdir, "clean.npy"), clean)
    receiver_input = clean if workload.sigma is None else noisy
    if workload.name == "cli-mixed-threaded":
        write_y4m(os.path.join(workdir, "input.y4m"), receiver_input, u, v)
        write_y4m(os.path.join(workdir, "warmup.y4m"), receiver_input[:CADENCE],
                  u[:CADENCE], v[:CADENCE])
        for mode in ("threaded", "sequential"):
            with open(os.path.join(workdir, f"{mode}.cfg"), "w", encoding="utf-8") as fh:
                fh.write(f"[pipeline]\nexecution = {mode}\n")
    else:
        np.save(os.path.join(workdir, "input.npy"), receiver_input)
        np.save(os.path.join(workdir, "warmup.npy"), receiver_input[:CADENCE])


def mean_psnr_gain_db(clean: np.ndarray, before: np.ndarray, after: np.ndarray) -> float:
    """Mean over frames of PSNR(clean, after) - PSNR(clean, before), luma, 8-bit peak."""
    gains = []
    for ref, b, a in zip(clean, before, after):
        ref = ref.astype(np.float64)
        mse_b = np.mean((ref - b) ** 2)
        mse_a = np.mean((ref - a) ** 2)
        if mse_b == 0.0 or mse_a == 0.0:
            raise ValueError("receiver input or output equals the clean frame exactly")
        gains.append(10.0 * np.log10(mse_b / mse_a))
    return float(np.mean(gains))


class Digest:
    """sha256 over frame planes and JSON records, in the order they are added."""

    def __init__(self):
        self._h = hashlib.sha256()

    def planes(self, *arrays) -> None:
        for a in arrays:
            if a is not None:
                self._h.update(np.ascontiguousarray(a).tobytes())

    def record(self, obj) -> None:
        self._h.update(json.dumps(obj, sort_keys=True, default=str).encode("utf-8"))

    def raw(self, data: bytes) -> None:
        self._h.update(data)

    def hexdigest(self) -> str:
        return self._h.hexdigest()
