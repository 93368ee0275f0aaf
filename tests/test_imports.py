"""The receiver path runs on numpy alone; scipy loads only for what needs it.

Only the codec surrogate (scipy.fft) and the full-reference metrics
(scipy.ndimage) import scipy, on first use. The check runs in a fresh
interpreter, because the test session itself has scipy loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = r"""
import os, sys, tempfile
import rtcdenoise as rd
from rtcdenoise import cli, pipeline

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

clean = rd.make_sequence(12, 48, 32, seed=1)
# a salt-and-pepper keyframe takes the median prefilter; the rest denoise
frames = [rd.add_salt_pepper(clean[0], 0.05, seed=1)]
frames += [rd.add_gaussian_noise(f, 25.0, seed=t) for t, f in enumerate(clean) if t]
noisy = rd.VideoSequence(tuple(frames), clean.frame_rate)
assert rd.analyze_frame(noisy[0]).category is rd.NoiseCategory.SALT_PEPPER
_, _, stats = rd.run_denoise(noisy)
assert stats.frames_denoised > 0
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "noisy.y4m")
    rd.write_y4m_file(noisy, path)
    assert cli.main(["denoise", "--in", path, "--out", os.path.join(tmp, "out.y4m")]) == 0
    assert cli.main(["detect", "--in", path]) == 0
assert not scipy_modules(), scipy_modules()

# a closed loop loads scipy before its clock starts
execute = pipeline._execute
loaded_at_start = []

def recording(*args, **kwargs):
    loaded_at_start.append({"scipy.fft", "scipy.ndimage"} <= set(sys.modules))
    return execute(*args, **kwargs)

pipeline._execute = recording
result = rd.run_simulate(clean, rd.PipelineConfig(sender=rd.SenderConfig(noise_sigma=25.0)))
assert len(result.reports) == len(clean) and result.reports[0].psnr_denoised is not None
assert loaded_at_start == [True], loaded_at_start
print("ok")
"""


def test_receiver_path_never_loads_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(_SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", _SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"
