"""Any bytes in, one line out: seeded mutations of every input a run reads.

Each case feeds one mutated clip to one subcommand, which writes every
regular-file output it has into a directory of its own. The run must exit 0,
or exit 2 with exactly one stderr line, no traceback, and no output file or
temporary left behind; only detect may have printed on stdout, a line for each
frame before the fault. CWB1 weight files reach denoise through --config in
the same way, config files mutated byte by byte reach denoise and simulate,
and --noise KIND:VALUE strings reach inject, where a bad one is a usage
error (exit 1) with the same one line. The seeds and the case counts
are fixed; the tests run with warnings as errors, so no numpy warning escapes.
"""

import io
import math
import random
import struct
import time
import zlib

import numpy as np

from rtcdenoise import (
    ConvWeightSet,
    PipelineConfig,
    add_gaussian_noise,
    dump_config,
    make_sequence,
    random_weights,
    write_weights,
    write_y4m,
)
from rtcdenoise.cli import main

from test_cli import _COMMANDS, _run_checked

_CASES = 200  # clips; each goes through all five subcommands

# header token values, valid and not
_TOKENS = {
    "W": ["0", "-1", "1", "2", "17", "40", "100000", "", "x", "4e1", "0x20", "٣"],
    "H": ["0", "-8", "1", "3", "32", "65536", "", "1.5", "\x00"],
    "F": ["0:1", "25:0", "-1:1", "1:0", "30000:1001", "x", "", "25", ":", "1:1:1"],
    "C": ["mono", "420", "444", "420jpeg", "420paldv", "", "4\x0b20", "420\r"],
    "I": ["p", "?", ""],
    "A": ["1:1", "0:0", ""],
    "X": ["comment", "", "\x7f"],
}
_MARKERS = [b"FRAM\n", b"FRAMEX\n", b"FRAME Ixx\n", b"FRAME", b"frame\n", b"\nFRAME\n",
            b"FRAME\r\n", b"FRAME\n\n", b"", b"FRAME\x00\n"]
_GEOMETRIES = [(1, 1), (2, 3), (3, 3), (17, 17), (3, 40), (16, 2000), (41, 17), (18, 33)]


def _clip(rng) -> bytes:
    width, height = rng.choice([(40, 32)] * 4 + _GEOMETRIES)
    sink = io.BytesIO()
    write_y4m(make_sequence(rng.randint(1, 4), width, height, seed=rng.randrange(100),
                            with_chroma=rng.random() < 0.5), sink)
    return sink.getvalue()


def _mutate(data: bytes, rng) -> bytes:
    header_end = data.index(b"\n")
    kind = rng.choice(["truncate", "trail", "token", "control", "marker", "geometry"])
    if kind == "truncate":
        return data[:rng.randrange(len(data))]
    if kind == "trail":
        return data + rng.choice([b"FRAME\n", b"", b"\n"]) + rng.randbytes(rng.randint(1, 200))
    if kind == "token":
        tokens = data[:header_end].split(b" ")
        tag = rng.choice(list(_TOKENS))
        token = (tag + rng.choice(_TOKENS[tag])).encode("utf-8")
        at = rng.randrange(1, len(tokens) + 1)
        if rng.random() < 0.5 and at < len(tokens):
            tokens[at] = token  # replace a token, else add one
        else:
            tokens.insert(at, token)
        return b" ".join(tokens) + data[header_end:]
    if kind == "control":
        at = rng.randrange(rng.choice([header_end, len(data)]))
        return data[:at] + bytes([rng.choice([*range(32), 127])]) + data[at:]
    if kind == "marker":
        starts = [i for i in range(header_end + 1, len(data)) if data.startswith(b"FRAME\n", i)]
        at = rng.choice(starts)
        return data[:at] + rng.choice(_MARKERS) + data[at + 6:]
    return data  # geometry: the clip's own, unmutated


def test_mutated_clips_exit_0_or_2_with_one_error_line(tmp_path, capsys):
    rng = random.Random(2026)
    start = time.perf_counter()
    codes = {0: 0, 2: 0}
    for case in range(_CASES):
        data = _mutate(_clip(rng), rng)
        clip = tmp_path / f"clip{case}.y4m"
        clip.write_bytes(data)
        for command in _COMMANDS:
            folder = tmp_path / f"{case}-{command}"
            folder.mkdir()
            code, err = _run_checked(folder, command, clip, capsys, detect_lines=True)
            assert code in codes, (case, command, data[:80], err)
            codes[code] += 1
    assert min(codes.values()) >= 150, codes  # both outcomes are well exercised
    assert time.perf_counter() - start < 10.0


_WEIGHT_CASES = 120


def _with_crc(payload: bytes) -> bytes:
    return b"CWB1" + payload + struct.pack("<I", zlib.crc32(payload))


def _weight_file(rng) -> bytes:
    """A CWB1 file of seeded weights, mutated; most keep a valid checksum."""
    weights = random_weights(seed=rng.randrange(100))
    kind = rng.choice(["truncate", "flip", "value", "scale", "shape", "trail", "magic", "none"])
    if kind == "scale":  # every weight, to within or beyond the cap
        factor = np.float32(10.0 ** rng.randint(-3, 8))
        weights = ConvWeightSet(tuple(k * factor for k in weights.kernels),
                                tuple(b * factor for b in weights.biases))
    sink = io.BytesIO()
    write_weights(weights, sink)
    payload = bytearray(sink.getvalue()[4:-4])
    if kind == "truncate":
        return (b"CWB1" + payload)[:rng.randrange(4 + len(payload) + 4)]
    if kind == "flip":  # the checksum no longer matches
        data = bytearray(_with_crc(bytes(payload)))
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        return bytes(data)
    if kind == "value":  # one float32 of a tensor
        at = 8 + 4 * rng.randrange((len(payload) - 8) // 4)
        value = rng.choice([math.nan, math.inf, -math.inf, 3.4e38, -1e7, 1e6, 1e-45, 0.0])
        struct.pack_into("<f", payload, at, value)
    elif kind == "shape":
        struct.pack_into("<I", payload, 4 * rng.randrange(2), rng.choice([0, 1, 3, 17, 2 ** 32 - 1]))
    elif kind == "trail":
        payload += rng.randbytes(rng.randint(1, 9))
    elif kind == "magic":
        return b"CWB2" + _with_crc(bytes(payload))[4:]
    return _with_crc(bytes(payload))


def test_mutated_weight_files_exit_0_or_2_with_one_error_line(tmp_path, capsys):
    rng = random.Random(2027)
    clip = tmp_path / "clip.y4m"
    clean = make_sequence(3, 16, 12, seed=1)
    with open(clip, "wb") as sink:
        write_y4m(type(clean)(tuple(add_gaussian_noise(f, 30.0, seed=t) for t, f in enumerate(clean))),
                  sink)
    start = time.perf_counter()
    codes = {0: 0, 2: 0}
    for case in range(_WEIGHT_CASES):
        weights = tmp_path / f"weights{case}.cwb"
        weights.write_bytes(_weight_file(rng))
        config = tmp_path / f"run{case}.cfg"
        config.write_text(f"[video_denoiser]\nmode = conv\nweights = {weights}\n")
        folder = tmp_path / f"{case}"
        folder.mkdir()
        code, err = _run_checked(folder, "denoise", clip, capsys, ["--config", str(config)])
        assert code in codes, (case, err)
        codes[code] += 1
    assert min(codes.values()) >= 20, codes  # both outcomes are well exercised
    assert time.perf_counter() - start < 5.0


_CONFIG_CASES = 100  # config files; each goes through denoise and simulate
# bytes that are not ASCII: lone continuation and lead bytes, a UTF-16
# surrogate, a BOM, a line separator, and two that decode to digits or letters
_NON_ASCII = [b"\x85", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xef\xbb\xbf", b"\xe2\x80\xa8",
              "\u0663".encode(), "\u00e9".encode()]


def _config_bytes(rng) -> bytes:
    """dump_config's text for a seeded config, with one to three byte-level mutations."""
    config = PipelineConfig(seed=rng.randrange(100), cadence=rng.randint(2, 5),
                            feedback_window=rng.choice([0, 2]))
    data = bytearray(dump_config(config).encode("utf-8"))
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["flip", "truncate", "control", "non-ascii", "crlf"])
        at = rng.randrange(len(data) + 1)
        if kind == "flip" and at < len(data):
            data[at] ^= 1 << rng.randrange(8)
        elif kind == "truncate":
            del data[at:]
        elif kind == "control":
            data[at:at] = bytes([rng.choice([*range(32), 127])])
        elif kind == "non-ascii":
            data[at:at] = rng.choice(_NON_ASCII)
        elif kind == "crlf":
            data = bytearray(data.replace(b"\n", b"\r\n"))
    return bytes(data)


def test_mutated_config_files_exit_0_or_2_with_one_error_line(tmp_path, capsys):
    rng = random.Random(2029)
    clip = tmp_path / "clip.y4m"
    clean = make_sequence(3, 24, 20, seed=3)
    with open(clip, "wb") as sink:
        write_y4m(type(clean)(tuple(add_gaussian_noise(f, 30.0, seed=t) for t, f in enumerate(clean))),
                  sink)
    start = time.perf_counter()
    codes = {0: 0, 2: 0}
    for case in range(_CONFIG_CASES):
        data = _config_bytes(rng)
        config = tmp_path / f"run{case}.cfg"
        config.write_bytes(data)
        for command in ("denoise", "simulate"):
            folder = tmp_path / f"{case}-{command}"
            folder.mkdir()
            code, err = _run_checked(folder, command, clip, capsys, ["--config", str(config)])
            assert code in codes, (case, command, data, err)
            codes[code] += 1
    assert min(codes.values()) >= 20, codes  # both outcomes are well exercised
    assert time.perf_counter() - start < 10.0


_NOISE_CASES = 400
_NOISE_KINDS = ["gaussian", "saltpepper", "speckle"]
_BAD_KINDS = ["", "Gaussian", "gauss", "salt", "speckle:x", "-gaussian"]
_NOISE_VALUES = ["nan", "-nan", "inf", "-inf", "1e309", "-1e309", "1e-400", "-0", "0", "", " 4",
                 "4 ", "0x10", "1_0", "4,5", "1/2", "--", "٣", "4\n", "\x00", "1e300", "1.0000001e300",
                 "1e308", "1.79e308"]


def _noise_text(rng) -> str:
    kind = rng.choice(_NOISE_KINDS if rng.random() < 0.8 else _BAD_KINDS)
    if rng.random() < 0.3:
        value = rng.choice(_NOISE_VALUES)
    else:  # a number over 628 decades, in one of Python's spellings
        number = rng.choice([-1, 1, 1, 1]) * 10.0 ** rng.uniform(-320, 308)
        value = rng.choice([repr, "{:e}".format, "{:g}".format, "{:.0f}".format])(number)
    return kind + (":" if rng.random() < 0.8 else rng.choice(["", "::", " : "])) + value


def test_noise_specs_exit_0_or_1_with_one_error_line(tmp_path, capsys):
    rng = random.Random(2028)
    clip = tmp_path / "clip.y4m"
    with open(clip, "wb") as sink:
        write_y4m(make_sequence(2, 8, 6, seed=2, with_chroma=True), sink)
    start = time.perf_counter()
    codes = {0: 0, 1: 0}
    for case in range(_NOISE_CASES):
        text = _noise_text(rng)
        out = tmp_path / f"out{case}.y4m"
        code = main(["inject", "--in", str(clip), "--noise", text, "--out", str(out)])
        captured = capsys.readouterr()
        assert code in codes, (text, captured.err)
        codes[code] += 1
        assert "Traceback" not in captured.err
        if code:
            assert len(captured.err.splitlines()) == 1 and captured.out == "", (text, captured.err)
        assert out.exists() == (code == 0), text
    assert min(codes.values()) >= 100, codes  # both outcomes are well exercised
    assert time.perf_counter() - start < 5.0
