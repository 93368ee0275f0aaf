"""Any bytes in, one line out: seeded Y4M mutations through every subcommand.

Each case feeds one mutated clip to one subcommand, which writes every
regular-file output it has into a directory of its own. The run must exit 0,
or exit 2 with exactly one stderr line, no traceback, and no output file or
temporary left behind; only detect may have printed on stdout, a line for each
frame before the fault. The seed and the case count are fixed.
"""

import io
import random
import time

from rtcdenoise import make_sequence, write_y4m

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
