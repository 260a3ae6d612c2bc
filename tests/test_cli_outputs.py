"""tools/cli_outputs.py: the manifest hash and its --expect gate."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def cli_outputs():
    spec = importlib.util.spec_from_file_location("cli_outputs", ROOT / "tools" / "cli_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_expect_sets_the_exit_status_from_the_manifest_hash(tmp_path, capsys, cli_outputs):
    src = str(ROOT / "src")
    assert cli_outputs.main([src, str(tmp_path / "a"), "--seeds", "1", "--expect", "0" * 64]) == 1
    out, err = capsys.readouterr()
    digest = out.splitlines()[-1]
    assert len(digest) == 64 and "differs from the expected" in err
    assert cli_outputs.main([src, str(tmp_path / "b"), "--seeds", "1", "--expect", digest]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == digest


def test_every_cli_output_is_byte_identical_to_the_manifest(tmp_path, capsys, cli_outputs):
    # All 133 files of every command and flag, against the recorded manifest
    # hash; a change that moves an output on purpose updates the hash.
    expected = "b9329789a3b237a028e10b12848ec542064e04b8c7d1f2ae249dfec0e96933b9"
    assert cli_outputs.main([str(ROOT / "src"), str(tmp_path), "--expect", expected]) == 0


def _tree(root, files):
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


def test_compare_names_each_moved_file_and_how_far(tmp_path, cli_outputs):
    csv = "# command = autocorr\n# revival_time = {}\nt,re\n0,{}\n0.5,-4\n"
    pgm = b"P5\n3 2\n255\n" + bytes([0, 7, 255, 9, 9, 9])
    old = _tree(tmp_path / "old", {
        "same.csv": csv.format(2, 1).encode(),
        "a/trace.csv": csv.format(2, 1).encode(),
        "a/meta.csv": csv.format(2, 1).encode(),
        "a/carpet.pgm": pgm,
        "gone.csv": b"t\n0\n",
        "stdout.txt": b"1 file\n",
        "MANIFEST.sha256": b"old\n",
    })
    new = _tree(tmp_path / "new", {
        "same.csv": csv.format(2, 1).encode(),
        "a/trace.csv": csv.format(2, 1.5).encode(),   # 0.5 over the column's largest |old|, 4
        "a/meta.csv": csv.format(2.5, 1).encode(),
        "a/carpet.pgm": b"P5\n3 2\n255\n" + bytes([0, 4, 255, 9, 10, 9]),
        "added.pgm": pgm,
        "stdout.txt": b"2 files\n",
        "MANIFEST.sha256": b"new\n",
    })
    assert cli_outputs.compare(old, new) == [
        "a/carpet.pgm: largest grey-level change 3, 2 pixels changed",
        "a/meta.csv: largest move 0.25 of its column's largest |old|, in column # revival_time",
        "a/trace.csv: largest move 0.125 of its column's largest |old|, in column re",
        "added.pgm: only in new",
        "gone.csv: only in old",
        "stdout.txt: bytes differ",
    ]
    assert cli_outputs.compare(old, old) == []


def test_compare_reports_layouts_it_cannot_line_up(tmp_path, cli_outputs):
    old = _tree(tmp_path / "old", {"t.csv": b"t,x\n0,1\n", "c.pgm": b"P5\n2 1\n255\n\x00\x01"})
    new = _tree(tmp_path / "new", {"t.csv": b"t,x\n0,1\n1,2\n", "c.pgm": b"P5\n1 2\n255\n\x00\x01"})
    assert cli_outputs.compare(old, new) == [
        "c.pgm: header P5 2 1 255 -> P5 1 2 255",
        "t.csv: the columns or their lengths differ",
    ]
    text = _tree(tmp_path / "text", {"t.csv": b"t,y\n0,one\n"})
    assert cli_outputs.compare(old, text) == ["c.pgm: only in old", "t.csv: header or text cells differ"]


def test_compare_option_prints_the_moves_before_the_summary(tmp_path, capsys, cli_outputs):
    src = str(ROOT / "src")
    assert cli_outputs.main([src, str(tmp_path / "old"), "--seeds", "1"]) == 0
    moved = tmp_path / "old" / "extra" / "02_talbot.csv"
    moved.write_text(moved.read_text().replace(",1,", ",2,"))
    capsys.readouterr()
    assert cli_outputs.main([src, str(tmp_path / "new"), "--seeds", "1", "--compare", str(tmp_path / "old")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-2] == ["extra/02_talbot.csv: largest move 0.5 of its column's largest |old|, in column grating_period"]
