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
    # All 131 files of every command and flag, against the recorded manifest
    # hash; a change that moves an output on purpose updates the hash.
    expected = "1179a524101ed294bd2f4304e9e29faaac17a5473fa43c291a063b336a048217"
    assert cli_outputs.main([str(ROOT / "src"), str(tmp_path), "--expect", expected]) == 0
