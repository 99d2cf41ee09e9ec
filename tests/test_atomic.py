import os

import pytest

from epistyle.atomic import atomic_write


def test_a_failed_write_keeps_the_old_file_and_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("partial")
            raise RuntimeError("stop")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_a_new_file_gets_the_mode_of_a_plain_open(tmp_path):
    with atomic_write(tmp_path / "new.bin", "wb") as fh:
        fh.write(b"\x00\x01")
    with open(tmp_path / "plain.bin", "wb") as fh:
        fh.write(b"\x00\x01")
    assert (tmp_path / "new.bin").read_bytes() == b"\x00\x01"
    assert (os.stat(tmp_path / "new.bin").st_mode
            == os.stat(tmp_path / "plain.bin").st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["new.bin", "plain.bin"]


def test_a_missing_parent_directory_is_made(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    with atomic_write(path) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in path.parent.iterdir()] == ["out.txt"]
