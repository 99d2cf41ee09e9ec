"""The post schema lives in one place, the fields of `corpus.Post`: README's
posts bullet lists them, `write_posts` writes them, and `load_posts` names
each one a line lacks, so that neither the docs nor the reader and writer can
drift from the field list unnoticed."""

import json
import re
from pathlib import Path

import pytest

from epistyle.corpus import Post, load_posts, write_posts

README = Path(__file__).resolve().parents[1] / "README.md"


def _row(post_id="p1") -> dict:
    return {"market": "m1", "subforum": "s", "thread_id": "t", "post_id": post_id,
            "author": "alice", "timestamp": 5.0, "is_thread_start": False, "body": "x"}


def test_readme_posts_bullet_lists_exactly_the_post_fields():
    bullet = re.search(r"^- posts: JSONL, one JSON object per line, with `([^`]*)`",
                       README.read_text(encoding="utf-8"), re.M)
    assert bullet is not None
    assert tuple(bullet.group(1).split(", ")) == Post._fields


def test_write_posts_writes_exactly_the_post_fields(tmp_path):
    write_posts(tmp_path / "m1.jsonl", [Post(**_row())])
    assert tuple(json.loads((tmp_path / "m1.jsonl").read_text())) == tuple(sorted(Post._fields))


@pytest.mark.parametrize("field", Post._fields[1:])
def test_a_line_without_a_field_is_skipped_naming_it(tmp_path, caplog, field):
    row = _row()
    del row[field]
    path = tmp_path / "m1.jsonl"
    path.write_text(json.dumps(_row("p0")) + "\n" + json.dumps(row) + "\n", encoding="utf-8")
    with caplog.at_level("WARNING", logger="epistyle.corpus"):
        posts, malformed = load_posts(path, "m1")
    assert [p.post_id for p in posts] == ["p0"] and malformed == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}:2: skipping malformed post line ('{field}')"]
