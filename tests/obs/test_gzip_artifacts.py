"""Gzip support for observability artifacts: the shared text opener."""

from repro.obs.spans import open_text


def test_open_text_writes_and_reads_both_forms(tmp_path):
    for name in ("x.txt", "x.txt.gz"):
        path = tmp_path / name
        with open_text(path, "w") as fh:
            fh.write("hello\n")
        with open_text(path, "r") as fh:
            assert fh.read() == "hello\n"
    assert (tmp_path / "x.txt.gz").read_bytes()[:2] == b"\x1f\x8b"
