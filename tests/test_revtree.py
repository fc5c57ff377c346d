"""Unpacking a git revision with tools/revtree.py, on Pythons with and
without tarfile's extraction filters."""

import tarfile

import pytest

import revtree


@pytest.mark.parametrize("filters", [True, False])
def test_unpack_reads_a_revision(monkeypatch, tmp_path, filters):
    # a Python before 3.10.12 / 3.11.4 has no data_filter, and its
    # extractall raises TypeError on the filter keyword
    if not filters:
        extractall = tarfile.TarFile.extractall

        def old_extractall(self, path=".", members=None, *, numeric_owner=False, **kwargs):
            if kwargs:
                raise TypeError(f"unexpected keyword arguments {sorted(kwargs)}")
            return extractall(self, path, members, numeric_owner=numeric_owner)

        monkeypatch.delattr(tarfile, "data_filter")
        monkeypatch.setattr(tarfile.TarFile, "extractall", old_extractall)
    revtree.unpack("test_revtree", "HEAD", tmp_path, ("tools",))
    assert (tmp_path / "tools" / "revtree.py").is_file()
