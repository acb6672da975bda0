import contextlib
import os

import pytest

from artinhexa import tables

BUNDLED_DATA = os.path.join(os.path.dirname(tables.__file__), "data")


@pytest.fixture
def data_copy(tmp_path):
    """``with data_copy(edits) as directory:`` runs its body on a copy of the
    bundled data files in ``directory``, which ``ARTINHEXA_DATA`` then names.
    ``edits`` maps a file name to a function from the bundled text to the
    copy's text or bytes, or to ``None``, which leaves the file out.  The
    three loader caches are cleared on entry and again on exit."""
    loaders = (tables.load_table, tables.load_symmetries, tables.load_examples)

    @contextlib.contextmanager
    def copy(edits):
        edits = dict(edits)
        directory = tmp_path / "data"
        directory.mkdir()
        for name in sorted(os.listdir(BUNDLED_DATA)):
            with open(os.path.join(BUNDLED_DATA, name), encoding="utf-8") as fh:
                text = fh.read()
            if name in edits:
                if edits[name] is None:
                    del edits[name]
                    continue
                text = edits.pop(name)(text)
            data = text if isinstance(text, bytes) else text.encode("utf-8")
            (directory / name).write_bytes(data)
        assert not edits, f"no bundled data file {sorted(edits)}"
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv(tables.DATA_ENV, str(directory))
            for loader in loaders:
                loader.cache_clear()
            try:
                yield directory
            finally:
                for loader in loaders:
                    loader.cache_clear()

    return copy

