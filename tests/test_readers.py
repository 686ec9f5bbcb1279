"""Every file reader of the package, under random byte edits of a valid file:
it returns, or it raises one of the package's own errors."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ngn.autodiff import load_checkpoint, save_checkpoint
from ngn.datasets import GraphDataset, load_graph6, load_tu, write_graph6, write_tu
from ngn.errors import NgnError
from ngn.ngn_layer import NgnLayer

from helpers import cycle_graph, path_graph, saved_layer_text

TWO_GRAPHS = GraphDataset(
    "FUZZ", [path_graph(0, 1, 2), cycle_graph(0, 1, 2, 3)], np.array([0, 1]), 2, node_labels=[[0, 1, 0], [2, 0, 2, 0]]
)


def _written(write) -> dict[str, bytes]:
    """The files that ``write(directory)`` leaves, by name."""
    with tempfile.TemporaryDirectory() as tmp:
        write(Path(tmp))
        return {f.name: f.read_bytes() for f in sorted(Path(tmp).iterdir())}


# reader name -> (the files of one valid input, how the reader opens the directory holding them)
READERS = {
    "checkpoint": (
        _written(lambda d: save_checkpoint(d / "model.ckpt", {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(2)})),
        lambda d: load_checkpoint(d / "model.ckpt"),
    ),
    "graph6": (
        _written(lambda d: write_graph6(TWO_GRAPHS.graphs, d / "graphs.g6")),
        lambda d: load_graph6(d / "graphs.g6"),
    ),
    "tu": (_written(lambda d: write_tu(TWO_GRAPHS, d)), load_tu),
    "layer": (
        _written(lambda d: (d / "layer.json").write_text(saved_layer_text())),
        lambda d: NgnLayer.load(d / "layer.json"),
    ),
}

_edit = st.tuples(st.sampled_from(["set", "insert", "delete"]), st.integers(0, 2**16), st.integers(0, 255))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(reader=st.sampled_from(sorted(READERS)), data=st.data())
def test_byte_edits_load_or_raise_package_errors(reader, data):
    files, read = READERS[reader]
    files = dict(files)
    edits = data.draw(st.lists(_edit, max_size=4))
    for op, at, byte in edits:
        name = data.draw(st.sampled_from(sorted(files)))
        raw = bytearray(files[name])
        at = at % (len(raw) + 1)
        if op == "insert":
            raw.insert(at, byte)
        elif at < len(raw):
            if op == "set":
                raw[at] = byte
            else:
                del raw[at]
        files[name] = bytes(raw)
    with tempfile.TemporaryDirectory() as tmp:
        for name, raw in files.items():
            (Path(tmp) / name).write_bytes(raw)
        try:
            read(Path(tmp))
        except NgnError:
            assert edits, f"the unedited {reader} input does not load"
