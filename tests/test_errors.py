"""The file boundary: every reader and writer fails with one line naming its path."""

import json

import pytest

from malgraph import cli
from malgraph.analytics import OpVocabulary
from malgraph.depgraph import from_json, load_graph, save_graph
from malgraph.errors import IoError, MalformedFile
from malgraph.pipeline import (
    EpochStats,
    Manifest,
    ManifestEntry,
    load_manifest,
    read_graph,
    save_history,
    save_manifest,
)
from malgraph.sage import ArchConfig, init_params, load_model, save_model

GRAPH_DOC = json.dumps({
    "version": 1, "origin": "", "label": None, "family": None,
    "nodes": [{"id": 0, "op": "add", "type": "i64"}], "edges": []})

# reader, file name, the detail a 0xe9 byte on line 2 gives: text files report
# the line, JSON documents the JSON decoder's complaint
READERS = {
    "manifest": (load_manifest, "m.jsonl", "line 2: not UTF-8 text"),
    "graph": (load_graph, "g.json", "not valid JSON"),
    "model": (load_model, "model.json", "not valid JSON"),
    "trace": (read_graph, "t.trace", "line 2: not UTF-8 text"),
    "ll": (read_graph, "f.ll", "line 2: not UTF-8 text"),
}


def one_line_naming(e: Exception, verb: str, path) -> str:
    message = str(e)
    assert "\n" not in message
    assert message.startswith(f"cannot {verb} {path}: ")
    assert message.count(f"cannot {verb}") == 1  # never wrapped twice
    return message


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("case", ["missing", "directory", "non_utf8", "garbage"])
def test_every_reader_names_its_path_once(tmp_path, reader, case):
    read, name, utf8_detail = READERS[reader]
    path = tmp_path / name
    if case == "directory":
        path.mkdir()
    elif case == "non_utf8":
        path.write_bytes(b"{}\n%1 = add i64 %a, %b ; caf\xe9\n")
    elif case == "garbage":
        path.write_bytes(b"}}} not a file of this kind {{{\n")
    error = IoError if case in ("missing", "directory") else MalformedFile
    with pytest.raises(error) as exc:
        read(path)
    message = one_line_naming(exc.value, "read", path)
    if case == "non_utf8":
        assert utf8_detail in message


def _features_csv(path, graph_file):
    args = cli.build_parser().parse_args(["features", str(graph_file), "--csv", str(path)])
    cli.cmd_features(args)


# each writer is called with (output path, a graph JSON file on disk)
WRITERS = {
    "graph": lambda path, _: save_graph(from_json(GRAPH_DOC), path),
    "model": lambda path, _: save_model(init_params(ArchConfig(vocab_size=2), 0),
                                        OpVocabulary(("<unk>", "add")), path),
    "manifest": lambda path, _: save_manifest(
        Manifest((ManifestEntry("a.trace", 0, "benign"),)), path),
    "history": lambda path, _: save_history([EpochStats(1, 0.5, 1.0, 1.0)], path),
    "features_csv": _features_csv,
}


@pytest.mark.parametrize("writer", WRITERS)
def test_every_writer_names_its_path_once(tmp_path, writer):
    graph_file = tmp_path / "g.json"
    graph_file.write_text(GRAPH_DOC)
    path = tmp_path / "missing" / "out"
    with pytest.raises(IoError) as exc:
        WRITERS[writer](path, graph_file)
    one_line_naming(exc.value, "write", path)
    assert not path.parent.exists()
