"""Tests for the command-line interface."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.cli import main
from repro.workloads.fixtures import (
    EXAMPLE_7_DOCUMENT,
    EXAMPLE_7_SCHEMA,
    EXAMPLE_8_DOCUMENT,
    LIBRARY_SCHEMA,
    wrap_in_schema,
)

_VALID_DOC = ("<library><book><title>T</title><author>A</author>"
              "</book></library>")
_INVALID_DOC = "<library><paper/></library>"

_UPA_SCHEMA = wrap_in_schema("""
  <xsd:element name="R"><xsd:complexType><xsd:choice>
    <xsd:sequence><xsd:element name="A" type="xsd:string"/></xsd:sequence>
    <xsd:sequence><xsd:element name="A" type="xsd:string"/></xsd:sequence>
  </xsd:choice></xsd:complexType></xsd:element>""")


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, content in (("lib.xsd", LIBRARY_SCHEMA),
                          ("books.xsd", EXAMPLE_7_SCHEMA),
                          ("upa.xsd", _UPA_SCHEMA),
                          ("valid.xml", _VALID_DOC),
                          ("invalid.xml", _INVALID_DOC),
                          ("books.xml", EXAMPLE_7_DOCUMENT),
                          ("example8.xml", EXAMPLE_8_DOCUMENT)):
        path = tmp_path / name
        path.write_text(content, encoding="utf-8")
        paths[name] = str(path)
    return paths


def test_usage_lists_exactly_the_subcommands():
    usage = cli.__doc__.split("Usage::", 1)[1].split("\n\n", 2)[1]
    documented = set(re.findall(r"python -m repro (\w+)", usage))
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert documented == set(subparsers.choices)


class TestValidate:
    def test_valid_document(self, files, capsys):
        code = main(["validate", files["lib.xsd"], files["valid.xml"]])
        assert code == 0
        assert "VALID" in capsys.readouterr().out

    def test_invalid_document(self, files, capsys):
        code = main(["validate", files["lib.xsd"], files["invalid.xml"]])
        assert code == 1
        out = capsys.readouterr().out
        assert "INVALID" in out
        assert "5.1.1" in out or "5.4" in out

    def test_paper_example(self, files, capsys):
        code = main(["validate", files["books.xsd"], files["books.xml"]])
        assert code == 0

    def test_missing_file(self, files, capsys):
        code = main(["validate", files["lib.xsd"], "/nonexistent.xml"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestLint:
    def test_clean_schema(self, files, capsys):
        assert main(["lint", files["lib.xsd"]]) == 0
        assert "clean" in capsys.readouterr().out

    def test_upa_violation(self, files, capsys):
        assert main(["lint", files["upa.xsd"]]) == 1
        assert "Unique Particle Attribution" in capsys.readouterr().out


class TestNormalize:
    def test_prints_parseable_schema(self, files, capsys):
        assert main(["normalize", files["lib.xsd"]]) == 0
        out = capsys.readouterr().out
        from repro.schema import parse_schema
        assert parse_schema(out).root_element.name == "library"


class TestQuery:
    def test_untyped_query(self, files, capsys):
        assert main(["query", files["valid.xml"],
                     "/library/book/title"]) == 0
        assert capsys.readouterr().out.strip() == "T"

    def test_typed_query(self, files, capsys):
        assert main(["query", files["books.xml"],
                     "/BookStore/Book[1]/Author",
                     "--schema", files["books.xsd"]]) == 0
        assert "Paul McCartney" in capsys.readouterr().out

    def test_bad_path(self, files, capsys):
        assert main(["query", files["valid.xml"], "not-a-path"]) == 2

    def test_json_output(self, files, capsys):
        assert main(["query", files["valid.xml"],
                     "/library/book/title", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"path": "/library/book/title",
                          "count": 1, "values": ["T"]}

    def test_reader_closing_the_pipe_ends_quietly(self, tmp_path):
        # ``| head -1``: 1 MB of answer, far more than a pipe buffers,
        # so the command is still writing when the reader goes away.
        document = tmp_path / "long.xml"
        document.write_text("<library>" + "".join(
            f"<book><title>{'t' * 500}{i}</title></book>"
            for i in range(2000)) + "</library>", encoding="utf-8")
        src = Path(cli.__file__).resolve().parents[1]
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "query", str(document),
             "/library/book/title", "--json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)))
        try:
            assert process.stdout.readline() == b"{\n"
            process.stdout.close()
            assert process.wait(timeout=60) == 141  # 128 + SIGPIPE
            assert process.stderr.read() == b""
        finally:
            process.kill()
            process.stderr.close()


class TestXQuery:
    def test_element_results_are_serialized(self, files, capsys):
        assert main(["xquery", files["valid.xml"],
                     "for $b in /library/book return $b/title"]) == 0
        assert capsys.readouterr().out == "<title>T</title>\n"

    def test_atomic_and_attribute_results_print_their_value(
            self, files, tmp_path, capsys):
        doc = tmp_path / "years.xml"
        doc.write_text('<library><book year="1999"><title>A</title>'
                       '</book><book year="2001"><title>B</title>'
                       '</book></library>', encoding="utf-8")
        assert main(["xquery", str(doc), "count(/library/book)"]) == 0
        assert main(["xquery", str(doc), "/library/book/@year"]) == 0
        assert capsys.readouterr().out == "2\n1999\n2001\n"

    def test_typed_query(self, files, capsys):
        assert main(["xquery", files["books.xml"],
                     "for $b in /BookStore/Book[1] "
                     "return string($b/Author)",
                     "--schema", files["books.xsd"]]) == 0
        assert capsys.readouterr().out == "Paul McCartney\n"

    def test_bad_query(self, files, capsys):
        assert main(["xquery", files["valid.xml"], "for $b in"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_a_separator_sequence_is_a_query_error(self, files, capsys,
                                                   monkeypatch):
        kinds = []
        fail = cli._fail
        monkeypatch.setattr(cli, "_fail", lambda args, error, kind: (
            kinds.append(kind), fail(args, error, kind))[1])
        assert main(["xquery", files["valid.xml"],
                     "string-join(//author, (',', ';'))"]) == 2
        assert kinds == ["query"]
        err = capsys.readouterr().err
        assert err.startswith("error: string-join()")
        assert "Traceback" not in err


class TestInspect:
    def test_reports_statistics(self, files, capsys):
        assert main(["inspect", files["valid.xml"]]) == 0
        out = capsys.readouterr().out
        assert "document nodes:" in out
        assert "library/book/title" in out

    def test_json_output(self, files, capsys):
        assert main(["inspect", files["valid.xml"], "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["document_nodes"] > 0
        assert report["blocks"] > 0
        paths = [entry["path"]
                 for entry in report["descriptive_schema"]]
        assert "library/book/title" in paths

    def test_one_size_of_a_descriptor(self, files, capsys):
        """The report's total is the sum of its per-node ``bytes``
        column: one size model, not two."""
        assert main(["inspect", files["example8.xml"], "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["modelled_bytes"] == sum(
            entry["bytes"] for entry in report["descriptive_schema"])


class TestMetrics:
    def test_prints_metrics_sections(self, files, capsys):
        assert main(["metrics", files["valid.xml"],
                     "--path", "/library/book/title"]) == 0
        out = capsys.readouterr().out
        assert "[counters]" in out
        assert "storage.descriptors.allocated" in out
        assert "storage.relabels" in out
        assert "query.evaluations" in out

    def test_json_output(self, files, capsys):
        assert main(["metrics", files["valid.xml"],
                     "--path", "/library/book/title", "--json"]) == 0
        counters = json.loads(capsys.readouterr().out)["counters"]
        assert counters["storage.descriptors.allocated"] > 0
        assert counters["storage.relabels"] == 0
        # Diagnostics are on, so the EXPLAIN-gated counters are there.
        assert counters["query.nodes_returned"] == 1

    def test_leaves_observability_disabled(self, files, capsys):
        from repro import obs
        main(["metrics", files["valid.xml"]])
        capsys.readouterr()
        assert not obs.is_enabled()


class TestExplain:
    def test_reports_cold_and_warm_plans(self, files, capsys):
        assert main(["explain", files["valid.xml"],
                     "/library/book/title"]) == 0
        out = capsys.readouterr().out
        assert "-- cold (first evaluation) --" in out
        assert "-- warm (plan cache hit) --" in out
        assert "plan strategy:      scan" in out
        assert "plan cache:         miss" in out
        assert "plan cache:         hit" in out
        assert "nodes returned:     1" in out

    def test_json_output(self, files, capsys):
        assert main(["explain", files["valid.xml"],
                     "/library/book/title", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cold"]["plan_cache"] == "miss"
        assert report["warm"]["plan_cache"] == "hit"
        assert report["warm"]["strategy"] == "scan"
        assert report["warm"]["nodes_returned"] == 1

    def test_json_carries_the_cost_table_behind_the_choice(self, files,
                                                           capsys):
        # Without an index a path has one candidate, the block route.
        assert main(["explain", files["valid.xml"],
                     "/library/book/title", "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)["cold"]
        assert [candidate["strategy"] for candidate
                in cold["cost_table"]] == ["scan"]
        assert cold["cost_table"][0]["chosen"]
        # With one, the table prices the probe against the scan.
        assert main(["index", files["valid.xml"], "library/book/title",
                     "--query", "/library/book[title='T']",
                     "--json"]) == 0
        explain = json.loads(capsys.readouterr().out)["query"]["explain"]
        chosen = [candidate for candidate in explain["cost_table"]
                  if candidate["chosen"]]
        assert sorted(candidate["strategy"] for candidate
                      in explain["cost_table"]) == ["index", "scan"]
        assert len(chosen) == 1
        assert chosen[0]["strategy"] == explain["strategy"]
        assert chosen[0]["total"] == explain["cost_total"]

    def test_reports_the_shape_route(self, files, capsys):
        # The cold run plans the shape; the warm one is a plan hit and
        # goes round the shape table.
        assert main(["explain", files["valid.xml"],
                     "/library/book[1]/title"]) == 0
        out = capsys.readouterr().out
        cold, warm = out.split("-- warm (plan cache hit) --")
        assert "shape cache:        miss" in cold
        assert "shape cache:        bypassed" in warm
        assert main(["explain", files["valid.xml"],
                     "/library/book[1]/title", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cold"]["shape_cache"] == "miss"
        assert report["warm"]["shape_cache"] == ""

    def test_bad_path(self, files, capsys):
        assert main(["explain", files["valid.xml"], "not-a-path"]) == 2


class TestCheckpointRecover:
    def test_checkpoint_then_recover(self, files, tmp_path, capsys):
        image = str(tmp_path / "store.img")
        wal = str(tmp_path / "store.wal")
        assert main(["checkpoint", files["books.xml"], image,
                     "--wal", wal]) == 0
        out = capsys.readouterr().out
        assert "checkpointed" in out and image in out
        assert main(["recover", image, "--wal", wal,
                     "--schema", files["books.xsd"], "--strict"]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert "relabels:         0" in out
        assert "conformance:      ok" in out

    def test_checkpoint_json(self, files, tmp_path, capsys):
        image = str(tmp_path / "store.img")
        assert main(["checkpoint", files["books.xml"], image,
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["image"] == image
        assert report["nodes"] > 0
        assert report["checkpoint_lsn"] == 0

    def test_recover_json(self, files, tmp_path, capsys):
        image = str(tmp_path / "store.img")
        assert main(["checkpoint", files["books.xml"], image]) == 0
        capsys.readouterr()
        assert main(["recover", image, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["replayed"] == 0
        assert report["relabels"] == 0
        assert report["nodes"] > 0

    def test_recover_missing_image_exits_2(self, tmp_path, capsys):
        assert main(["recover", str(tmp_path / "absent.img")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_recover_corrupt_image_exits_2(self, tmp_path, capsys):
        image = tmp_path / "bad.img"
        image.write_bytes(b"SEDNAPY2" + b"\x00" * 40)
        assert main(["recover", str(image)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_missing_document_exits_2(self, tmp_path,
                                                 capsys):
        assert main(["checkpoint", str(tmp_path / "absent.xml"),
                     str(tmp_path / "out.img")]) == 2
        assert "error:" in capsys.readouterr().err


class TestSnapshots:
    @pytest.mark.parametrize("backend", ["file", "sqlite"])
    def test_list_and_restore(self, files, tmp_path, capsys, backend):
        target = str(tmp_path / "store")
        assert main(["checkpoint", files["books.xml"], target,
                     "--backend", backend, "--json"]) == 0
        written = json.loads(capsys.readouterr().out)
        assert main(["snapshots", target, "--backend", backend,
                     "--json"]) == 0
        listed = json.loads(capsys.readouterr().out)
        assert listed["backend"] == backend
        assert [info["version"] for info in listed["snapshots"]] \
            == [written["snapshot_version"]]
        assert "restored" not in listed
        assert main(["snapshots", target, "--backend", backend,
                     "--restore", written["snapshot_version"],
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["restored"] == {
            "version": written["snapshot_version"],
            "nodes": written["nodes"], "blocks": written["blocks"]}
        assert main(["recover", target, "--backend", backend,
                     "--json"]) == 0
        recovered = json.loads(capsys.readouterr().out)
        assert recovered["snapshot_version"] \
            == written["snapshot_version"]
        assert recovered["relabels"] == 0

    def test_readable_listing(self, files, tmp_path, capsys):
        target = str(tmp_path / "store.db")
        assert main(["snapshots", target, "--backend", "sqlite"]) == 0
        assert capsys.readouterr().out == \
            f"no snapshots at {target} (sqlite backend)\n"
        assert main(["checkpoint", files["books.xml"], target,
                     "--backend", "sqlite"]) == 0
        capsys.readouterr()
        assert main(["snapshots", target, "--backend", "sqlite"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == f"snapshots at {target} (sqlite backend):"
        assert row.split()[0] == "1" and row.endswith(" bytes")

    def test_unknown_version_exits_2(self, files, tmp_path, capsys):
        target = str(tmp_path / "store.db")
        assert main(["checkpoint", files["books.xml"], target,
                     "--backend", "sqlite"]) == 0
        assert main(["snapshots", target, "--backend", "sqlite",
                     "--restore", "no-such-version"]) == 2
        assert "error:" in capsys.readouterr().err


class TestJsonErrorSurface:
    def test_syntax_error_as_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<a><b", encoding="utf-8")
        assert main(["query", str(bad), "/a", "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["error"]["type"] == "XmlSyntaxError"
        assert "unterminated" in report["error"]["message"]

    def test_lexical_error_as_json(self, tmp_path, capsys):
        schema = tmp_path / "int.xsd"
        schema.write_text(wrap_in_schema(
            '<xsd:element name="n" type="xsd:int"/>'), encoding="utf-8")
        doc = tmp_path / "doc.xml"
        doc.write_text("<n>abc</n>", encoding="utf-8")
        assert main(["query", str(doc), "/n",
                     "--schema", str(schema), "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        # The lexical failure surfaces through the validator's wrapper.
        assert report["error"]["type"] == "ValidationError"
        assert "'abc' is not a valid xs:int" in report["error"]["message"]

    def test_directory_as_document_exits_2(self, files, tmp_path,
                                           capsys):
        assert main(["validate", files["lib.xsd"], str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        schema = tmp_path / "latin1.xsd"
        schema.write_bytes(b"<xsd:schema>\xff</xsd:schema>")
        assert main(["lint", str(schema)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_as_json(self, capsys):
        assert main(["query", "/nonexistent.xml", "/a", "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["error"]["kind"] == "io"
        assert report["error"]["type"] == "FileNotFoundError"

    def test_error_without_json_goes_to_stderr(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<a><b", encoding="utf-8")
        assert main(["query", str(bad), "/a"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err
