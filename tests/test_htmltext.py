"""HTML → text extraction (stages/htmltext.py): generic behavior on
adversarial markup, and the corpus byte-identity invariant
(BASELINE.json input_hint: extracted text == stored text per url)."""

import pyarrow as pa
import pyarrow.compute as pc

from log_analysis_ai_ray import synth
from log_analysis_ai_ray.stages.htmltext import (ExtractHtmlText,
                                                 extract_text_array)


def _one(html: str, **kw) -> str:
    return extract_text_array(pa.array([html.encode()],
                                       type=pa.binary()), **kw)[0].as_py()


def test_strips_tags_in_place():
    assert _one("<html><body>a b\nc</body></html>") == "a b\nc"


def test_container_subtrees_dropped_with_content():
    h = ("<html><head><title>T</title><style>p{color:red}</style></head>"
         "<body>keep<script type='x'>var a=1; if(a<2){}</script>me"
         "<noscript>no</noscript></body></html>")
    assert _one(h) == "keepme"


def test_comments_and_case_insensitive_tags():
    h = "<HTML><BoDy><!-- hidden <b>bold</b> -->x<BR>y</BoDy></HTML>"
    assert _one(h) == "xy"
    assert _one(h, block_newlines=True) == "x\ny"


def test_entities_decoded_vectorized_and_numeric_fallback():
    assert _one("<p>a &lt;b&gt; &amp; &quot;c&quot; &#39;d&#39;</p>") \
        == 'a <b> & "c" \'d\''
    # double-escaped stays literal (&amp; decoded last)
    assert _one("<p>&amp;lt;</p>") == "&lt;"
    # numeric entities take the per-row unescape fallback
    assert _one("<p>&#65;&#x42;</p>") == "AB"


def test_block_newlines_mode():
    h = "<div>a</div><p>b</p><ul><li>c</li></ul>"
    out = _one(h, block_newlines=True)
    assert out.split("\n") == ["a", "b", "c", "", ""] or \
        [s for s in out.split("\n") if s] == ["a", "b", "c"]


def test_normalize_whitespace():
    assert _one("<p>a   b\t c</p>", normalize_whitespace=True) == "a b c"


def test_nulls_propagate():
    arr = pa.array([b"<p>x</p>", None], type=pa.binary())
    out = extract_text_array(arr)
    assert out[0].as_py() == "x" and out[1].as_py() is None


def _html_only(pages_dir: str, out_dir) -> str:
    """A copy of a pages directory without its ``text`` column."""
    import os

    import pyarrow.parquet as pq

    from log_analysis_ai_ray.sources.pages import resolve_pages

    out_dir.mkdir()
    for f in resolve_pages(pages_dir).files:
        pq.write_table(pq.read_table(f).drop_columns(["text"]),
                       str(out_dir / os.path.basename(f)))
    return str(out_dir)


def test_flagship_html_input_parity(ray_session, pages_small, tmp_path):
    """build_lines over raw html == build_lines over stored text:
    the whole downstream pipeline is invariant to which input path
    carried the text (north_rule per-row contract, end to end)."""
    from log_analysis_ai_ray.pipelines import flagship

    a = flagship.build_lines(pages_small).to_pandas()
    b = flagship.build_lines(
        _html_only(pages_small, tmp_path / "html")).to_pandas()
    key = ["url", "line_no"]
    a = a.sort_values(key).reset_index(drop=True)
    b = b.sort_values(key).reset_index(drop=True)
    assert list(a.columns) == list(b.columns)
    assert a.equals(b)


def test_corpus_byte_identity_invariant(tmp_path):
    """For every url: extract(html) == stored text, byte for byte."""
    d = synth.ensure_pages(str(tmp_path / "pages"), 300, n_files=2)
    import pyarrow.parquet as pq
    t = pq.read_table(d)
    got = extract_text_array(t.column("html"))
    want = t.column("text").combine_chunks()
    eq = pc.all(pc.equal(got, want)).as_py()
    assert eq is True
    # and the map_batches stage drops html, renames correctly
    out = ExtractHtmlText()(t.select(["url", "html"]))
    assert out.column_names == ["url", "text"]
    assert pc.all(pc.equal(out.column("text"), want)).as_py() is True


def _duck_store(out: str) -> dict:
    """A store's sink row multiset (with sink_id and id), dead letters
    (none: no dead-letter file), registry and rollups, each read through
    DuckDB in sorted order."""
    import glob
    import os

    import duckdb

    files = {"sinks": os.path.join(out, "sink_id=*", "*.parquet"),
             "dead": os.path.join(out, "deadletter", "*.parquet"),
             "registry": os.path.join(out, "template_registry.parquet"),
             "rollups": os.path.join(out, "rollups.parquet")}
    with duckdb.connect() as con:
        return {k: con.execute("SELECT * FROM read_parquet(?, "
                               "hive_partitioning=true) ORDER BY ALL",
                               [f]).fetchall() if glob.glob(f) else []
                for k, f in files.items()}


def test_html_only_input_through_pipeline_and_cli(ray_session, pages_small,
                                                  tmp_path, capsys):
    """The config runner's pages+drain path and ``cli flagship`` read an
    input that carries only raw html with no option saying so, and
    write the store of the text input: the same sink rows, dead letters,
    registry and rollups."""
    from log_analysis_ai_ray import cli
    from log_analysis_ai_ray.pipeline import Pipeline, PipelineConfig
    from log_analysis_ai_ray.pipelines import flagship

    html = _html_only(pages_small, tmp_path / "html")
    flagship.run(pages_small, str(tmp_path / "text_out"))
    want = _duck_store(str(tmp_path / "text_out"))
    assert want["sinks"] and want["registry"] and want["rollups"]

    cfg = PipelineConfig(source={"format": "pages", "path": html},
                         parser={"kind": "drain"},
                         route={"out_dir": str(tmp_path / "pipe_out")})
    assert Pipeline(cfg).run()["metrics"]["rows_routed"] > 0
    assert _duck_store(str(tmp_path / "pipe_out")) == want

    assert cli.main(["flagship", "--pages", html,
                     "--out", str(tmp_path / "cli_out")]) == 0
    capsys.readouterr()
    assert _duck_store(str(tmp_path / "cli_out")) == want
