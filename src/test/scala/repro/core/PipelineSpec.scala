package repro.core

import repro.{SparkSpec, TestData}

class PipelineSpec extends SparkSpec with TestData {

  test("pipeline chains mapper → filter → dedup and keeps the unified schema") {
    val df = docsDf(
      "  The   SAME document  ", "the same document", "tiny", "A different KEEPER document")
    val out = Pipeline(Seq(
      Mappers.LowercaseMapper(), Mappers.WhitespaceNormalizationMapper(),
      Filters.TextLengthFilter(minLen = 8), Deduplicators.ExactDocDeduplicator(),
    )).run(df)
    assert(out.columns.toSeq == Schema.columns)
    assert(texts(out.orderBy(Schema.Id)) == Seq("the same document", "a different keeper document"))
  }

  test("pipeline accepts non-unified input by unifying it first") {
    val session = spark
    import session.implicits._
    val raw = Seq("only a text column that is long enough").toDF(Schema.Text)
    assert(Pipeline(Seq(Filters.TextLengthFilter(minLen = 5))).run(raw).count() == 1)
  }

  test("an empty op list is the identity (modulo unification)") {
    val df = docsDf("a", "b")
    assert(texts(Pipeline(Nil).run(df).orderBy(Schema.Id)) == Seq("a", "b"))
  }

  test("stats accumulate across filters in one pipeline") {
    val df = docsDf("the quick brown fox jumps over whatever else is needed here")
    val out = Pipeline(Seq(Filters.TextLengthFilter(1), Filters.WordCountFilter(1))).run(df)
    val stats = out.select(Schema.Stats).collect()(0).getAs[Map[String, Double]](0)
    assert(stats.contains("text_len") && stats.contains("num_words"))
  }

  test("meta survives the whole pipeline") {
    val df = docsWithMeta(("a sufficiently long document", Map("source" -> "unit")))
    val out = Pipeline(Seq(Mappers.LowercaseMapper(), Filters.TextLengthFilter(5))).run(df)
    assert(out.select(Schema.Meta).collect()(0).getAs[Map[String, String]](0) == Map("source" -> "unit"))
  }

  test("pipeline ordering matters across mapper barriers") {
    // lowercase AFTER a case-sensitive-ish filter vs before: different results
    val df = docsDf("SHOUTING TEXT WITH MANY WORDS HERE OK")
    val filterThenMap = Pipeline(Seq(Filters.TextLengthFilter(5), Mappers.LowercaseMapper())).run(df)
    assert(texts(filterThenMap) == Seq("shouting text with many words here ok"))
  }

  test("a Mapper that edits the text clears the stats computed before it") {
    val html = "hello" + "&#160;" * 80 // the Mapper strips it to 5 chars
    val plain = "plain text that no mapper edits and that is long enough"
    val ops = Seq(Filters.TextLengthFilter(), Mappers.RemoveHtmlTagsMapper(), Filters.TextLengthFilter(minLen = 50))
    Seq(Pipeline(ops), Pipeline(ops, tracer = Some(new Tracer()))).foreach { pipe =>
      val out = pipe.run(docsDf(html, plain)).select(Schema.Text, Schema.Stats).collect()
      assert(out.map(_.getString(0)).toSeq == Seq(plain))
      assert(out(0).getMap[String, Double](1)("text_len") == plain.length)
    }
  }

  test("unfused, each row OP is its own pass; by default a run of row OPs is one pass") {
    import org.apache.spark.sql.execution.MapPartitionsExec
    val ops = Seq(Mappers.LowercaseMapper(), Filters.TextLengthFilter(1), Filters.WordCountFilter(1))
    val input = docsDf("Some Text Of Six Words Here").localCheckpoint()
    def passes(pipe: Pipeline) =
      pipe.run(input).queryExecution.executedPlan.collect { case m: MapPartitionsExec => m }.size
    assert(passes(Pipeline(ops, fuse = false)) == ops.size)
    assert(passes(Pipeline(ops)) == 1)
  }

  test("a formatter in the op list is rejected, not run as a silent unification") {
    val e = intercept[IllegalArgumentException](
      Pipeline(Seq(Filters.TextLengthFilter(), Formatters.JsonlFormatter("ignored.jsonl"))))
    assert(e.getMessage.contains("jsonl_formatter"))
  }
}
