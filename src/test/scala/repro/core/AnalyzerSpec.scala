package repro.core

import repro.{Oracle, SparkSpec, TestData}
import org.apache.spark.sql.functions._

class AnalyzerSpec extends SparkSpec with TestData {

  private def sample = docsDf(
    "the quick brown fox jumps over the lazy dog and it was fine",
    "another ordinary sentence with the usual words in it for analysis",
    "damn spam spam spam spam spam spam",
  )

  test("default probe covers exactly 13 dimensions") {
    assert(Analyzer.defaultDims.flatMap(_.statsKeys).distinct.size == 13)
  }

  test("computeStats fills every dimension for every sample without filtering") {
    val out = Analyzer.computeStats(sample)
    assert(out.count() == 3) // nothing removed
    val stats = out.select(Schema.Stats).collect().map(_.getAs[Map[String, Double]](0))
    val keys = Analyzer.defaultDims.flatMap(_.statsKeys).toSet
    stats.foreach(s => assert(keys.subsetOf(s.keySet)))
  }

  test("the 13 default dimensions tokenize each row at most once") {
    val df = sample.localCheckpoint()
    Tokenizers.wordCalls.set(0L)
    val rows = Analyzer.computeStats(df).collect().length
    assert(Tokenizers.wordCalls.get() <= rows, s"${Tokenizers.wordCalls.get()} tokenizer calls for $rows rows")
  }

  test("computeStats recomputes every dimension over stats that already hold its keys") {
    val keys = Analyzer.defaultDims.flatMap(_.statsKeys)
    val stale = sample.withColumn(Schema.Stats, map(keys.flatMap(k => Seq(lit(k), lit(-1.0))): _*))
    assert(rowsOf(Analyzer.computeStats(stale)) == rowsOf(Analyzer.computeStats(sample)))
  }

  test("summarize yields one row per metric with sane aggregates") {
    val summary = Analyzer.probe(sample).collect()
    assert(summary.length == 13)
    val byMetric = summary.map(r => r.getString(0) -> r).toMap
    val wc = byMetric("num_words")
    assert(wc.getAs[Long]("count") == 3L)
    assert(wc.getAs[Double]("min") <= wc.getAs[Double]("mean"))
    assert(wc.getAs[Double]("mean") <= wc.getAs[Double]("max"))
    assert(wc.getAs[Double]("p25") <= wc.getAs[Double]("p75"))
  }

  test("summary mean/min/max matches DuckDB aggregates (oracle)") {
    val stats = Analyzer.computeStats(sample)
      .select(explode(col(Schema.Stats)).as(Seq("metric", "value")))
    val sparkAgg = stats.groupBy("metric")
      .agg(avg("value") as "m", min("value") as "lo", max("value") as "hi")
    Oracle.assertEquivalent(
      sparkAgg,
      "SELECT metric, AVG(CAST(value AS DOUBLE)) AS m, MIN(CAST(value AS DOUBLE)) AS lo, " +
        "MAX(CAST(value AS DOUBLE)) AS hi FROM stats GROUP BY metric",
      "stats" -> stats)
  }

  test("verb-noun diversity probe surfaces leading content bigrams") {
    val df = docsDf(
      "write code using the compiler", "write code using the interpreter",
      "write tests for the parser", "explain results from the model",
    )
    val probe = Analyzer.verbNounDiversity(df, topK = 3, topObj = 2).collect()
    assert(probe.nonEmpty)
    val topVerb = probe.head.getString(0)
    assert(topVerb == "write")
    // objects are ranked within each verb
    val writeObjs = probe.filter(_.getString(0) == "write").map(_.getString(2)).toSeq
    assert(writeObjs.contains("code"))
  }

  test("probe on empty-stats text does not explode") {
    val df = docsDf("")
    assert(Analyzer.computeStats(df).count() == 1)
  }
}
