package repro.quality

import org.apache.spark.sql.functions._
import repro.{SparkSpec, TestData}
import repro.core.Schema
import repro.core.Deduplicators.MinHashDeduplicator
import repro.corpus.TextGen

class QualityClassifierSpec extends SparkSpec with TestData {

  private lazy val pos = TextGen.docs(spark, Seq("clean" -> 1.0), 250, seed = 11L, docWords = 150)
  private lazy val neg = TextGen.docs(spark,
    Seq("gibberish" -> 0.5, "boilerplate" -> 0.3, "flagged" -> 0.2), 250, seed = 12L, docWords = 150)
  private lazy val model = QualityClassifier.train(pos, neg,
    QualityClassifier.Config(numFeatures = 1 << 14, maxIter = 30))

  test("an unknown tokenizer name is rejected") {
    val e = intercept[IllegalArgumentException](QualityClassifier.Config(tokenizer = "bpe"))
    assert(e.getMessage.contains("bpe"))
  }

  test("classifier separates clean text from junk with high F1") {
    val posTest = TextGen.docs(spark, Seq("clean" -> 1.0), 80, seed = 21L, docWords = 150)
    val negTest = TextGen.docs(spark,
      Seq("gibberish" -> 0.5, "boilerplate" -> 0.3, "flagged" -> 0.2), 80, seed = 22L, docWords = 150)
    val (p, r, f1) = QualityClassifier.evaluate(model, posTest, negTest)
    assert(f1 > 0.9, s"p=$p r=$r f1=$f1")
  }

  test("score writes doc_score into the stats map, in [0,1]") {
    val scored = QualityClassifier.score(model, pos.limit(10))
    assert(scored.columns.toSeq == Schema.columns)
    val scores = scored.select(col(Schema.Stats).getItem("doc_score")).collect().map(_.getDouble(0))
    assert(scores.forall(s => s >= 0.0 && s <= 1.0))
  }

  test("scoring data that already has a doc_score replaces it") {
    val df = pos.limit(10).localCheckpoint()
    val stale = df.withColumn(Schema.Stats, map(lit("doc_score"), lit(-1.0), lit("other"), lit(3.0)))
    val fresh = rowsOf(QualityClassifier.score(model, df)).map(r => r._1 -> r._3("doc_score"))
    val twice = rowsOf(QualityClassifier.score(model, QualityClassifier.score(model, stale)))
    assert(twice.map(r => r._1 -> r._3) == fresh.map { case (id, p) => id -> Map("doc_score" -> p, "other" -> 3.0) })
  }

  test("label keep retains mostly clean docs from a mixture") {
    val mixture = TextGen.docs(spark, Seq("clean" -> 0.3, "gibberish" -> 0.7), 200, seed = 31L)
    val kept = QualityClassifier.keepLabel(QualityClassifier.score(model, mixture))
    val kinds = kept.select(col(Schema.Meta).getItem("kind")).collect().map(_.getString(0))
    assert(kinds.nonEmpty)
    assert(kinds.count(_ == "clean").toDouble / kinds.length > 0.8)
  }

  test("pareto keep is stricter than label keep on a junk-heavy corpus") {
    val cc = TextGen.docs(spark, Seq("clean" -> 0.05, "gibberish" -> 0.6, "boilerplate" -> 0.35),
      400, seed = 41L)
    val scored = QualityClassifier.score(model, cc).localCheckpoint(true)
    val label  = QualityClassifier.keepLabel(scored).count()
    val pareto = QualityClassifier.keepPareto(scored, seed = 5L).count()
    assert(label < 60, s"label keep $label of 400")
    assert(pareto <= label + 10, s"pareto $pareto vs label $label")
  }

  test("pareto keep is seeded-deterministic") {
    val scored = QualityClassifier.score(model, pos.limit(50)).localCheckpoint(true)
    assert(QualityClassifier.keepPareto(scored, seed = 7L).count() ==
      QualityClassifier.keepPareto(scored, seed = 7L).count())
  }

  test("cjk tokenizer config trains a working Chinese classifier") {
    val posZh = TextGen.docs(spark, Seq("cjk" -> 1.0), 150, seed = 51L)
    val negZh = TextGen.docs(spark, Seq("cjkNoise" -> 1.0), 150, seed = 52L)
    val zh = QualityClassifier.train(posZh, negZh, QualityClassifier.Config("cjk", 1 << 14, 30))
    val (_, _, f1) = QualityClassifier.evaluate(zh,
      TextGen.docs(spark, Seq("cjk" -> 1.0), 50, seed = 53L),
      TextGen.docs(spark, Seq("cjkNoise" -> 1.0), 50, seed = 54L))
    assert(f1 > 0.9, s"zh f1=$f1")
  }

  test("weak code labels produce a visibly weaker classifier (Table 4 shape)") {
    val posCode = TextGen.docs(spark, Seq("code" -> 0.6, "codeNoise" -> 0.4), 200, seed = 61L)
    val negCode = TextGen.docs(spark, Seq("code" -> 0.35, "codeNoise" -> 0.65), 200, seed = 62L)
    val code = QualityClassifier.train(posCode, negCode, QualityClassifier.Config("code", 1 << 14, 30))
    val (_, _, f1) = QualityClassifier.evaluate(code,
      TextGen.docs(spark, Seq("code" -> 0.6, "codeNoise" -> 0.4), 60, seed = 63L),
      TextGen.docs(spark, Seq("code" -> 0.35, "codeNoise" -> 0.65), 60, seed = 64L))
    assert(f1 < 0.9, s"code f1=$f1 should be visibly below the clean-text classifiers")
  }

  test("a session that ran MinHash dedup can still train and score") {
    // Connected components' Dataset.observe gives the session an observation
    // manager, which no task can serialize; a scoring task must not reach it.
    assert(MinHashDeduplicator()(pos.limit(40)).count() > 0)
    val fresh = QualityClassifier.train(pos.limit(100), neg.limit(100),
      QualityClassifier.Config(numFeatures = 1 << 12, maxIter = 10))
    val scores = QualityClassifier.score(fresh, pos.limit(10))
      .select(col(Schema.Stats).getItem("doc_score")).collect().map(_.getDouble(0))
    assert(scores.length == 10 && scores.forall(s => s >= 0.0 && s <= 1.0))
  }
}
