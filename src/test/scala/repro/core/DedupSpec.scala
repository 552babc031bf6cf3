package repro.core

import repro.{SparkSpec, TestData}
import repro.core.Deduplicators._

class DedupSpec extends SparkSpec with TestData {

  test("contentHash normalizes whitespace and case") {
    assert(Hashing.contentHash("Hello  World") == Hashing.contentHash("hello world"))
    assert(Hashing.contentHash("a") != Hashing.contentHash("b"))
    assert(Hashing.contentHash(null) == Hashing.contentHash(""))
  }

  test("minhash signatures of identical token sets match") {
    val a = Hashing.minhash(Array("a", "b", "c", "d", "e"), 32, 3, 1)
    val b = Hashing.minhash(Array("a", "b", "c", "d", "e"), 32, 3, 1)
    assert(a.toSeq == b.toSeq)
  }

  test("minhash similarity tracks jaccard") {
    val base = (1 to 50).map(i => s"w$i").toArray
    val near = (base.dropRight(3) :+ "x1") :+ "x2"
    val far  = (100 to 150).map(i => s"w$i").toArray
    def sim(x: Array[String], y: Array[String]) = {
      val sx = Hashing.minhash(x, 128, 3, 1); val sy = Hashing.minhash(y, 128, 3, 1)
      sx.zip(sy).count { case (p, q) => p == q }.toDouble / 128
    }
    assert(sim(base, near) > 0.6)
    assert(sim(base, far) < 0.2)
  }

  test("simhash of near-identical texts is close in hamming distance") {
    val t1 = (1 to 200).map(i => s"feat$i").toArray
    val t2 = (1 to 199).map(i => s"feat$i").toArray :+ "changed"
    val far = (1 to 200).map(i => s"other$i").toArray
    assert(Hashing.hamming(Hashing.simhash(t1), Hashing.simhash(t2)) <= 8)
    assert(Hashing.hamming(Hashing.simhash(t1), Hashing.simhash(far)) > 12)
  }

  test("connected components merges transitive clusters") {
    val session = spark
    import session.implicits._
    val edges = Seq((1L, 2L), (2L, 3L), (10L, 11L)).toDF("src", "dst")
    val comp = ConnectedComponents.run(spark, edges).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    assert(comp(1L) == 1L && comp(2L) == 1L && comp(3L) == 1L)
    assert(comp(10L) == 10L && comp(11L) == 10L)
  }

  test("connected components handles a long chain") {
    val session = spark
    import session.implicits._
    val edges = (0L until 12L).map(i => (i, i + 1)).toDF("src", "dst")
    val comp = ConnectedComponents.run(spark, edges).collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    assert(comp.values.toSet == Set(0L))
  }

  test("connected components fails loudly when it does not converge") {
    val session = spark
    import session.implicits._
    val edges = (0L until 40L).map(i => (i, i + 1)).toDF("src", "dst")
    val e = intercept[IllegalStateException](ConnectedComponents.run(spark, edges))
    assert(e.getMessage.contains("did not converge in 25 rounds"))
  }

  test("exact doc dedup keeps first occurrence") {
    val df = docsDf("same doc", "same  DOC", "different entirely")
    val out = ExactDocDeduplicator()(df)
    assert(ids(out) == Seq(0L, 2L))
    assert(out.columns.toSeq == df.columns.toSeq)
  }

  test("exact doc dedup is idempotent") {
    val df = docsDf("a a a", "a a a", "b", "b", "c")
    val once = ExactDocDeduplicator()(df)
    val twice = ExactDocDeduplicator()(once)
    assert(ids(once) == ids(twice))
    assert(once.count() == 3)
  }

  test("paragraph dedup removes cross-document boilerplate paragraphs") {
    val boiler = "subscribe to our newsletter now"
    val df = docsDf(
      s"unique first content\n\n$boiler",
      s"$boiler\n\nsecond doc real text",
      boiler, // only boilerplate — should vanish entirely
    )
    val out = ParagraphDeduplicator()(df)
    val t = texts(out)
    assert(t.size == 2)
    assert(t.head.contains(boiler)) // first occurrence survives
    assert(!t(1).contains(boiler))
    assert(t(1).contains("second doc real text"))
  }

  test("minhash dedup removes near duplicates, keeps distinct docs") {
    val base = (1 to 60).map(i => s"word$i").mkString(" ")
    val near = (1 to 58).map(i => s"word$i").mkString(" ") + " tail changed"
    val other = (200 to 260).map(i => s"tok$i").mkString(" ")
    val df = docsDf(base, near, other)
    val out = MinHashDeduplicator(jaccard = 0.5)(df)
    assert(ids(out) == Seq(0L, 2L))
  }

  test("minhash dedup leaves dissimilar corpus untouched") {
    val docs = (0 until 8).map(d => (d * 100 until d * 100 + 50).map(i => s"w$i").mkString(" "))
    val out = MinHashDeduplicator()(docsDf(docs: _*))
    assert(out.count() == 8)
  }

  test("simhash dedup clusters by hamming distance") {
    val base = (1 to 200).map(i => s"feat$i").mkString(" ")
    val near = (1 to 199).map(i => s"feat$i").mkString(" ") + " changed"
    val far  = (1 to 200).map(i => s"other$i").mkString(" ")
    val out = SimHashDeduplicator(hammingMax = 8)(docsDf(base, near, far))
    assert(ids(out) == Seq(0L, 2L))
  }

  test("exact dedup result equals DuckDB distinct-count oracle") {
    val df = docsDf("x y", "x y", "z", "w", "z")
    val out = ExactDocDeduplicator()(df).select(repro.core.Schema.Text).groupBy(Schema.Text)
      .count().withColumnRenamed("count", "n")
    repro.Oracle.assertEquivalent(
      out,
      "SELECT text, CAST(COUNT(DISTINCT text) AS VARCHAR) AS n FROM docs GROUP BY text",
      "docs" -> df.select(Schema.Text))
  }

  test("deduplicator names are snake_case and unique") {
    val names = Deduplicators.all.map(_.name)
    assert(names.distinct.size == names.size)
    assert(names.forall(_.matches("[a-z0-9_]+")))
  }
}
