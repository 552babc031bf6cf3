package repro.core

import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.DataFrame
import repro.{SparkSpec, TestData}

/** Writes fixed stats `values` (overwriting any present ones, as every
  * Filter does) and keeps every row.
  */
final case class StatsWriterFilter(values: Map[String, Double]) extends Filter {
  def name: String = "stats_writer_filter"
  def statsKeys: Seq[String] = values.keys.toSeq.sorted
  def contexts: Set[ContextKey.Value] = Set.empty
  def computeStatsRow(ctx: TextContext): Map[String, Double] = values
  def keepRow(stats: Map[String, Double]): Boolean = true
}

/** Keeps every row, and throws on the row whose text is `poison`. */
final case class ThrowingFilter(poison: String) extends Filter {
  def name: String = "throwing_filter"
  def statsKeys: Seq[String] = Seq("throwing")
  def contexts: Set[ContextKey.Value] = Set.empty
  def computeStatsRow(ctx: TextContext): Map[String, Double] =
    if (ctx.text == poison) throw new IllegalStateException(s"poisoned row: $poison") else Map("throwing" -> 0.0)
  def keepRow(stats: Map[String, Double]): Boolean = true
}

class CacheSpec extends SparkSpec with TestData {

  private def newManager(mode: String = CacheManager.ModeCache, codec: String = "zstd"): CacheManager =
    new CacheManager(spark, Files.createTempDirectory("djcache").toString, mode, codec)

  private def ops: Seq[Op] = Seq(
    Mappers.LowercaseMapper(),
    Filters.TextLengthFilter(minLen = 4),
    Deduplicators.ExactDocDeduplicator(),
  )

  test("cache mode persists input + one entry per op") {
    val cm = newManager()
    val df = docsDf("Sample ONE text", "two", "Sample ONE text", "another Document")
    Pipeline(ops, cache = Some(cm)).run(df).count()
    // 1 input + 3 op outputs
    assert(cm.entries.size == 4)
  }

  test("rerun with identical recipe resumes from the last cache") {
    val cm = newManager()
    val df = docsDf("Alpha Beta", "tiny", "Gamma Delta Epsilon")
    val first = Pipeline(ops, cache = Some(cm)).run(df)
    val firstTexts = texts(first)
    val entriesAfterFirst = cm.entries.toSet
    val second = Pipeline(ops, cache = Some(cm)).run(df)
    assert(texts(second) == firstTexts)
    assert(cm.entries.toSet == entriesAfterFirst) // nothing new written
  }

  test("changing an op parameter invalidates exactly the suffix") {
    val cm = newManager()
    val df = docsDf("Alpha Beta Gamma", "tiny", "Delta Epsilon")
    Pipeline(ops, cache = Some(cm)).run(df).count()
    val before = cm.entries.size
    val changed = Seq(Mappers.LowercaseMapper(), Filters.TextLengthFilter(minLen = 6),
      Deduplicators.ExactDocDeduplicator())
    Pipeline(changed, cache = Some(cm)).run(df).count()
    // input + mapper outputs shared; filter + dedup outputs re-written anew
    assert(cm.entries.size == before + 2)
  }

  test("checkpoint mode keeps only the latest op output plus input") {
    val cm = newManager(CacheManager.ModeCheckpoint)
    val df = docsDf("Alpha Beta", "tiny", "Gamma Delta")
    Pipeline(ops, cache = Some(cm)).run(df).count()
    // input cache + the final op's checkpoint
    assert(cm.entries.size == 2)
  }

  test("cached pipeline output equals uncached output") {
    val cm = newManager()
    val df = docsDf("KEEP this Doc", "no", "Another Valid doc", "KEEP this Doc")
    val cached = Pipeline(ops, cache = Some(cm)).run(df)
    val plain  = Pipeline(ops).run(df)
    assert(texts(cached.orderBy(Schema.Id)) == texts(plain.orderBy(Schema.Id)))
  }

  test("zstd-compressed caches are smaller than uncompressed") {
    val redundant = (0 until 200).map(i => "very repetitive content " * 30 + i)
    val df = docsDf(redundant: _*)
    val cz = newManager(codec = "zstd")
    val cu = newManager(codec = "uncompressed")
    Pipeline(Seq(Mappers.LowercaseMapper()), cache = Some(cz)).run(df).count()
    Pipeline(Seq(Mappers.LowercaseMapper()), cache = Some(cu)).run(df).count()
    assert(cz.bytes < cu.bytes, s"zstd=${cz.bytes} uncompressed=${cu.bytes}")
  }

  test("space model: cache mode formula (Appendix A.2)") {
    // (1 + M + F + I(F>0) + D) × S
    assert(SpaceModel.cacheMode(mappers = 2, filters = 3, dedups = 1, datasetBytes = 10L) == 80L)
    assert(SpaceModel.cacheMode(mappers = 2, filters = 0, dedups = 0, datasetBytes = 10L) == 30L)
    assert(SpaceModel.cacheMode(ops, datasetBytes = 100L) == (1 + 1 + 1 + 1 + 1) * 100L)
  }

  test("op signatures are stable and parameter-sensitive") {
    assert(Filters.TextLengthFilter(5, 10).signature == Filters.TextLengthFilter(5, 10).signature)
    assert(Filters.TextLengthFilter(5, 10).signature != Filters.TextLengthFilter(6, 10).signature)
    assert(Filters.PerplexityFilter(100).signature.contains("refSize"))
  }

  test("perplexity signature keys the reference table, not only its size") {
    val a = Map("alpha" -> -1.0, "beta" -> -2.0)
    val b = Map("alpha" -> -1.0, "gamma" -> -2.0)
    val reordered = Map("beta" -> -2.0, "alpha" -> -1.0)
    assert(Filters.PerplexityFilter(100, a).signature != Filters.PerplexityFilter(100, b).signature)
    assert(Filters.PerplexityFilter(100, a).signature == Filters.PerplexityFilter(100, reordered).signature)
    assert(Filters.PerplexityFilter(100, a.updated("beta", -3.0)).signature != Filters.PerplexityFilter(100, a).signature)
  }

  private val rowDocs = (0 until 40).map { i =>
    val body = s"The document number $i is a perfectly fine sentence with the usual words in it"
    if (i % 6 == 0) "tiny"
    else if (i % 5 == 0) s"<div><p>$body</p></div>"
    else if (i % 7 == 0) s"damn hell damn $body"
    else if (i % 4 == 1) body.toUpperCase
    else body
  }

  private def keysOf(cm: CacheManager, pipe: Pipeline): Seq[String] =
    pipe.planned.scanLeft(cm.inputKey(pipe.inputId))((k, op) => cm.chainKey(k, op))

  /** Every entry of `pipe`'s key chain equals the uncached output of its planned prefix. */
  private def assertEntriesExact(cm: CacheManager, pipe: Pipeline, df: DataFrame): Unit = {
    val keys = keysOf(cm, pipe)
    keys.indices.foreach { k =>
      assert(rowsOf(cm.load(keys(k))) == rowsOf(Pipeline(pipe.planned.take(k)).run(df)), s"entry $k")
    }
  }

  test("a cached cold run starts as many Spark jobs for 6 row OPs as for 2") {
    import Mappers._, Filters._
    val df = docsDf(rowDocs: _*)
    val rowOps: Seq[Op] = Seq(LowercaseMapper(), TextLengthFilter(minLen = 2), WhitespaceNormalizationMapper(),
      WordCountFilter(minWords = 1), RemoveHtmlTagsMapper(), AlphanumericRatioFilter(min = 0.1))
    val jobs = Seq(2, 6).map { k =>
      val cm = newManager()
      val pipe = Pipeline(rowOps.take(k) :+ Deduplicators.ExactDocDeduplicator(), cache = Some(cm))
      val (n, _) = countJobs(pipe.run(df))
      assert(cm.entries.size == k + 2)
      n
    }
    info(s"Spark jobs for 2 and 6 row OPs: ${jobs.mkString(" and ")}")
    assert(jobs.head == jobs.last, s"jobs for 2 vs 6 row OPs: ${jobs.mkString(" vs ")}")
  }

  /** Two row runs around an exact dedup, with a run of Words Filters. */
  private def chainOps: Seq[Op] = {
    import Mappers._, Filters._
    Seq(FixUnicodeMapper(), RemoveHtmlTagsMapper(), WhitespaceNormalizationMapper(),
      TextLengthFilter(10), WordCountFilter(3), StopwordRatioFilter(0.1), FlaggedWordsFilter(0.01),
      WordRepetitionFilter(5, 0.3), Deduplicators.ExactDocDeduplicator(), LowercaseMapper(), TextLengthFilter(70))
  }

  for (fuse <- Seq(false, true))
    test(s"every entry of a row run equals the uncached output of its prefix (fuse=$fuse)") {
      val df = docsDf(rowDocs: _*)
      val cm = newManager()
      val pipe = Pipeline(chainOps, fuse = fuse, reorder = fuse, cache = Some(cm))
      pipe.run(df).count()
      assert(cm.entries.sorted == keysOf(cm, pipe).distinct.sorted)
      assertEntriesExact(cm, pipe, df)
    }

  for (reorder <- Seq(false, true))
    test(s"cache keys do not depend on fuse: a fused run resumes an unfused run's cache whole (reorder=$reorder)") {
      assert(Pipeline(chainOps, fuse = true, reorder = reorder).planned ==
        Pipeline(chainOps, fuse = false, reorder = reorder).planned)
      val df = docsDf(rowDocs: _*)
      val cm = newManager()
      val unfused = rowsOf(Pipeline(chainOps, fuse = false, reorder = reorder, cache = Some(cm)).run(df))
      val entries = cm.entries
      val fused = rowsOf(Pipeline(chainOps, fuse = true, reorder = reorder, cache = Some(cm)).run(df))
      assert(cm.entries == entries)
      assert(fused == unfused)
    }

  test("a Filter that rejects every row leaves empty entries a rerun resumes from") {
    import Mappers._, Filters._
    val df = docsDf(rowDocs: _*)
    val ops: Seq[Op] = Seq(LowercaseMapper(), TextLengthFilter(minLen = 10000), WordCountFilter(minWords = 1),
      Deduplicators.ExactDocDeduplicator())
    val cm = newManager()
    val pipe = Pipeline(ops, cache = Some(cm))
    assert(pipe.run(df).count() == 0)
    val keys = keysOf(cm, pipe)
    val unified = cm.load(keys(1)).schema
    (2 to 4).foreach { k =>
      val entry = cm.load(keys(k))
      assert(entry.schema == unified, s"entry $k")
      assert(entry.count() == 0, s"entry $k")
    }
    val entries = cm.entries
    val (jobs, rerun) = countJobs(Pipeline(ops, cache = Some(cm)).run(df).collect())
    assert(rerun.isEmpty)
    assert(cm.entries == entries)
    assert(jobs <= 2, s"a resumed rerun should only load the last entry, ran $jobs jobs")
  }

  /** Names directly under the cache directory. */
  private def listed(cm: CacheManager): Seq[String] =
    Files.list(Paths.get(cm.dir)).toArray.map(_.asInstanceOf[Path].getFileName.toString).toSeq.sorted

  test("a Filter that overwrites a present stats value splits the version: earlier entries keep the old value") {
    import Mappers._, Filters._
    val df = docsDf(rowDocs: _*)
    val ops: Seq[Op] = Seq(StatsWriterFilter(Map("a" -> 1.0)), TextLengthFilter(minLen = 5),
      StatsWriterFilter(Map("a" -> 2.0, "b" -> 3.0)), WordCountFilter(minWords = 1), RemoveHtmlTagsMapper(),
      StatsWriterFilter(Map("a" -> 4.0, "c" -> 5.0)), Deduplicators.ExactDocDeduplicator())
    val cm = newManager()
    val pipe = Pipeline(ops, cache = Some(cm))
    pipe.run(df).count()
    val keys = keysOf(cm, pipe)
    assertEntriesExact(cm, pipe, df)
    def values(k: Int) = rowsOf(cm.load(keys(k))).map(r => (r._3.get("a"), r._3.get("b"))).distinct
    assert(values(1) == Seq((Some(1.0), None)))
    assert(values(3) == Seq((Some(2.0), Some(3.0))))
    assert(values(4) == Seq((Some(2.0), Some(3.0))))
    // Rows the Mapper left unchanged still hold a = 2.0 at stage 5, and the
    // edited ones no stats.
    assert(values(5).toSet == Set((Some(2.0), Some(3.0)), (None, None)))
    assert(values(6).map(_._1).distinct == Seq(Some(4.0)))
  }

  test("a resumed rerun starts a row run from a referenced entry and does not rewrite that entry") {
    import Filters._
    val df = docsDf(rowDocs: _*)
    val cm = newManager()
    Pipeline(chainOps, cache = Some(cm)).run(df).count()
    // Change the 7th OP: the rerun resumes from the 6th OP's entry, which
    // the first run's row run wrote, and runs a multi-OP row run from it.
    val edited = chainOps.updated(6, FlaggedWordsFilter(0.05))
    val pipe = Pipeline(edited, cache = Some(cm))
    val keys = keysOf(cm, pipe)
    assert(keys.lastIndexWhere(cm.has) == 6)
    def snapshot(key: String) = Files.walk(cm.path(key)).toArray.map(_.asInstanceOf[Path])
      .map(p => (p.toString, if (Files.isRegularFile(p)) Files.readAllBytes(p).toSeq else Nil,
        Files.getLastModifiedTime(p))).toSeq.sortBy(_._1)
    val before = snapshot(keys(6))
    val beforeEntries = cm.entries
    pipe.run(df).count()
    assert(snapshot(keys(6)) == before)
    assert(cm.entries.size == beforeEntries.size + edited.size - 6)
    assertEntriesExact(cm, pipe, df)
    assertEntriesExact(cm, Pipeline(chainOps, cache = Some(cm)), df)
  }

  test("a row run that fails part-way leaves no entry that has accepts and no orphaned data directory") {
    import Mappers._, Filters._
    val df = docsDf(rowDocs: _*)
    val failing: Seq[Op] = Seq(LowercaseMapper(), TextLengthFilter(minLen = 2),
      ThrowingFilter(rowDocs(3).toLowerCase), WordCountFilter(minWords = 1), Deduplicators.ExactDocDeduplicator())
    val cm = newManager()
    val pipe = Pipeline(failing, cache = Some(cm))
    intercept[Exception](pipe.run(df))
    assert(keysOf(cm, pipe).forall(k => !cm.has(k)))
    assert(listed(cm).isEmpty, listed(cm).mkString(", "))
    // The same cache directory then serves a working run.
    val fixed = Pipeline(failing.updated(2, ThrowingFilter("never")), cache = Some(cm))
    fixed.run(df).count()
    assert(cm.entries == keysOf(cm, fixed).distinct.sorted)
    assertEntriesExact(cm, fixed, df)
  }

  test("entries lists keys only, never a row run's data directory") {
    val df = docsDf(rowDocs: _*)
    val cm = newManager()
    val pipe = Pipeline(chainOps, cache = Some(cm))
    pipe.run(df).count()
    val data = listed(cm).filter(_.startsWith("_"))
    assert(data.nonEmpty, "a row run writes its versions under a `_`-prefixed directory")
    assert(cm.entries == keysOf(cm, pipe).distinct.sorted)
    assert(cm.entries.forall(!_.startsWith("_")))
    assert(cm.entries.size + data.size == listed(cm).size)
  }

  /** `key`'s entry as Spark's schema inference reads the same files. */
  private def inferred(cm: CacheManager, key: String): DataFrame = {
    val ref = cm.path(key).resolve("_ref")
    if (!Files.exists(ref)) spark.read.parquet(cm.path(key).toString)
    else {
      val Array(data, stage) = Files.readString(ref).split("\t")
      RowStage.at(spark.read.parquet(Paths.get(cm.dir, "_runs", data).toString), stage.toInt)
    }
  }

  /** `cm.load(key)` starts no Spark job, and reads what inference reads. */
  private def assertLoadsAsInferred(cm: CacheManager, key: String, what: String): Unit = {
    val (jobs, loaded) = countJobs(cm.load(key))
    assert(jobs == 0, s"$what: load started $jobs Spark jobs")
    val expected = inferred(cm, key)
    assert(loaded.schema == expected.schema, s"$what: ${loaded.schema.simpleString} vs ${expected.schema.simpleString}")
    def all(df: DataFrame) = df.collect().map(_.toSeq).sortBy(_.head.asInstanceOf[Long]).toSeq
    assert(all(loaded) == all(expected), what)
  }

  test("load reads every kind of entry with its footer's schema: no Spark job, as inference reads it") {
    val df = docsWithMeta(rowDocs.zipWithIndex.map { case (t, i) => (t, Map("k" -> i.toString)) }: _*)
    val plain = newManager()
    plain.save(df, "plain", None)
    assertLoadsAsInferred(plain, "plain", "a saved entry")
    val cm = newManager()
    val pipe = Pipeline(chainOps, cache = Some(cm))
    pipe.run(df).count()
    val keys = keysOf(cm, pipe)
    assert(Files.exists(cm.path(keys(3)).resolve("_ref")))
    keys.indices.foreach(k => assertLoadsAsInferred(cm, keys(k), s"cache-mode entry $k"))
    val resumed = new CacheManager(spark, cm.dir)
    keys.indices.foreach(k => assertLoadsAsInferred(resumed, keys(k), s"entry $k read by a fresh manager"))
    val cp = newManager(CacheManager.ModeCheckpoint)
    val cpPipe = Pipeline(chainOps, cache = Some(cp))
    cpPipe.run(df).count()
    assert(cp.entries.size == 2)
    cp.entries.foreach(k => assertLoadsAsInferred(cp, k, s"checkpoint-mode entry $k"))
  }

  test("a cold cached fusion14 run on jsonl input starts at most the uncached run's Spark jobs + 2") {
    import repro.corpus.TextGen
    val fig9Mix: TextGen.Mix = Seq(
      "clean" -> 0.6, "html" -> 0.1, "gibberish" -> 0.1, "boilerplate" -> 0.1, "repeat" -> 0.1)
    val dir = Files.createTempDirectory("fig9")
    val input = dir.resolve("in").toString
    TextGen.docs(spark, fig9Mix, 500, seed = 637L, docWords = 220).select(Schema.Text).write.json(input)
    val recipe = repro.exp.Recipes.fusion14
    def run(cache: Option[CacheManager], out: String): Int = countJobs {
      recipe.pipeline(fuse = true, reorder = true, cache = cache)
        .run(Formatters.JsonlFormatter(input).load(spark)).write.parquet(dir.resolve(out).toString)
    }._1
    val uncached = run(None, "plain")
    val cached = run(Some(newManager()), "cached")
    info(s"Spark jobs: uncached $uncached, cold cached $cached")
    assert(cached <= uncached + 2, s"cold cached run started $cached jobs, uncached $uncached")
  }

  test("a cached fusion14 run stays within the Appendix A.2 cache-mode space bound") {
    import repro.corpus.TextGen
    val docs = (0 until 1200).map { i =>
      i % 4 match {
        case 0 => TextGen.cleanText(i, 120)
        case 1 => TextGen.htmlWrapped(i, 120)
        case 2 => TextGen.flaggedText(i, 80)
        case _ => TextGen.corruptedText(i, 100)
      }
    }
    val df = docsDf(docs: _*)
    // S: the dataset stored as one cache entry of its own.
    val input = newManager()
    input.save(df, "input", None)
    val cm = newManager()
    val pipe = repro.exp.Recipes.fusion14.pipeline(fuse = true, reorder = true, cache = Some(cm))
    pipe.run(df).count()
    val bound = SpaceModel.cacheMode(pipe.planned, input.bytes)
    info(s"cache bytes ${cm.bytes}, S = ${input.bytes}, bound $bound")
    assert(cm.bytes <= bound)
  }
}
