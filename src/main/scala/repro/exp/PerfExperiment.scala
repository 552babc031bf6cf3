package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.corpus.TextGen
import repro.dist.DistExecutor

/** End-to-end processing performance (paper Sec. 8.2.1 / Fig. 8): the
  * RedPajama-style baseline — a single-threaded script that loads the whole
  * dataset into driver memory and loops over it — versus the Data-Juicer
  * pipeline (fused + reordered, shard-parallel on Spark).
  *
  * Reported, per the paper's three monitored metrics:
  *  - wall-clock processing time (steady-state: min of two runs, after JIT
  *    warm-up — we compare system designs, not first-run compilation);
  *  - peak resident dataset bytes (analytic model: the baseline materializes
  *    the full corpus at once — the paper reports exactly this of the
  *    RedPajama scripts — while the pipeline streams one partition per core);
  *  - implied CPU-seconds (threads × wall time; the baseline is 1-threaded).
  */
object PerfExperiment {

  final case class Row(dataset: String, baselineMs: Long, djMs: Long,
                       baselineMemBytes: Long, djMemBytes: Long, cores: Int) {
    def timeSaved: Double = 1.0 - djMs.toDouble / math.max(1L, baselineMs)
    def memSaved: Double  = 1.0 - djMemBytes.toDouble / math.max(1L, baselineMemBytes)
  }

  final case class Result(rows: Seq[Row]) {
    def table: String = TableFmt.render(
      "Fig. 8 analog — end-to-end processing vs single-script baseline",
      Seq("Dataset", "Baseline ms", "DJ ms", "Time saved", "Baseline mem", "DJ mem", "Mem saved"),
      rows.map(r => Seq(r.dataset, r.baselineMs.toString, r.djMs.toString, TableFmt.pct(r.timeSaved),
        r.baselineMemBytes.toString, r.djMemBytes.toString, TableFmt.pct(r.memSaved))))
  }

  private val Partitions = 128

  /** Drop cached/locally-checkpointed blocks left behind by earlier
    * experiments in the same session — perf measurements must not compete
    * with a previous suite's storage memory.
    */
  private[exp] def cleanupSession(spark: SparkSession): Unit = {
    spark.sharedState.cacheManager.clearCache()
    spark.sparkContext.getPersistentRDDs.values.foreach(_.unpersist(true))
    System.gc()
  }

  /** The row-level ops of the shared recipe (same objects Spark runs). */
  private def ops: Seq[Op] = Recipes.fusion14.ops

  /** Single-threaded collect-and-loop baseline over the same OP objects. */
  def baseline(df: DataFrame): (Long, Long, Long) = {
    val rows = df.select(Schema.Id, Schema.Text).collect() // loads everything at once
    val memBytes = rows.map(r => 16L + 2L * Option(r.getString(1)).map(_.length).getOrElse(0)).sum
    val docs = rows.toSeq.sortBy(_.getLong(0))
      .map(r => DistExecutor.Doc(r.getLong(0), r.getString(1), Map.empty))
    def loop(ds: Seq[DistExecutor.Doc]): Long =
      DistExecutor.dedupGlobal(DistExecutor.processRows(ds, ops), ops).size.toLong
    loop(docs.take(300)) // JIT warm-up, uncounted
    val t0 = System.nanoTime()
    val n = loop(docs)
    ((System.nanoTime() - t0) / 1000000L, memBytes, n)
  }

  /** The Data-Juicer pipeline on Spark, fused and reordered; steady-state
    * wall time (min of two runs after a small warm-up run).
    */
  def dj(df: DataFrame): (Long, Long, Long) = {
    val spark = df.sparkSession
    val pipe = Recipes.fusion14.pipeline(fuse = true, reorder = true)
    pipe.run(df.limit(300)).count() // warm-up: codegen + JIT
    var n = 0L
    val times = (0 until 2).map { _ =>
      val t0 = System.nanoTime()
      n = pipe.run(df).count()
      (System.nanoTime() - t0) / 1000000L
    }
    val totalBytes = df.select(org.apache.spark.sql.functions.sum(
      org.apache.spark.sql.functions.length(org.apache.spark.sql.functions.col(Schema.Text)) * 2 + 16))
      .collect()(0).getLong(0)
    val cores = spark.sparkContext.defaultParallelism
    // Streaming model: one partition resident per core at a time.
    val memBytes = totalBytes / Partitions * math.min(Partitions, cores)
    (times.min, memBytes, n)
  }

  def run(spark: SparkSession,
          sizes: Seq[(String, Long)] = Seq("Books-lite" -> 12000L, "arXiv-lite" -> 30000L)): Result = {
    cleanupSession(spark)
    val rows = sizes.map { case (name, nDocs) =>
      val mix: TextGen.Mix =
        if (name.startsWith("Books")) Seq("clean" -> 0.8, "repeat" -> 0.1, "short" -> 0.1)
        else Seq("clean" -> 0.6, "html" -> 0.1, "gibberish" -> 0.1, "boilerplate" -> 0.1, "repeat" -> 0.1)
      val docWords = if (name.startsWith("Books")) 400 else 250
      val df = TextGen.docs(spark, mix, nDocs, seed = 71L + name.hashCode, docWords = docWords)
        .repartition(Partitions)
        .localCheckpoint(true)
      val (bMs, bMem, bN) = baseline(df)
      val (dMs, dMem, dN) = dj(df)
      require(bN == dN, s"baseline and DJ disagree on output size: $bN vs $dN")
      Row(name, bMs, dMs, bMem, dMem, spark.sparkContext.defaultParallelism)
    }
    Result(rows)
  }
}
