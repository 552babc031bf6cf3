package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.corpus.TextGen

/** OP fusion & reordering effect (paper Sec. 8.2.2 / Fig. 9): the 14-OP
  * recipe (5 Mappers, 8 Filters of which 5 share the Words context, 1
  * Deduplicator) run plain (one pass per OP, so each Filter builds its own
  * context) and fused and reordered (one pass per run of row OPs, one context
  * per sample), on datasets of several sizes. Reports wall time and the
  * shared-context recomputation actually avoided (tokenizer-call counts).
  */
object FusionExperiment {

  final case class Row(dataset: String, nDocs: Long, plainMs: Long, fusedMs: Long,
                       plainTokenizes: Long, fusedTokenizes: Long) {
    def timeSaved: Double = 1.0 - fusedMs.toDouble / math.max(1L, plainMs)
  }

  final case class Result(rows: Seq[Row]) {
    def table: String = TableFmt.render(
      "Fig. 9 analog — OP fusion & reordering on the 14-OP recipe",
      Seq("Dataset", "Docs", "Plain ms", "Fused ms", "Time saved", "Tokenize calls plain", "fused"),
      rows.map(r => Seq(r.dataset, r.nDocs.toString, r.plainMs.toString, r.fusedMs.toString,
        TableFmt.pct(r.timeSaved), r.plainTokenizes.toString, r.fusedTokenizes.toString)))
  }

  private val mix: TextGen.Mix = Seq(
    "clean" -> 0.6, "html" -> 0.1, "gibberish" -> 0.1, "boilerplate" -> 0.1, "repeat" -> 0.1)

  def run(spark: SparkSession, sizes: Seq[(String, Long)] =
            Seq("small" -> 1500L, "medium" -> 4000L, "large" -> 10000L)): Result = {
    PerfExperiment.cleanupSession(spark)
    val recipe = Recipes.fusion14
    // Steady-state timing: plans are codegen-compiled on first execution (a
    // fixed cost unrelated to the optimization under test), so each variant
    // is measured as the min of two runs.
    def timed(body: => Long): (Long, Long, Long) = {
      var n = 0L
      Tokenizers.wordCalls.set(0L)
      val t0 = System.nanoTime(); n = body
      val run1 = (System.nanoTime() - t0) / 1000000L
      val calls = Tokenizers.wordCalls.get()
      val t1 = System.nanoTime(); n = body
      val run2 = (System.nanoTime() - t1) / 1000000L
      (math.min(run1, run2), calls, n)
    }
    val rows = sizes.map { case (name, nDocs) =>
      val df = TextGen.docs(spark, mix, nDocs, seed = 137L + nDocs, docWords = 220)
        .localCheckpoint(true)
      val (plainMs, plainCalls, plainN) = timed(recipe.pipeline(fuse = false, reorder = false).run(df).count())
      val (fusedMs, fusedCalls, fusedN) = timed(recipe.pipeline(fuse = true, reorder = true).run(df).count())
      require(plainN == fusedN, s"fusion changed the result: $plainN vs $fusedN")
      Row(name, nDocs, plainMs, fusedMs, plainCalls, fusedCalls)
    }
    Result(rows)
  }
}
