package repro.exp

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.corpus.TextGen
import repro.dist.DistExecutor
import repro.dist.DistExecutor.{BeamLikeExecutor, RayLikeExecutor}

/** Scalability across nodes (paper Sec. 8.2.3 / Fig. 10): the same OP
  * pipeline on the Ray-like executor (shard-parallel load + process) versus
  * the Beam-like executor (serialized source read), over 1–8 simulated
  * nodes. The paper's measured shape: Ray scales near-linearly; Beam stays
  * nearly flat because file loading dominates.
  */
object ScalabilityExperiment {

  final case class Row(executor: String, nodes: Int, totalMs: Long, loadMs: Long, processMs: Long)

  final case class Result(rows: Seq[Row], nDocs: Int) {
    def table: String = TableFmt.render(
      s"Fig. 10 analog — scaling the pipeline over simulated nodes ($nDocs docs)",
      Seq("Executor", "Nodes", "Total ms", "Load ms", "Process ms"),
      rows.map(r => Seq(r.executor, r.nodes.toString, r.totalMs.toString,
        r.loadMs.toString, r.processMs.toString)))

    def speedup(executor: String, from: Int, to: Int): Double = {
      val t = rows.filter(_.executor == executor).map(r => r.nodes -> r.totalMs).toMap
      t(from).toDouble / math.max(1L, t(to))
    }
  }

  /** The StackExchange-like workload: mappers + filters + exact dedup. */
  private def ops: Seq[Op] = Seq(
    Mappers.RemoveHtmlTagsMapper(), Mappers.RemoveLinksMapper(), Mappers.WhitespaceNormalizationMapper(),
    Filters.WordCountFilter(minWords = 15), Filters.StopwordRatioFilter(0.1),
    Filters.WordRepetitionFilter(5, 0.3), Deduplicators.ExactDocDeduplicator(),
  )

  def run(@scala.annotation.unused spark: SparkSession, nDocs: Int = 4000, nodeCounts: Seq[Int] = Seq(1, 2, 4, 8)): Result = {
    // Materialize the serialized dataset once on the driver (the "NAS files").
    val r = new java.util.Random(5150L)
    val docs = (0 until nDocs).map { i =>
      val kind = Seq("clean", "html", "boilerplate", "gibberish", "repeat")(r.nextInt(5))
      DistExecutor.Doc(i.toLong, TextGen.genDoc(kind, 5150L + i, 220, r), Map("i" -> i.toString))
    }
    val lines = DistExecutor.serialize(docs)

    // Warm-up JIT so the 1-node run is not penalized, then measure each
    // configuration as the min of two runs (steady state — single runs on a
    // long-lived JVM are too noisy to compare).
    RayLikeExecutor.run(lines, ops, 2)
    val expected = RayLikeExecutor.run(lines, ops, 2).output.map(_.id).toSet
    def steady(run: => DistExecutor.RunResult, label: String): DistExecutor.RunResult = {
      val a = run; val b = run
      require(a.output.map(_.id).toSet == expected, s"$label output mismatch")
      if (a.totalMillis <= b.totalMillis) a else b
    }
    val rows = nodeCounts.flatMap { n =>
      val ray  = steady(RayLikeExecutor.run(lines, ops, n), s"ray@$n")
      val beam = steady(BeamLikeExecutor.run(lines, ops, n), s"beam@$n")
      Seq(
        Row("Data-Juicer on Ray (sim)", n, ray.totalMillis, ray.loadMillis, ray.processMillis),
        Row("Data-Juicer on Beam (sim)", n, beam.totalMillis, beam.loadMillis, beam.processMillis),
      )
    }
    Result(rows, nDocs)
  }
}
