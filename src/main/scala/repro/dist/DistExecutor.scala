package repro.dist

import java.util.concurrent.{Callable, Executors, TimeUnit}
import scala.jdk.CollectionConverters._
import repro.core._

/** Distributed-runtime simulator (paper Sec. 7 "Optimized Scalability" and
  * Fig. 10). The paper runs the same OP pipeline on Ray and on Beam/Flink
  * across 1–16 servers; we simulate a cluster with a worker-thread pool per
  * "node" over sharded input, executing the *row-level* forms of exactly the
  * same OP objects the Spark pipeline runs, through the same row function.
  *
  * Two executors reproduce the two scaling behaviours the paper reports:
  *  - [[RayLikeExecutor]]: loading AND processing are shard-parallel across
  *    nodes → near-linear scaling;
  *  - [[BeamLikeExecutor]]: the source/Read stage is serialized at a single
  *    coordinator (the paper's diagnosis: "limited scalability … primarily
  *    constrained by the data loading component of Beam, which leads to a
  *    dominant file loading time ratio"), only processing scales.
  *
  * Supported OPs: Mappers, Filters, MetaFilters row-locally; exact-hash
  * deduplication via a global merge after the parallel phase (the shuffle
  * analog); any other Deduplicator is rejected. That is the OP mix of the
  * paper's scalability recipes.
  */
object DistExecutor {

  /** A simulated input line: serialized sample that must be parsed. */
  final case class Doc(id: Long, text: String, meta: Map[String, String])

  /** Serialize docs into jsonl-ish lines (the stored dataset). */
  def serialize(docs: Seq[Doc]): Vector[String] =
    docs.map(d => s"${d.id}${d.meta.map { case (k, v) => s"$k=$v" }.mkString("")}${d.text.replace("\n", "\\n")}").toVector

  /** Parse one stored line back into a Doc — does the real work a source connector
    * does (field splitting, meta reconstruction, escape handling, unicode
    * normalization) so the load stage has genuine cost — in the paper this
    * stage dominated Beam's runtime at 65-140GB scale.
    */
  def parse(line: String): Doc = {
    val parts = line.split("", 3)
    val meta = parts(1).split("").filter(_.nonEmpty).map { kv =>
      val i = kv.indexOf('='); kv.substring(0, i) -> kv.substring(i + 1)
    }.toMap
    val text = java.text.Normalizer.normalize(parts(2).replace("\\n", "\n"),
      java.text.Normalizer.Form.NFC)
    Doc(parts(0).toLong, text, meta)
  }

  /** The row-level OPs of `ops` over `docs`, through the shared row
    * function ([[RowStage]]), all in one pass per doc, as a fused
    * [[Pipeline]] runs them; Deduplicators are left to [[dedupGlobal]].
    */
  def processRows(docs: Seq[Doc], ops: Seq[Op]): Seq[Doc] = {
    val rowOps = ops.collect { case r: RowOp => r }
    docs.flatMap(d => RowStage(rowOps, d.text, d.meta, Map.empty).map { case (t, _) => d.copy(text = t) })
  }

  /** Global exact-dedup resolution, keep-first by id (the shuffle analog);
    * the identity if `ops` holds no Deduplicator. Exact dedup is the only
    * Deduplicator simulated: any other one is an error, not a silent
    * exact dedup.
    */
  def dedupGlobal(docs: Seq[Doc], ops: Seq[Op]): Seq[Doc] =
    if (!exactDedup(ops)) docs
    else docs.sortBy(_.id).foldLeft((Set.empty[Long], Vector.empty[Doc])) {
      case ((seen, acc), d) =>
        val h = Hashing.contentHash(d.text)
        if (seen(h)) (seen, acc) else (seen + h, acc :+ d)
    }._2

  /** Whether `ops` holds a Deduplicator; each one must be exact dedup. */
  private def exactDedup(ops: Seq[Op]): Boolean =
    ops.collect { case d: Deduplicator =>
      require(d.isInstanceOf[Deduplicators.ExactDocDeduplicator],
        s"the dist executors simulate only exact_doc_deduplicator, not '${d.name}'")
    }.nonEmpty

  private def shard[T](xs: Vector[T], n: Int): Seq[Vector[T]] = {
    val size = math.max(1, (xs.size + n - 1) / n)
    xs.grouped(size).toSeq
  }

  final case class RunResult(output: Seq[Doc], loadMillis: Long, processMillis: Long) {
    def totalMillis: Long = loadMillis + processMillis
  }

  private def timed[T](body: => T): (T, Long) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1000000L)
  }

  /** Parse `lines` (shard-parallel on the pool if `parallelLoad`, else at
    * the coordinator), then process the shards on the `nodes` workers.
    */
  private def run(lines: Vector[String], ops: Seq[Op], nodes: Int, parallelLoad: Boolean): RunResult = {
    exactDedup(ops) // reject an unsupported Deduplicator before any work
    val pool = Executors.newFixedThreadPool(nodes)
    def onPool[A, B](shards: Seq[A])(f: A => B): Seq[B] =
      pool.invokeAll(shards.map(s => new Callable[B] { def call(): B = f(s) }).asJava).asScala.map(_.get()).toSeq
    try {
      val (shards, loadMs) = timed {
        if (parallelLoad) onPool(shard(lines, nodes))(_.map(parse)) else shard(lines.map(parse), nodes)
      }
      val (processed, procMs) = timed { dedupGlobal(onPool(shards)(processRows(_, ops)).flatten, ops) }
      RunResult(processed, loadMs, procMs)
    } finally { pool.shutdown(); pool.awaitTermination(60, TimeUnit.SECONDS) }
  }

  /** Ray-like: shard-parallel load and process across `nodes` workers. */
  object RayLikeExecutor {
    def run(lines: Vector[String], ops: Seq[Op], nodes: Int): RunResult =
      DistExecutor.run(lines, ops, nodes, parallelLoad = true)
  }

  /** Beam-like: the source read is serialized at the coordinator; only the
    * process stage uses the `nodes` workers.
    */
  object BeamLikeExecutor {
    def run(lines: Vector[String], ops: Seq[Op], nodes: Int): RunResult =
      DistExecutor.run(lines, ops, nodes, parallelLoad = false)
  }
}
