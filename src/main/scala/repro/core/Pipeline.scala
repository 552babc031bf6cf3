package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit}

/** The end-to-end data processing executor (paper Fig. 1, yellow box): takes
  * a unified dataset through an OP chain, with OP fusion (`fuse`, paper
  * Sec. 7), Filter reordering (`reorder`, [[OpFusion]]), sample-level
  * tracing ([[Tracer]]), and per-OP cache/checkpoint persistence
  * ([[CacheManager]]) with hash-chain resume.
  *
  * `fuse` only sets pass boundaries: on, each maximal run of planned row OPs
  * between Deduplicators is one [[RowStage]] pass, whose Filters share one
  * [[TextContext]] per sample; off, each planned OP is its own pass, as in
  * unfused Data-Juicer. It changes how rows are computed, not what is
  * planned or output, so cache keys do not depend on it.
  */
final case class Pipeline(
    ops: Seq[Op],
    fuse: Boolean = true,
    reorder: Boolean = false,
    tracer: Option[Tracer] = None,
    cache: Option[CacheManager] = None,
    /** Identity of the input dataset for cache keying; same id + same recipe
      * prefix ⇒ resumable.
      */
    inputId: String = "input",
) {
  // A Formatter is a source: in the OP list it would only re-unify the
  // dataset and silently ignore its own parameters (e.g. `path`).
  for (f <- ops.collectFirst { case f: Formatter => f.name })
    throw new IllegalArgumentException(s"formatter '$f' cannot run inside a pipeline; load the input with it instead")

  /** The OP list actually executed, after reordering. */
  lazy val planned: Seq[Op] = OpFusion.plan(ops, reorder)

  /** Run the pipeline, one step per pass ([[steps]]), traced or not. With a
    * cache manager the longest already-cached prefix of the planned chain is
    * loaded instead of recomputed. In cache mode a row run's pass keeps each
    * version of every row and [[CacheManager.saveRun]] writes all of the
    * run's entries in one job; when a cold run starts with a row run, the
    * input's entry is the stage 0 of that write rather than a copy of its
    * own. In checkpoint mode, which keeps only the latest entry, the pass
    * saves its output alone. Under a tracer each step materializes its
    * output once (a row run: its versions) and the tracer reads the step's
    * effects from it, so no OP runs again to be traced.
    */
  def run(input: DataFrame): DataFrame = {
    val df0 = Schema.ensure(input)
    // Hash chain over OP signatures: keys(i) names the output of planned(i - 1),
    // keys(0) the input.
    val keys = cache.fold(Seq.empty[String])(cm =>
      planned.scanLeft(cm.inputKey(inputId))((k, op) => cm.chainKey(k, op)))
    val cacheMode = cache.exists(_.mode == CacheManager.ModeCache)
    val (start, resumed) = cache match {
      case Some(cm) => keys.lastIndexWhere(cm.has) match {
        // Persist the unified input itself (the paper's "one cache data file
        // for the original dataset"), unless the first row run writes it.
        case -1 if cacheMode && planned.headOption.exists(_.isInstanceOf[RowOp]) => (0, df0)
        case -1  => (0, cm.save(df0, keys.head, None))
        case hit => (hit, cm.load(keys(hit)))
      }
      case None => (0, df0)
    }
    steps(planned.drop(start)).foldLeft((start, resumed)) { case ((i, df), step) =>
      val next = i + step.size
      val rowOps = step.collect { case r: RowOp => r }
      val savesRun = cacheMode && rowOps.nonEmpty
      val out =
        if (rowOps.isEmpty) tracer.fold(step.head(df)) { t =>
          val kept = step.head(df).localCheckpoint()
          t.record(step, df.join(kept.select(Schema.Id), Seq(Schema.Id), "left_anti")
            .select(lit(0) as "op", col(Schema.Id), col(Schema.Text) as "before", lit(null).cast("string") as "after"))
          kept
        }
        else if (savesRun || tracer.isDefined) {
          val staged = RowStage.staged(df, rowOps)
          val versions = if (tracer.isDefined) staged.localCheckpoint() else staged
          tracer.foreach(_.record(step, RowStage.effects(versions, step.size)))
          if (savesRun) cache.get.saveRun(versions, keys.slice(i, next + 1)) else RowStage.at(versions, step.size)
        } else RowStage.run(df, rowOps)
      // The original dataset's cache (keys.head) is never evicted — the
      // checkpoint-mode peak is original + previous + in-flight = 3×S.
      (next, if (savesRun) out else cache.fold(out)(_.save(out, keys(next), Some(keys(i)).filter(_ != keys.head))))
    }._2
  }

  /** Split `ops` into the passes [[run]] executes: each Deduplicator alone,
    * and with `fuse` each maximal run of row-level OPs together, without it
    * each row-level OP alone.
    */
  private def steps(ops: Seq[Op]): Seq[Seq[Op]] =
    ops.foldLeft(Vector.empty[Vector[Op]]) {
      case (init :+ last, op: RowOp) if fuse && last.forall(_.isInstanceOf[RowOp]) => init :+ (last :+ op)
      case (acc, op) => acc :+ Vector(op)
    }
}

object Pipeline {
  /** Convenience: run an OP list fused, without reordering or persistence. */
  def run(df: DataFrame, ops: Seq[Op]): DataFrame = Pipeline(ops).run(df)
}
