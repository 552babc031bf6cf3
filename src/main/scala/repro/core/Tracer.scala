package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import scala.collection.mutable.ArrayBuffer

/** Sample-level change tracking across OPs (paper Sec. 5.2): after each OP
  * the Tracer records what changed — discarded samples for Filters, pre/post
  * editing differences for Mappers, removed members of duplicate clusters for
  * Deduplicators — so users can visually audit every OP's effect.
  *
  * Tracing is opt-in on the [[Pipeline]] and does not change its plan. The
  * pipeline reads a step's effects from the step's own materialized pass
  * ([[RowStage.effects]] for a row run, an anti-join of input and output for
  * a Deduplicator) and the Tracer reduces them in one Spark action per step:
  * per-OP counts, and as samples the `maxSamples` smallest ids of each OP.
  */
final class Tracer(val maxSamples: Int = 5) extends Serializable {

  private val buf = ArrayBuffer.empty[Tracer.Trace]
  def traces: Seq[Tracer.Trace] = buf.toSeq
  def clear(): Unit = buf.clear()

  /** Record the effects of one step's `ops`, one row `(op, id, before,
    * after)` per removed or edited sample, `op` being an index into `ops`.
    * The samples are ranked in a projection of their own, so Spark trims
    * each OP's rows to `maxSamples` before the shuffle.
    */
  def record(ops: Seq[Op], effects: DataFrame): Unit = {
    val counts = effects.groupBy("op").count()
      .select(col("op"), lit(null).cast("long"), lit(null).cast("string"), lit(null).cast("string"), col("count"))
    val samples = effects.withColumn("rank", row_number().over(Window.partitionBy("op").orderBy(Schema.Id)))
      .where(col("rank") <= maxSamples).drop("rank").withColumn("count", lit(null).cast("long"))
    val (n, picked) = counts.union(samples).collect().partition(!_.isNullAt(4))
    ops.zipWithIndex.foreach { case (op, i) =>
      val mine = picked.filter(_.getInt(0) == i).sortBy(_.getLong(1))
      buf += Tracer.Trace(op.name, op.category, n.find(_.getInt(0) == i).fold(0L)(_.getLong(4)),
        mine.map(r => (r.getLong(1), r.getString(2), Option(r.getString(3)))).toSeq)
    }
  }

  /** Human-readable audit report, one block per OP. */
  def report: String =
    traces.map { t =>
      val head = s"[${t.kind}] ${t.op}: ${t.removedOrChanged} samples ${if (t.kind == OpCategory.Mapper) "edited" else "removed"}"
      val body = t.samples.map {
        case (id, pre, Some(post)) => s"  #$id: ${pre.take(60)} => ${post.take(60)}"
        case (id, pre, None)       => s"  #$id: ${pre.take(80)}"
      }
      (head +: body).mkString("\n")
    }.mkString("\n")
}

object Tracer {
  /** One OP's recorded effect. `before`/`after` are sample texts; `after` is
    * None for removals.
    */
  final case class Trace(
      op: String,
      kind: OpCategory,
      removedOrChanged: Long,
      samples: Seq[(Long, String, Option[String])],
  )
}
