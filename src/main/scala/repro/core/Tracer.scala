package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import scala.collection.mutable.ArrayBuffer

/** Sample-level change tracking across OPs (paper Sec. 5.2): after each OP
  * the Tracer records what changed — discarded samples for Filters, pre/post
  * editing differences for Mappers, removed members of duplicate clusters for
  * Deduplicators — so users can visually audit every OP's effect.
  *
  * Tracing runs extra Spark actions per OP; it is opt-in on the [[Pipeline]].
  */
final class Tracer(val maxSamples: Int = 5) extends Serializable {

  /** One OP's recorded effect. `before`/`after` are sample texts; `after` is
    * None for removals.
    */
  final case class Trace(
      op: String,
      kind: String, // "mapper" | "filter" | "deduplicator" | "other"
      removedOrChanged: Long,
      samples: Seq[(Long, String, Option[String])],
  )

  private val buf = ArrayBuffer.empty[Trace]
  def traces: Seq[Trace] = buf.toSeq
  def clear(): Unit = buf.clear()

  def record(op: Op, before: DataFrame, after: DataFrame): Unit = op match {
    case _: Mapper =>
      val pre  = before.select(col(Schema.Id), col(Schema.Text) as "__pre")
      val post = after.select(col(Schema.Id), col(Schema.Text) as "__post")
      val diff = pre.join(post, Schema.Id).filter(col("__pre") =!= col("__post"))
      val n    = diff.count()
      val rows = diff.limit(maxSamples).collect()
        .map(r => (r.getLong(0), r.getString(1), Option(r.getString(2))))
      buf += Trace(op.name, "mapper", n, rows.toSeq)
    case _: Filter | _: MetaFilter | _: Deduplicator =>
      val dropped = before.join(after.select(Schema.Id), Seq(Schema.Id), "left_anti")
      val n       = dropped.count()
      val rows    = dropped.select(col(Schema.Id), col(Schema.Text)).limit(maxSamples).collect()
        .map(r => (r.getLong(0), r.getString(1), Option.empty[String]))
      buf += Trace(op.name, if (op.isInstanceOf[Deduplicator]) "deduplicator" else "filter", n, rows.toSeq)
    case _ =>
      buf += Trace(op.name, "other", 0L, Nil)
  }

  /** Human-readable audit report, one block per OP. */
  def report: String =
    traces.map { t =>
      val head = s"[${t.kind}] ${t.op}: ${t.removedOrChanged} samples ${if (t.kind == "mapper") "edited" else "removed"}"
      val body = t.samples.map {
        case (id, pre, Some(post)) => s"  #$id: ${pre.take(60)} => ${post.take(60)}"
        case (id, pre, None)       => s"  #$id: ${pre.take(80)}"
      }
      (head +: body).mkString("\n")
    }.mkString("\n")
}
