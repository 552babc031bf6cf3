package repro.core

import org.apache.spark.sql.{DataFrame, Encoders, Row}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions.{array, col, element_at, explode, lag, lead, lit, map_filter, struct, when}
import org.apache.spark.sql.types.{IntegerType, MapType, StringType}
import scala.collection.mutable.ArrayBuffer

/** The one interpreter of row-level OPs ([[Mapper]], [[Filter]],
  * [[MetaFilter]]). The Spark pipeline, the `dist` simulator and the Fig. 8
  * baseline all run rows through [[RowStage.apply]].
  *
  * A sample is `(text, meta, stats)`. Each OP runs at most once per sample,
  * and interpretation stops at the first Filter or MetaFilter that rejects
  * it. Every Filter computes its stats and merges them into the sample's, so
  * it never decides on a value another Filter wrote under its key. All
  * Filters of a pass read one [[TextContext]] per sample (paper Sec. 7, OP
  * fusion), built at the first Filter, so a view such as the word list is
  * derived once. A Mapper that changes the text clears `stats` and drops the
  * context, so no later Filter decides on the old text. Null text reads as
  * "". How OPs are grouped into passes is [[Pipeline.fuse]]'s choice.
  */
object RowStage {

  /** Per-OP output hook: called with the OP's index in the sequence and the
    * sample's text and stats after every OP the sample passes.
    */
  trait Emit { def apply(op: Int, text: String, stats: Map[String, Double]): Unit }

  // Columns of a staged frame: the first and last stage a version of a
  // sample is valid for, and the stage at which each of its stats keys
  // first appeared. Stage 0 is the pass's input, stage k the output of
  // ops(k - 1).
  private val From  = "__dj_from"
  private val To    = "__dj_to"
  private val Added = "__dj_added"

  /** Interpret `ops` over one sample: the edited text and stats, or None if
    * the sample is rejected. The text stays null only if no Mapper ran.
    * `emit`, if given, sees the sample after each OP it passes.
    */
  def apply(ops: Seq[RowOp], text: String, meta: Map[String, String],
            stats: Map[String, Double], emit: Emit = null): Option[(String, Map[String, Double])] = {
    var t = text
    var s = stats
    var ctx: TextContext = null
    var i = 0
    val it = ops.iterator
    while (it.hasNext) {
      it.next() match {
        case m: Mapper =>
          val edited = m.mapText(if (t == null) "" else t)
          if (edited != t) { t = edited; s = Map.empty; ctx = null }
        case f: Filter =>
          if (ctx == null) ctx = new TextContext(if (t == null) "" else t)
          s = s ++ f.computeStatsRow(ctx)
          if (!f.keepRow(s)) return None
        case f: MetaFilter =>
          if (!f.keepMeta(meta)) return None
      }
      if (emit != null) emit(i, t, s)
      i += 1
    }
    Some((t, s))
  }

  /** Run `ops` over a unified dataset as one opaque pass: Spark cannot split
    * it, so Catalyst never re-evaluates an OP inside a later predicate. `id`
    * and any extra columns pass through unchanged.
    */
  def run(df: DataFrame, ops: Seq[RowOp]): DataFrame = pass(df, ops, staged = false)

  /** One pass that keeps every OP's output, each version of a sample once.
    * A version lasts while the sample's text and every stats value it holds
    * stay unchanged; a Filter that only adds stats keys extends it, a Mapper
    * that edits the text or a Filter that overwrites a value starts a new
    * one. Each version carries the stages it is valid for (stage 0 is the
    * input, stage `k` the output of `ops(k - 1)`) and the stage each stats
    * key was added at, so the sample as stage `k` left it is the version
    * valid at `k`, its stats restricted to keys added at or before `k`
    * ([[at]]). The cache writes all entries of a row run from it in one job
    * ([[CacheManager.saveRun]]) and the tracer reads each OP's effects from
    * it ([[effects]]).
    */
  def staged(df: DataFrame, ops: Seq[RowOp]): DataFrame = pass(df, ops, staged = true)

  /** The versions of a [[staged]] frame that some stage `k` or later reads. */
  def since(versions: DataFrame, k: Int): DataFrame = versions.where(col(To) >= k)

  /** The rows of a [[staged]] frame as stage `k` left them, in the schema of
    * the pass's input.
    */
  def at(versions: DataFrame, k: Int): DataFrame =
    versions.where(col(From) <= k && col(To) >= k)
      .withColumn(Schema.Stats, map_filter(col(Schema.Stats), (name, _) => element_at(col(Added), name) <= k))
      .drop(From, To, Added)

  /** Each OP's effects in a [[staged]] pass over `n` OPs, one row
    * `(op, id, before, after)` each. A sample whose last version ends at
    * stage `k < n` was removed by `ops(k)` (`after` is null). A version that
    * starts at stage `k > 0` with a text that differs (`=!=`) from the
    * previous version's is an edit by `ops(k - 1)`; one that a Filter started
    * by overwriting a stats value keeps its text and is no edit.
    */
  def effects(versions: DataFrame, n: Int): DataFrame = {
    val bySample = Window.partitionBy(Schema.Id).orderBy(From)
    val text = col(Schema.Text)
    versions.where(col(From) > 0 || col(To) < n) // not a sample one version carries through
      .select(col(Schema.Id), text, col(From), col(To),
        lag(text, 1).over(bySample) as "prev", lead(col(From), 1).over(bySample) as "next")
      .select(col(Schema.Id), explode(array(
        when(col(From) > 0 && col("prev") =!= text, struct(col(From) - 1 as "op", col("prev") as "before", text as "after")),
        when(col("next").isNull && col(To) < n, struct(col(To) as "op", text as "before", lit(null).cast("string") as "after")),
      )) as "e")
      .where(col("e").isNotNull)
      .select("e.op", Schema.Id, "e.before", "e.after")
  }

  /** True if `next` drops a key of `prev` or holds another value for it
    * (compared bit for bit, so NaN equals NaN and -0.0 differs from 0.0).
    */
  private def overwrites(prev: Map[String, Double], next: Map[String, Double]): Boolean =
    (next ne prev) && prev.exists { case (k, v) => next.get(k).forall(java.lang.Double.compare(_, v) != 0) }

  private def pass(df: DataFrame, ops: Seq[RowOp], staged: Boolean): DataFrame = {
    val schema = df.schema
    val (ti, mi, si) =
      (schema.fieldIndex(Schema.Text), schema.fieldIndex(Schema.Meta), schema.fieldIndex(Schema.Stats))
    df.mapPartitions { rows =>
      rows.flatMap { r =>
        val meta = if (r.isNullAt(mi)) Map.empty[String, String] else r.getMap[String, String](mi).toMap
        val stats = if (r.isNullAt(si)) Map.empty[String, Double] else r.getMap[String, Double](si).toMap
        def edited(t: String, s: Map[String, Double]) = r.toSeq.updated(ti, t).updated(si, s)
        if (staged) {
          val out = ArrayBuffer.empty[Row]
          var (vt, vs, from, to) = (r.getString(ti), stats, 0, 0)
          var added = stats.map { case (k, _) => k -> 0 }
          def close(): Unit = out += Row.fromSeq(edited(vt, vs) :+ from :+ to :+ added)
          apply(ops, vt, meta, stats, (i, t, s) => {
            if (t != vt || overwrites(vs, s)) {
              close()
              vt = t; vs = s; from = i + 1; added = s.map { case (k, _) => k -> (i + 1) }
            } else if (s ne vs) {
              added ++= s.keysIterator.filterNot(vs.contains).map(_ -> (i + 1))
              vs = s
            }
            to = i + 1
          })
          close()
          out
        } else apply(ops, r.getString(ti), meta, stats).map { case (t, s) => Row.fromSeq(edited(t, s)) }
      }
    }(Encoders.row(if (!staged) schema else schema.add(From, IntegerType, nullable = false)
      .add(To, IntegerType, nullable = false).add(Added, MapType(StringType, IntegerType, valueContainsNull = false), nullable = false)))
  }
}
