package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Unified intermediate sample representation (paper Sec. 4.1).
  *
  * Every dataset flowing through a [[Pipeline]] is a DataFrame with:
  *
  *  - `id`    : LongType — a stable sample identifier assigned at load time,
  *              used by deduplicators (deterministic keep-first) and the Tracer;
  *  - `text`  : StringType — the raw textual payload every OP operates on;
  *  - `meta`  : MapType(String, String) — metadata (language, source, tags, …)
  *              consumed by meta-based Filters and the Sampler;
  *  - `stats` : MapType(String, Double) — per-sample statistics produced by
  *              `Filter.computeStatsRow` and consumed by `Filter.keepRow`, the
  *              Analyzer and the Sampler (paper's stats/processing decoupling).
  *
  * The representation is deliberately flat-by-column and nested-by-map: it is
  * independent of the on-disk layout (Formatters normalize into it) and lets
  * OPs target arbitrary "fields" via map keys, mirroring the paper's
  * "text"/"meta"/"stats" parts with nested access.
  */
object Schema {
  val Id    = "id"
  val Text  = "text"
  val Meta  = "meta"
  val Stats = "stats"

  val MetaType: DataType  = MapType(StringType, StringType, valueContainsNull = false)
  val StatsType: DataType = MapType(StringType, DoubleType, valueContainsNull = false)

  /** Columns every unified dataset must carry, in canonical order. */
  val columns: Seq[String] = Seq(Id, Text, Meta, Stats)

  def emptyMeta: Column  = map().cast(MetaType)
  def emptyStats: Column = map().cast(StatsType)

  /** Ensure the unified columns exist, adding empty/derived ones as needed.
    * Existing `text` content is preserved; a missing `id` is assigned from a
    * partition-stable monotonic id (deterministic for a fixed input layout).
    */
  def ensure(df: DataFrame): DataFrame = {
    var out = df
    require(out.columns.contains(Text), s"unified dataset requires a '$Text' column; got ${df.columns.mkString(",")}")
    if (!out.columns.contains(Id))    out = out.withColumn(Id, monotonically_increasing_id())
    if (!out.columns.contains(Meta))  out = out.withColumn(Meta, emptyMeta)
    if (!out.columns.contains(Stats)) out = out.withColumn(Stats, emptyStats)
    out.select(columns.map(col) ++ df.columns.filterNot(columns.contains).map(col): _*)
  }
}
