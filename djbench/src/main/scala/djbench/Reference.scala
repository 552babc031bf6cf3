package djbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.core._

/** One sample as the reference interpreter sees it. */
final case class Row(id: Long, text: String, meta: Map[String, String], stats: Map[String, Double])

/** Single-threaded, in-process reference interpreter of a recipe. It uses
  * only the public row functions of the OPs: `mapText`, `computeStatsRow` on
  * a fresh `TextContext` of the current text, `keepRow`, `keepMeta`, and
  * keep-min-id on `Hashing.contentHash` for exact dedup. It runs the OPs in
  * recipe order, without fusion or reordering, so it shares no plan with the
  * program under test.
  */
object Reference {

  /** Result of interpreting a recipe: the output rows, the rows that
    * entered the first Deduplicator (`None` if the recipe has none), and
    * whether every OP was interpreted.
    */
  final case class Result(rows: Vector[Row], dedupInput: Option[Vector[Row]], complete: Boolean = true) {
    /** Interpret further OPs on these rows (recipes sharing a prefix). */
    def andThen(ops: Seq[Op]): Result = {
      require(complete || ops.isEmpty, "cannot continue past a near-duplicate Deduplicator")
      val r = run(ops, rows)
      r.copy(dedupInput = dedupInput.orElse(r.dedupInput))
    }
  }

  /** Interpret `ops` over `input`. A near-duplicate Deduplicator has no row
    * function, so interpretation stops before it: `rows` are then the rows it
    * receives, and only its kept subset is checked.
    */
  def run(ops: Seq[Op], input: Vector[Row]): Result = {
    var rows = input
    var dedupInput: Option[Vector[Row]] = None
    val it = ops.iterator
    var stop = false
    while (!stop && it.hasNext) it.next() match {
      case m: Mapper =>
        rows = rows.map(r => r.copy(text = m.mapText(r.text)))
      case f: Filter =>
        rows = rows.flatMap { r =>
          val stats = r.stats ++ f.computeStatsRow(new TextContext(r.text))
          if (f.keepRow(stats)) Some(r.copy(stats = stats)) else None
        }
      case f: MetaFilter =>
        rows = rows.filter(r => f.keepMeta(r.meta))
      case _: Deduplicators.ExactDocDeduplicator =>
        if (dedupInput.isEmpty) dedupInput = Some(rows)
        val keep = rows.groupBy(r => Hashing.contentHash(r.text)).values.map(_.minBy(_.id).id).toSet
        rows = rows.filter(r => keep(r.id))
      case _: Deduplicator =>
        if (dedupInput.isEmpty) dedupInput = Some(rows)
        stop = true
      case other => sys.error(s"reference cannot interpret ${other.name}")
    }
    Result(rows, dedupInput, complete = !stop)
  }

  /** The unified frame collected into this JVM, ordered by id. */
  def collect(df: DataFrame): Vector[Row] =
    df.select(Schema.Id, Schema.Text, Schema.Meta, Schema.Stats).collect().iterator.map { r =>
      Row(r.getLong(0), r.getString(1), r.getMap[String, String](2).toMap, r.getMap[String, Double](3).toMap)
    }.toVector.sortBy(_.id)

  def frame(spark: SparkSession, rows: Seq[Row]): DataFrame = {
    import spark.implicits._
    rows.map(r => (r.id, r.text, r.stats)).toDF(Schema.Id, Schema.Text, Schema.Stats)
  }

  /** Order-independent digest of a dataset: row count and the XOR of a
    * 64-bit hash of `(id, text, sorted stats entries)` per row. Spark 4
    * cannot hash MAP columns, so the sorted `map_entries` are hashed; `sum`
    * of 64-bit hashes overflows under ANSI mode, so they are XOR-ed.
    */
  def digest(df: DataFrame): (Long, Long) = {
    val h = xxhash64(col(Schema.Id), col(Schema.Text), array_sort(map_entries(col(Schema.Stats))))
    val r = df.agg(count(lit(1)), coalesce(bit_xor(h), lit(0L))).head()
    (r.getLong(0), r.getLong(1))
  }

  /** Per-metric (count, min, max) of the Analyzer's default dimensions over
    * `rows`, computed row by row as `Analyzer.computeStats` defines them.
    */
  def summary(rows: Seq[Row]): Map[String, (Long, Double, Double)] = {
    val dims = Analyzer.defaultDims
    val all = rows.flatMap { r =>
      dims.foldLeft(r.stats)((s, d) => s ++ d.computeStatsRow(new TextContext(r.text)))
    }
    all.groupBy(_._1).map { case (k, kvs) =>
      val vs = kvs.map(_._2)
      k -> (vs.size.toLong, vs.min, vs.max)
    }
  }
}
