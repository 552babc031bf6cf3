package repro.core

import org.apache.spark.sql.{Column, DataFrame, functions => F}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions.col

/** Base classes of the standardized OP pool (paper Sec. 4 and Listing 1).
  *
  * Four categories, mirroring Table 1 of the paper:
  *  - [[Formatter]]     dataset-level load/unification into [[Schema]];
  *  - [[Mapper]]        single-sample in-place text editing;
  *  - [[Filter]]        conditional sample removal with the stats computation
  *                      (`computeStatsRow`) decoupled from the boolean decision
  *                      (`keepRow`) — the decoupling the paper highlights so
  *                      the Analyzer can reuse full-dataset statistics; a
  *                      [[StatFilter]] is the one-stat case;
  *  - [[Deduplicator]]  dataset-level duplicate removal, with fingerprinting
  *                      (`computeHash`) decoupled from removal (`process`).
  *
  * Each OP's [[OpCategory]] is fixed by the base class it extends.
  * Mappers, Filters and MetaFilters are [[RowOp]]s: they expose row-level
  * pure functions, which [[RowStage]] interprets for the Spark pipeline and
  * the distributed-runtime simulator (`repro.dist`) alike.
  */
sealed trait Op extends Serializable {
  /** snake_case registry name, e.g. `text_length_filter`. */
  def name: String

  /** Which of the four OP categories this OP belongs to. */
  def category: OpCategory

  /** Stable signature for cache keys: registry name + constructor params.
    * All OPs are case classes, whose `toString` includes every parameter.
    */
  def signature: String = toString

  /** Apply this OP to a unified dataset. */
  def apply(df: DataFrame): DataFrame
}

/** Dataset-level loader/unifier; implementations in [[Formatters]]. */
trait Formatter extends Op {
  final def category: OpCategory = OpCategory.Formatter
  def load(spark: org.apache.spark.sql.SparkSession): DataFrame
  /** Formatters are sources; applying one to an existing df unifies it. */
  override def apply(df: DataFrame): DataFrame = Schema.ensure(df)
}

/** A row-level OP: it reads one sample at a time and never sees the rest
  * of the dataset. [[RowStage]] is the only interpreter of these OPs; on a
  * DataFrame, one OP runs as a one-OP [[RowStage]] pass.
  */
sealed trait RowOp extends Op {
  override def apply(df: DataFrame): DataFrame = RowStage.run(df, Seq(this))
}

/** Single-sample in-place text editing (paper: "Mappers"). */
trait Mapper extends RowOp {
  final def category: OpCategory = OpCategory.Mapper
  /** Row-level edit; must accept any string including empty. */
  def mapText(text: String): String
}

/** Conditional sample removal (paper: "Filters", Listing 1).
  *
  * `computeStatsRow` fills the sample's `stats` entries and `keepRow`
  * decides on them. [[RowStage]] computes them for every sample a Filter
  * sees, even one that already holds its keys, so a Filter decides on its
  * own values. The split lets the Analyzer run the stats without filtering
  * ([[Analyzer.computeStats]]).
  */
trait Filter extends RowOp {
  final def category: OpCategory = OpCategory.Filter

  /** Keys this filter writes into the `stats` map. */
  def statsKeys: Seq[String]

  /** Shareable contexts consumed; they set the default [[cost]]. */
  def contexts: Set[ContextKey.Value]

  /** Relative cost hint for reordering: 0 = trivial char math, 1 = needs
    * tokenization/lines, 2 = model-backed. (paper: delay expensive OPs)
    */
  def cost: Int = if (contexts.isEmpty) 0 else 1

  /** Row-level stats over a shared context. */
  def computeStatsRow(ctx: TextContext): Map[String, Double]

  /** Row-level decision over this filter's stats entries. */
  def keepRow(stats: Map[String, Double]): Boolean
}

/** A [[Filter]] over one stats value: it writes `stat` under `key` and keeps
  * a sample whose value lies in the closed range `[lo, hi]`, so the key and
  * the keep rule are stated once. An omitted bound is open (±Infinity); NaN
  * is never kept.
  */
abstract class StatFilter(key: String, val contexts: Set[ContextKey.Value],
                          lo: Double = Double.NegativeInfinity, hi: Double = Double.PositiveInfinity) extends Filter {
  final val statsKeys: Seq[String] = Seq(key)

  /** The sample's value of this filter's stats key. */
  def stat(ctx: TextContext): Double

  final def computeStatsRow(ctx: TextContext): Map[String, Double] = Map(key -> stat(ctx))
  final def keepRow(stats: Map[String, Double]): Boolean = { val v = stats(key); v >= lo && v <= hi }
}

/** Filters whose decision depends on `meta`, not text stats (e.g. language
  * tags, GitHub star counts). They take part in reordering as cost-0 OPs
  * ([[OpFusion.plan]]).
  */
trait MetaFilter extends RowOp {
  final def category: OpCategory = OpCategory.Filter
  def keepMeta(meta: Map[String, String]): Boolean
}

/** Dataset-level duplicate removal (paper: "Deduplicators", Listing 1). */
trait Deduplicator extends Op {
  final def category: OpCategory = OpCategory.Deduplicator

  /** Internal column the fingerprint is written to. */
  protected val HashCol = "__dj_hash"

  /** Add the fingerprint/signature column(s). */
  def computeHash(df: DataFrame): DataFrame

  /** Remove duplicates given fingerprints; must keep the smallest `id` of
    * each duplicate group so results are deterministic.
    */
  def process(df: DataFrame): DataFrame

  override def apply(df: DataFrame): DataFrame =
    process(computeHash(df)).select(df.columns.map(col).toSeq: _*)
}

/** The four OP categories of the paper's Table 1; `toString` is the
  * category's lowercase name, as recipes and reports print it.
  */
sealed abstract class OpCategory(override val toString: String) extends Serializable
object OpCategory {
  case object Formatter extends OpCategory("formatter")
  case object Mapper extends OpCategory("mapper")
  case object Filter extends OpCategory("filter")
  case object Deduplicator extends OpCategory("deduplicator")
}

/** Utilities shared by OP implementations. */
private[core] object OpUtil {
  /** Deterministic keep-first: one row per `groupCol` value, the one with the
    * minimal `id`, ties broken by the minimal `tieBreak` columns in order
    * (stable across runs for a fixed input).
    */
  def keepFirstBy(df: DataFrame, groupCol: String, tieBreak: Column*): DataFrame = {
    val w = Window.partitionBy(col(groupCol)).orderBy(col(Schema.Id) +: tieBreak: _*)
    df.withColumn("__dj_rn", F.row_number().over(w))
      .filter(col("__dj_rn") === 1)
      .drop("__dj_rn")
  }

  /** The LSH skeleton of the near-duplicate Deduplicators over signatures in
    * `hashCol`: `bucketKeys(sig)` cuts a signature into its array of band
    * keys once, the signature goes into one bucket per band (its position in
    * that array) and key, each member of a bucket pairs with the bucket's
    * minimum id (star pairs are linear in bucket size, so no bucket is
    * dropped), a pair whose signatures are `similar` is an edge, and each
    * connected component keeps its minimum id. The verified edges are
    * collected once and clustered on the driver by [[ConnectedComponents]]:
    * a row pairs with at most one minimum per band, so the driver holds at
    * most one edge per band, two longs each, per input row. The dropped ids
    * go back as a broadcast anti-join. The input is materialized once, since
    * it is read twice (signatures, then the kept rows): otherwise every
    * upstream OP runs twice per row.
    */
  def lsh(df: DataFrame, hashCol: String,
          bucketKeys: Column => Column, similar: (Column, Column) => Column): DataFrame = {
    val staged = df.localCheckpoint(true)
    val sigs = staged.select(col(Schema.Id), col(hashCol).as("sig"))
    val candidates = sigs
      .select(col(Schema.Id), F.posexplode(bucketKeys(col("sig"))).as(Seq("band", "bkey")))
      .select(F.min(col(Schema.Id)).over(Window.partitionBy("band", "bkey")) as "src", col(Schema.Id) as "dst")
      .filter(col("src") =!= col("dst"))
      .distinct()
    val verified = candidates
      .join(sigs.withColumnRenamed(Schema.Id, "src").withColumnRenamed("sig", "sigA"), "src")
      .join(sigs.withColumnRenamed(Schema.Id, "dst").withColumnRenamed("sig", "sigB"), "dst")
      .filter(similar(col("sigA"), col("sigB")))
      .select("src", "dst")
      .collect().map(r => r.getLong(0) -> r.getLong(1))
    val dropped = ConnectedComponents.run(verified).collect { case (id, comp) if id != comp => id }
    val session = df.sparkSession
    import session.implicits._
    staged.drop(hashCol).join(F.broadcast(dropped.toSeq.toDF(Schema.Id)), Seq(Schema.Id), "left_anti")
  }
}
