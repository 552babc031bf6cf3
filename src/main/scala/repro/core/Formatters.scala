package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{StringType, StructField, StructType}

/** The Formatter pool: load heterogeneous sources and unify them into the
  * [[Schema]] representation (paper Sec. 4.1). Each formatter normalizes a
  * source-specific layout into `(id, text, meta, stats)`; downstream OPs
  * never see the original layout.
  */
object Formatters {

  /** Pack the named source columns into the `meta` map as strings. */
  private def packMeta(df: DataFrame, metaFields: Seq[String]): DataFrame = {
    val present = metaFields.filter(df.columns.contains)
    val entries = present.flatMap(f => Seq(lit(f), col(f).cast("string")))
    val out =
      if (entries.isEmpty) df.withColumn(Schema.Meta, Schema.emptyMeta)
      else df.withColumn(Schema.Meta, map(entries: _*))
    out.drop(present: _*)
  }

  /** Unify an in-memory DataFrame: `textField` (dot-free column name) becomes
    * `text`, `metaFields` are packed into `meta`, everything else is dropped.
    * This is the "data unification" entry point every other formatter funnels
    * through — and what recipe mixing uses for already-loaded frames.
    */
  final case class InMemoryFormatter(
      df: DataFrame,
      textField: String = Schema.Text,
      metaFields: Seq[String] = Nil,
  ) extends Formatter {
    val name = "in_memory_formatter"
    override def signature: String = s"InMemoryFormatter($textField,$metaFields)"
    def load(spark: SparkSession): DataFrame = {
      require(df.columns.contains(textField), s"missing text field '$textField' in ${df.columns.mkString(",")}")
      val renamed = if (textField == Schema.Text) df else df.withColumnRenamed(textField, Schema.Text)
      Schema.ensure(packMeta(renamed.select((Schema.Text +: metaFields.filter(renamed.columns.contains)).map(col): _*), metaFields))
    }
  }

  /** JSON-lines loader: one JSON object per line; `textKey` holds the text,
    * `metaKeys` are lifted into `meta`. It reads only the declared keys, each
    * as a string, so no Spark job infers a schema: a string value reads as
    * itself, any other value as its JSON text as the file spells it (`5` →
    * `"5"`, `{"a": 1}` → `"{"a": 1}"`), and an absent or null meta value
    * adds no meta entry. A record without a text value, or a line that is
    * not JSON, fails the first action that reads the text, naming the key
    * and the file.
    */
  final case class JsonlFormatter(
      path: String,
      textKey: String = "text",
      metaKeys: Seq[String] = Nil,
  ) extends Formatter {
    val name = "jsonl_formatter"
    def load(spark: SparkSession): DataFrame = {
      val keys = (textKey +: metaKeys).distinct
      val raw = spark.read.schema(StructType(keys.map(StructField(_, StringType)))).json(path)
      val text = when(col(textKey).isNotNull, col(textKey)).otherwise(raise_error(
        concat(lit(s"$name: no '$textKey' value (absent, null or not JSON) in a record of "), input_file_name())))
      val unified = InMemoryFormatter(raw.withColumn(textKey, text), textKey, metaKeys).load(spark)
      if (metaKeys.isEmpty) unified
      else unified.withColumn(Schema.Meta, map_filter(col(Schema.Meta), (_, v) => v.isNotNull))
    }
  }

  /** CSV loader with header; `textCol` holds the text. */
  final case class CsvFormatter(
      path: String,
      textCol: String = "text",
      metaCols: Seq[String] = Nil,
  ) extends Formatter {
    val name = "csv_formatter"
    def load(spark: SparkSession): DataFrame =
      InMemoryFormatter(spark.read.option("header", "true").csv(path), textCol, metaCols).load(spark)
  }

  /** Plain-text loader. `wholeFile = true` makes each file one sample (books,
    * code files) and records the file name in `meta.source`; otherwise each
    * line is a sample.
    */
  final case class TextFormatter(path: String, wholeFile: Boolean = true) extends Formatter {
    val name = "text_formatter"
    def load(spark: SparkSession): DataFrame = {
      val raw =
        if (wholeFile)
          spark.read.option("wholetext", "true").text(path)
            .withColumn("source", input_file_name())
        else spark.read.text(path)
      val withMeta =
        if (wholeFile)
          raw.withColumnRenamed("value", Schema.Text)
            .withColumn(Schema.Meta, map(lit("source"), col("source"))).drop("source")
        else raw.withColumnRenamed("value", Schema.Text)
      Schema.ensure(withMeta)
    }
  }

  /** Parquet loader for already-unified datasets (cache/checkpoint reload). */
  final case class ParquetFormatter(path: String) extends Formatter {
    val name = "parquet_formatter"
    def load(spark: SparkSession): DataFrame = Schema.ensure(spark.read.parquet(path))
  }

  /** Weighted dataset mixture (paper Sec. 5.1.2 and Table 7): each component
    * is sampled at `weight` (fraction ≤ 1 without replacement, > 1 replicates
    * whole epochs plus a fractional sample — "Books ×2 epochs") and the
    * results are unioned. Sample ids are re-spaced so they stay unique.
    */
  def mix(parts: Seq[(DataFrame, Double)], seed: Long = 7L): DataFrame = {
    require(parts.nonEmpty, "mix of zero datasets")
    val unified = parts.map { case (df, w) => (Schema.ensure(df), w) }
    val sampled = unified.zipWithIndex.map { case ((df, w), i) =>
      val whole = w.floor.toInt
      val frac  = w - whole
      val reps  = Seq.fill(whole)(df) ++
        (if (frac > 1e-9) Seq(df.sample(withReplacement = false, frac, seed + i)) else Nil)
      reps.reduceOption(_ unionByName _).getOrElse(df.limit(0))
    }
    // Re-assign globally unique ids after the union; per-row uniqueness is
    // what Deduplicators require.
    sampled.reduce(_ unionByName _)
      .drop(Schema.Id).withColumn(Schema.Id, monotonically_increasing_id())
      .select(Schema.columns.map(col): _*)
  }
}
