package repro

import org.apache.spark.sql.DataFrame
import repro.core.Schema

/** Test helpers: build tiny unified datasets from literal texts. */
trait TestData { self: SparkSpec =>
  def docsDf(texts: String*): DataFrame =
    docsWithMeta(texts.map(t => (t, Map.empty[String, String])): _*)

  def docsWithMeta(rows: (String, Map[String, String])*): DataFrame = {
    val session = spark
    import session.implicits._
    val df = rows.zipWithIndex
      .map { case ((t, m), i) => (i.toLong, t, m) }
      .toDF(Schema.Id, Schema.Text, Schema.Meta)
    Schema.ensure(df)
  }

  def texts(df: DataFrame): Seq[String] =
    df.orderBy(Schema.Id).select(Schema.Text).collect().map(_.getString(0)).toSeq

  def ids(df: DataFrame): Seq[Long] =
    df.select(Schema.Id).collect().map(_.getLong(0)).toSeq.sorted

  /** Rows by id as (id, text, stats). */
  def rowsOf(df: DataFrame): Seq[(Long, String, Map[String, Double])] =
    df.select(Schema.Id, Schema.Text, Schema.Stats).collect().map { r =>
      (r.getLong(0), r.getString(1), if (r.isNullAt(2)) Map.empty[String, Double] else r.getMap[String, Double](2).toMap)
    }.toSeq.sortBy(_._1)
}
