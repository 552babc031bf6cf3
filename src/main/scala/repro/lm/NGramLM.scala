package repro.lm

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.{Schema, Tokenizers}

/** The proxy "LLM" substrate: an interpolated trigram language model trained
  * entirely with DataFrame aggregations over the corpora the Data-Juicer
  * pipeline produces.
  *
  * Why a trigram LM stands in for LLaMA here (see DESIGN.md): the paper's
  * Tables 2/3/9 only require that model quality be a monotone function of
  * training-data quality and quantity. A count-based LM has exactly that
  * property — duplicated boilerplate visibly flips its argmax predictions,
  * junk tokens waste its token budget — and it is cheap enough to train five
  * of them inside a test suite.
  */
object NGramLM {

  /** Separator for joined n-gram keys; never occurs in tokens (tokens are
    * lowercase alphanumerics or CJK chars).
    */
  private val Sep = ""

  /** Trained model: n-gram count tables (small, locally checkpointed). */
  final case class Model(
      tri: DataFrame,      // (w1, w2, w3, cnt)
      bi: DataFrame,       // (w1, w2, cnt)
      uni: DataFrame,      // (w1, cnt)
      vocabSize: Long,
      trainedTokens: Long,
  )

  private val toTokens = udf((t: String) => Tokenizers.words(if (t == null) "" else t))

  private def gramUdf(n: Int) =
    udf((t: String) => Tokenizers.ngrams(Tokenizers.words(if (t == null) "" else t), n, Sep))

  /** Total token count of a unified dataset. */
  def countTokens(df: DataFrame): Long = {
    val r = df.select(sum(size(toTokens(col(Schema.Text)))) as "n").collect()(0)
    if (r.isNullAt(0)) 0L else r.getLong(0)
  }

  /** Down-sample a corpus to ≈`tokenBudget` tokens (seeded), mirroring
    * "trained on N tokens". Returns the sample and its approximate tokens.
    */
  def sampleBudget(df: DataFrame, tokenBudget: Long, seed: Long): (DataFrame, Long) = {
    val total = countTokens(df)
    if (total <= tokenBudget) (df, total)
    else {
      val frac = tokenBudget.toDouble / total
      (df.sample(withReplacement = false, frac, seed), tokenBudget)
    }
  }

  /** Train on a unified dataset (optionally budget-limited upstream). */
  def train(docs: DataFrame): Model = {
    def counts(n: Int, cols: Seq[String]): DataFrame = {
      val df = docs.select(explode(gramUdf(n)(col(Schema.Text))) as "g")
        .select(split(col("g"), Sep) as "p")
      val projected = cols.zipWithIndex.map { case (c, i) => col("p")(i) as c }
      df.select(projected: _*).groupBy(cols.map(col): _*).agg(count("*") as "cnt")
        .localCheckpoint(true)
    }
    val tri = counts(3, Seq("w1", "w2", "w3"))
    val bi  = counts(2, Seq("w1", "w2"))
    val uni = counts(1, Seq("w1"))
    val v = math.max(1L, uni.count())
    val nRow = uni.agg(sum("cnt")).collect()(0)
    val n = if (nRow.isNullAt(0)) 0L else nRow.getLong(0)
    Model(tri, bi, uni, v, n)
  }

  /** Precomputed argmax tables for prediction — build once per model, reuse
    * across evaluation sets.
    */
  final case class Predictor(triPred: DataFrame, biPred: DataFrame, top: String)

  def predictor(m: Model): Predictor = {
    val wTri = Window.partitionBy("w1", "w2").orderBy(desc("cnt"), asc("w3"))
    val triPred = m.tri.withColumn("__rn", row_number().over(wTri)).filter(col("__rn") === 1)
      .select(col("w1"), col("w2"), col("w3") as "pred_tri")
      .localCheckpoint(true)
    val wBi = Window.partitionBy("w1").orderBy(desc("cnt"), asc("w2"))
    val biPred = m.bi.withColumn("__rn", row_number().over(wBi)).filter(col("__rn") === 1)
      .select(col("w1") as "w2", col("w2") as "pred_bi")
      .localCheckpoint(true)
    val rows = m.uni.orderBy(desc("cnt"), asc("w1")).limit(1).collect()
    Predictor(triPred, biPred, if (rows.isEmpty) "" else rows(0).getString(0))
  }

  /** Top-1 next-token accuracy grouped by `groupCol` of the eval docs, with
    * trigram → bigram → unigram backoff. One Spark job for all groups.
    */
  def accuracyBy(p: Predictor, evalDocs: DataFrame, groupCol: String): Map[String, Double] = {
    val evalTri = evalDocs.select(col(groupCol), explode(gramUdf(3)(col(Schema.Text))) as "g")
      .select(col(groupCol), split(col("g"), Sep) as "p")
      .select(col(groupCol), col("p")(0) as "w1", col("p")(1) as "w2", col("p")(2) as "actual")
    val joined = evalTri
      .join(p.triPred, Seq("w1", "w2"), "left")
      .join(p.biPred, Seq("w2"), "left")
      .withColumn("pred", coalesce(col("pred_tri"), col("pred_bi"), lit(p.top)))
    joined.groupBy(groupCol)
      .agg(avg(when(col("pred") === col("actual"), 1.0).otherwise(0.0)) as "acc")
      .collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
  }

  /** Top-1 next-token accuracy on one evaluation set. */
  def accuracy(m: Model, evalDocs: DataFrame): Double =
    accuracy(predictor(m), evalDocs)

  def accuracy(p: Predictor, evalDocs: DataFrame): Double =
    accuracyBy(p, evalDocs.withColumn("__g", lit("all")), "__g").getOrElse("all", 0.0)

  /** Smoothed per-document mean log-probability (natural log), interpolating
    * trigram/bigram/unigram with add-α smoothing — the Judge's scoring
    * primitive.
    */
  def avgLogProb(m: Model, docs: DataFrame, alpha: Double = 0.1): DataFrame = {
    val v = m.vocabSize.toDouble
    val n = math.max(1L, m.trainedTokens).toDouble
    val evalTri = docs.select(col(Schema.Id), explode(gramUdf(3)(col(Schema.Text))) as "g")
      .select(col(Schema.Id), split(col("g"), Sep) as "p")
      .select(col(Schema.Id), col("p")(0) as "w1", col("p")(1) as "w2", col("p")(2) as "w3")
    val joined = evalTri
      .join(m.tri.withColumnRenamed("cnt", "c3"), Seq("w1", "w2", "w3"), "left")
      .join(m.bi.withColumnRenamed("cnt", "c2"), Seq("w1", "w2"), "left")
      .join(m.bi.select(col("w1") as "w2", col("w2") as "w3", col("cnt") as "c2b"), Seq("w2", "w3"), "left")
      .join(m.uni.select(col("w1") as "w3", col("cnt") as "c1"), Seq("w3"), "left")
    val c3  = coalesce(col("c3"), lit(0L)).cast("double")
    val c2  = coalesce(col("c2"), lit(0L)).cast("double")
    val c2b = coalesce(col("c2b"), lit(0L)).cast("double")
    val c1  = coalesce(col("c1"), lit(0L)).cast("double")
    val pTri = (c3 + lit(alpha)) / (c2 + lit(alpha * v))
    val pBi  = (c2b + lit(alpha)) / (c1 + lit(alpha * v))
    val pUni = (c1 + lit(alpha)) / lit(n + alpha * v)
    val p = lit(0.7) * pTri + lit(0.2) * pBi + lit(0.1) * pUni
    joined.withColumn("logp", log(p))
      .groupBy(Schema.Id).agg(avg("logp") as "avg_logp")
  }
}
