package repro.quality

import org.apache.spark.ml.classification.{LogisticRegression, LogisticRegressionModel}
import org.apache.spark.ml.feature.HashingTF
import org.apache.spark.ml.linalg.Vector
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.{Schema, Tokenizers}

/** GPT-3-style text quality classifier (paper Sec. 6.2, Appendix B.1):
  * tokenizer → HashingTF features → binary logistic regression, exactly the
  * PySpark construction the paper reproduces, on Spark ML. Three tokenizer
  * variants mirror the paper's three classifiers: "standard" (English GPT-3),
  * "cjk" (Chinese, SentencePiece stand-in), "code".
  *
  * Keep rules (Appendix B.1):
  *  - label:  doc_score > 0.5
  *  - pareto: doc_score > 1 − lomax(α), α = 9 (np.random.pareto semantics:
  *            lomax(α) = (1−u)^(−1/α) − 1)
  */
object QualityClassifier {

  final case class Config(
      tokenizer: String = "standard",
      numFeatures: Int = 1 << 18,
      maxIter: Int = 60,
      regParam: Double = 1e-4,
  ) {
    /** The named tokenizer ([[Tokenizers.byName]]); an unknown name fails here. */
    val tokenize: String => Array[String] = Tokenizers.byName(tokenizer)
  }

  final case class Model(lr: LogisticRegressionModel, cfg: Config)

  /** Tokenize and append word bigrams — unigram bags alone cannot separate
    * fluent-but-junk text from prose; bigrams capture transition style (the
    * GPT-3 scorer's featurizer likewise hashes n-gram features).
    */
  private def tokenizeUdf(tokenize: String => Array[String]) = udf { (t: String) =>
    val toks = tokenize(if (t == null) "" else t)
    toks ++ Tokenizers.ngrams(toks, 2, "§")
  }

  private def featurize(df: DataFrame, cfg: Config): DataFrame = {
    val tf = new HashingTF().setInputCol("__tokens").setOutputCol("features").setNumFeatures(cfg.numFeatures)
    tf.transform(df.withColumn("__tokens", tokenizeUdf(cfg.tokenize)(col(Schema.Text))))
  }

  /** Train on positive (high-quality) and negative (low-quality) corpora. */
  def train(pos: DataFrame, neg: DataFrame, cfg: Config = Config()): Model = {
    val labeled = pos.select(col(Schema.Text)).withColumn("label", lit(1.0))
      .unionByName(neg.select(col(Schema.Text)).withColumn("label", lit(0.0)))
    val feats = featurize(labeled, cfg)
    val lr = new LogisticRegression()
      .setMaxIter(cfg.maxIter).setRegParam(cfg.regParam)
      .setFeaturesCol("features").setLabelCol("label")
    Model(lr.fit(feats), cfg)
  }

  /** Score a unified dataset: writes `doc_score` (P[high quality]) into the
    * `stats` map, replacing any earlier score, making the classifier
    * consumable by stats-based tooling (Sampler.topByStat, HPO metrics, …).
    *
    * The score is the logistic of `w·x + b`, from the model's weights and
    * intercept alone, in the order `LogisticRegressionModel` computes its
    * probability, so it is the same double. A task that closed over the model
    * would carry its training summary and, through it, the SparkSession,
    * which a task must not carry.
    */
  def score(model: Model, df: DataFrame): DataFrame = {
    val w = model.lr.coefficients.toArray
    val b = model.lr.intercept
    val p1 = udf { (x: Vector) =>
      var dot = 0.0
      x.foreachActive((i, v) => dot += v * w(i))
      1.0 - 1.0 / (1.0 + math.exp(dot + b))
    }
    featurize(Schema.ensure(df), model.cfg)
      .withColumn(Schema.Stats, map_concat(
        map_filter(col(Schema.Stats), (k, _) => k =!= "doc_score"), map(lit("doc_score"), p1(col("features")))))
      .drop("__tokens", "features")
  }

  /** Keep rule "label": doc_score > 0.5. */
  def keepLabel(scored: DataFrame): DataFrame =
    scored.filter(col(Schema.Stats).getItem("doc_score") > 0.5)

  /** Keep rule "pareto": doc_score > 1 − lomax(α), sampled per row. */
  def keepPareto(scored: DataFrame, alpha: Double = 9.0, seed: Long = 101L): DataFrame = {
    val lomax = pow(lit(1.0) - rand(seed), lit(-1.0 / alpha)) - lit(1.0)
    scored.filter(col(Schema.Stats).getItem("doc_score") > lit(1.0) - lomax)
  }

  /** Precision / recall / F1 at the 0.5 threshold on held-out pos/neg. */
  def evaluate(model: Model, posTest: DataFrame, negTest: DataFrame): (Double, Double, Double) = {
    val tp = keepLabel(score(model, posTest)).count().toDouble
    val fn = posTest.count().toDouble - tp
    val fp = keepLabel(score(model, negTest)).count().toDouble
    val precision = if (tp + fp == 0) 0.0 else tp / (tp + fp)
    val recall    = if (tp + fn == 0) 0.0 else tp / (tp + fn)
    val f1 = if (precision + recall == 0) 0.0 else 2 * precision * recall / (precision + recall)
    (precision, recall, f1)
  }
}
