package repro.lm

import repro.{SparkSpec, TestData}
import repro.corpus.TextGen

class JudgeSpec extends SparkSpec with TestData {

  private lazy val cleanModel =
    NGramLM.train(TextGen.docs(spark, Seq("clean" -> 1.0), 400, seed = 91L, docWords = 200))
  private lazy val junkModel =
    NGramLM.train(TextGen.docs(spark, Seq("gibberish" -> 0.5, "boilerplate" -> 0.5), 400, seed = 92L, docWords = 200))

  test("prompts carry paired good/bad responses, deterministically") {
    val p1 = Judge.prompts(spark, 20).collect()
    val p2 = Judge.prompts(spark, 20).collect()
    assert(p1.map(_.getString(1)).toSeq == p2.map(_.getString(1)).toSeq)
    assert(p1.forall(r => r.getString(1) != r.getString(2)))
  }

  test("margins are positive for a clean-trained model") {
    val prompts = Judge.prompts(spark, 30)
    val m = Judge.margins(cleanModel, prompts).collect().map(_.getDouble(1))
    assert(m.count(_ > 0) > 25, s"positive margins: ${m.count(_ > 0)}/30")
  }

  test("clean-trained model beats junk-trained model in pairwise judging") {
    val prompts = Judge.prompts(spark, 40)
    val res = Judge.compare(cleanModel, junkModel, prompts)
    assert(res.winsA + res.winsB + res.ties == 40)
    assert(res.winsA > res.winsB, s"$res")
  }

  test("self-comparison is all ties") {
    val prompts = Judge.prompts(spark, 15)
    val res = Judge.compare(cleanModel, cleanModel, prompts)
    assert(res.ties == 15 && res.winsA == 0)
  }

  test("leaderboard ranks by normalized average score") {
    val results = Seq(
      ("modelA", "t1", 10.0), ("modelA", "t2", 10.0),
      ("modelB", "t1", 5.0), ("modelB", "t2", 5.0),
    )
    val lb = Leaderboard.rank(spark, results).collect()
    assert(lb(0).getAs[String]("model") == "modelA")
    assert(lb(0).getAs[Double]("avg_norm") == 1.0)
    assert(lb(0).getAs[Double]("avg_rank") == 1.0)
  }

  test("leaderboard ranks are 1..n whatever the shuffle partitioning") {
    val conf = spark.conf
    val keys = Seq("spark.sql.shuffle.partitions", "spark.sql.adaptive.coalescePartitions.enabled")
    val saved = keys.map(k => k -> conf.getOption(k))
    conf.set("spark.sql.shuffle.partitions", "8")
    conf.set("spark.sql.adaptive.coalescePartitions.enabled", "false")
    try {
      val results = (1 to 6).flatMap(m => Seq((s"model$m", "t1", m.toDouble), (s"model$m", "t2", 2.0 * m)))
      val lb = Leaderboard.rank(spark, results).collect()
      assert(lb.map(_.getAs[Number]("rank").longValue).toSeq == (1L to 6L))
      assert(lb.map(_.getAs[String]("model")).toSeq == (6 to 1 by -1).map(m => s"model$m"))
    } finally saved.foreach { case (k, v) => v.fold(conf.unset(k))(conf.set(k, _)) }
  }
}
