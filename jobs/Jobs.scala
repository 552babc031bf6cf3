package jobs

import org.apache.spark.sql.SparkSession
import repro.exp._

/** Shared session bootstrap for the spark-submit entrypoints (one object per
  * reproduced table/figure; run e.g. `spark-submit --class jobs.Table2 …`).
  */
private[jobs] object JobSession {
  def spark(name: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** An entrypoint that prints the tables one experiment renders in a
  * session of its own.
  */
private[jobs] abstract class TableJob(name: String, tables: SparkSession => String) {
  def main(args: Array[String]): Unit = {
    val s = JobSession.spark(name)
    try println(tables(s)) finally s.stop()
  }
}

/** Tables 2 & 9: pre-training recipes → HELM-lite scores. */
object Table2 extends TableJob("table2", s => { val r = Table2Experiment.run(s); s"${r.table2}\n\n${r.table9}" })

/** Table 3: post-tuning pairwise judge comparison. */
object Table3 extends TableJob("table3", Table3Experiment.run(_).table3)

/** Tables 4 & 5: quality classifiers + CommonCrawl keeping ratios. */
object Table4 extends TableJob("table4", s => { val r = Table4Experiment.run(s); s"${r.table4}\n\n${r.table5}" })

/** Table 7: pre-training recipe statistics. */
object Table7 extends TableJob("table7", Table7Experiment.run(_).table7)

/** Table 8: post-tuning registry tag counts. */
object Table8 extends TableJob("table8", Table8Experiment.run(_).table8)

/** Table 9 alone (same run as Table 2). */
object Table9 extends TableJob("table9", Table2Experiment.run(_).table9)

/** Fig. 8 analog: end-to-end performance vs script baseline. */
object Perf extends TableJob("perf", PerfExperiment.run(_).table)

/** Fig. 9 analog: OP fusion & reordering. */
object Fusion extends TableJob("fusion", FusionExperiment.run(_).table)

/** Fig. 10 analog: node scalability, Ray-like vs Beam-like. */
object Scalability extends TableJob("scalability", ScalabilityExperiment.run(_).table)

/** Run a YAML recipe against a jsonl input and write parquet output:
  * `spark-submit --class jobs.ProcessRecipe … recipe.yaml in.jsonl out.parquet [op.param=value …]`
  * — the generic "process a dataset with a data recipe" entrypoint.
  */
object ProcessRecipe {
  def main(args: Array[String]): Unit = {
    val s = JobSession.spark("process-recipe")
    try run(s, args) finally s.stop()
  }

  /** Runs the recipe once; returns the sample count read back from its parquet output. */
  def run(spark: SparkSession, args: Array[String]): Long = {
    require(args.length >= 3, "usage: ProcessRecipe <recipe.yaml> <in.jsonl> <out.parquet> [op.param=value …]")
    val recipe = repro.core.Recipe.fromFile(args(0)).withOverrides(args.drop(3).toSeq)
    val input  = repro.core.Formatters.JsonlFormatter(args(1)).load(spark)
    val out    = recipe.pipeline(fuse = true, reorder = true).run(input)
    out.write.mode("overwrite").parquet(args(2))
    // Read with the written frame's schema: inferring it would cost a job.
    val n = spark.read.schema(out.schema).parquet(args(2)).count()
    println(s"wrote $n samples to ${args(2)}")
    n
  }
}
