package jobs

import java.nio.file.Files
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent}
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import repro.SparkSpec
import repro.core.{Formatters, Recipe}
import repro.corpus.TextGen
import scala.jdk.CollectionConverters._

class ProcessRecipeSpec extends SparkSpec {

  /** The Spark jobs `block` starts, the SQL executions among them whose plan
    * mentions `marker` (a file name), and the block's result.
    */
  private def measure[T](marker: String)(block: => T): (Int, Int, T) = {
    val scans = new AtomicInteger
    val listener = new SparkListener {
      override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
        case s: SparkListenerSQLExecutionStart if s.physicalPlanDescription.contains(marker) => scans.incrementAndGet()
        case _ =>
      }
    }
    spark.sparkContext.addSparkListener(listener)
    // countJobs drains the listener bus, and this listener shares its queue.
    try { val (jobs, result) = countJobs(block); (jobs, scans.get, result) }
    finally spark.sparkContext.removeSparkListener(listener)
  }

  test("ProcessRecipe runs the recipe once and reads the sample count back from its output") {
    val dir = Files.createTempDirectory("recipe")
    val in = dir.resolve("in.jsonl")
    val docs = (0 until 40).map(i => TextGen.cleanText(i, 120)) ++ Seq.fill(5)(TextGen.cleanText(3, 120))
    def json(t: String) = "\"" + t.replace("\\", "\\\\").replace("\"", "\\\"").replace("\n", "\\n") + "\""
    Files.write(in, docs.map(t => s"{\"text\": ${json(t)}}").asJava)
    val recipe = "configs/dj-pretrain-en.yaml"
    val alone = dir.resolve("alone").toString
    val (writeJobs, writeScans, _) = measure("in.jsonl") {
      Recipe.fromFile(recipe).pipeline(fuse = true, reorder = true)
        .run(Formatters.JsonlFormatter(in.toString).load(spark)).write.parquet(alone)
    }
    val (readJobs, _, expected) = measure("in.jsonl")(spark.read.parquet(alone).count())
    val (runJobs, runScans, n) =
      measure("in.jsonl")(ProcessRecipe.run(spark, Array(recipe, in.toString, dir.resolve("out").toString)))
    info(s"Spark jobs: write $writeJobs, count of the written parquet $readJobs, ProcessRecipe.run $runJobs")
    assert(n == expected && n > 0 && n < docs.size, s"$n samples written, $expected expected")
    assert(writeScans > 0, "the plan of the write does not show the input")
    assert(runScans == writeScans, s"ProcessRecipe.run scans its input in $runScans queries, the write alone in $writeScans")
    assert(runJobs <= writeJobs + readJobs, s"$runJobs jobs, against $writeJobs + $readJobs")
  }
}
