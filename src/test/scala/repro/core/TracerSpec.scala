package repro.core

import java.nio.file.Files
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.util.QueryExecutionListener
import repro.{SparkSpec, TestData}

/** What a tracer should record for a pipeline, found without the run's own
  * pass: each planned OP is applied alone, and its input is compared with
  * its output by id (a Mapper's changed texts, any other OP's missing rows).
  */
object TraceReference {
  type Sample = (Long, String, Option[String])

  /** Per planned OP: its name, its number of effects and the `maxSamples`
    * effects of smallest id.
    */
  def apply(pipe: Pipeline, input: DataFrame, maxSamples: Int): Seq[(String, Long, Seq[Sample])] = {
    var before = Schema.ensure(input).localCheckpoint()
    pipe.planned.map { op =>
      val after = op(before).localCheckpoint()
      val effects: Seq[Sample] = op match {
        case _: Mapper =>
          before.select(col(Schema.Id), col(Schema.Text) as "pre")
            .join(after.select(col(Schema.Id), col(Schema.Text) as "post"), Schema.Id)
            .filter(col("pre") =!= col("post")).collect()
            .map(r => (r.getLong(0), r.getString(1), Option(r.getString(2)))).toSeq
        case _ =>
          before.join(after.select(Schema.Id), Seq(Schema.Id), "left_anti").select(Schema.Id, Schema.Text).collect()
            .map(r => (r.getLong(0), r.getString(1), Option.empty[String])).toSeq
      }
      before = after
      (op.name, effects.size.toLong, effects.sortBy(_._1).take(maxSamples))
    }
  }

  /** The same view of what `tracer` recorded. */
  def of(tracer: Tracer): Seq[(String, Long, Seq[Sample])] =
    tracer.traces.map(t => (t.op, t.removedOrChanged, t.samples))
}

class TracerSpec extends SparkSpec with TestData {

  test("tracer records discarded samples for filters") {
    val tracer = new Tracer(maxSamples = 5)
    val df = docsDf("long enough to survive the filter", "nope")
    Pipeline(Seq(Filters.TextLengthFilter(minLen = 10)), tracer = Some(tracer)).run(df)
    val t = tracer.traces.head
    assert(t.kind == OpCategory.Filter && t.removedOrChanged == 1)
    assert(t.samples.map(_._2) == Seq("nope"))
  }

  test("tracer records pre/post pairs for mappers, only changed samples") {
    val tracer = new Tracer()
    val df = docsDf("UPPER case", "already lower")
    Pipeline(Seq(Mappers.LowercaseMapper()), tracer = Some(tracer)).run(df)
    val t = tracer.traces.head
    assert(t.kind == OpCategory.Mapper && t.removedOrChanged == 1)
    assert(t.samples.head._2 == "UPPER case" && t.samples.head._3.contains("upper case"))
  }

  test("tracer records removed duplicates for deduplicators") {
    val tracer = new Tracer()
    val df = docsDf("dup text", "dup text", "unique")
    Pipeline(Seq(Deduplicators.ExactDocDeduplicator()), tracer = Some(tracer)).run(df)
    val t = tracer.traces.head
    assert(t.kind == OpCategory.Deduplicator && t.removedOrChanged == 1)
    assert(t.samples.map(_._2) == Seq("dup text"))
  }

  test("tracer caps stored samples at maxSamples") {
    val tracer = new Tracer(maxSamples = 2)
    val df = docsDf((0 until 10).map(_ => "x"): _*)
    Pipeline(Seq(Filters.TextLengthFilter(minLen = 5)), tracer = Some(tracer)).run(df)
    assert(tracer.traces.head.removedOrChanged == 10)
    assert(tracer.traces.head.samples.size == 2)
  }

  test("tracer report renders one block per op") {
    val tracer = new Tracer()
    val df = docsDf("UPPER", "some much longer surviving text sample")
    Pipeline(Seq(Mappers.LowercaseMapper(), Filters.TextLengthFilter(minLen = 10)),
      tracer = Some(tracer)).run(df)
    val rep = tracer.report
    assert(rep.contains("lowercase_mapper") && rep.contains("text_length_filter"))
    assert(tracer.traces.size == 2)
  }

  private val webMix = Seq("clean" -> 0.35, "html" -> 0.2, "boilerplate" -> 0.2, "gibberish" -> 0.15,
    "flagged" -> 0.05, "repeat" -> 0.05)

  private def webDocs(n: Long): DataFrame = repro.corpus.TextGen.docs(spark, webMix, n, seed = 7).localCheckpoint()

  // Jobs a traced step may add: the checkpoint of its pass (for a
  // Deduplicator, with its own shuffle stage) and the one action that
  // reduces its effects, whose shuffle stages AQE runs as jobs of their own.
  private val PerStepJobs = 6

  test("a traced run starts a bounded number of Spark jobs per step, not per OP") {
    val input = webDocs(200)
    val recipe = repro.exp.Recipes.djPretrain
    val (untraced, _) = countJobs(recipe.pipeline(fuse = true, reorder = true).run(input).collect())
    val tracer = new Tracer()
    val (traced, _) = countJobs(recipe.pipeline(fuse = true, reorder = true, tracer = Some(tracer)).run(input).collect())
    // djPretrain plans one row run of 13 OPs and an exact dedup.
    val steps = 2
    info(s"Spark jobs for ${tracer.traces.size} OPs in $steps steps: untraced $untraced, traced $traced")
    assert(tracer.traces.size == 14)
    assert(traced <= untraced + PerStepJobs * steps, s"traced $traced vs untraced $untraced")
  }

  test("traces equal the per-OP reference where Filters overwrite stats values") {
    import Mappers._, Filters._
    val df = docsDf((0 until 40).map { i =>
      if (i % 6 == 0) "tiny" else if (i % 7 == 0) "A repeated Document"
      else if (i % 5 == 0) s"<p>document $i with some words</p>" else s"Document $i has a few words"
    }: _*)
    // Each StatsWriterFilter overwrites `a`, which starts a new version of
    // every row at its stage without changing the text.
    val ops: Seq[Op] = Seq(StatsWriterFilter(Map("a" -> 1.0)), TextLengthFilter(minLen = 5),
      StatsWriterFilter(Map("a" -> 2.0, "b" -> 3.0)), WordCountFilter(minWords = 1), RemoveHtmlTagsMapper(),
      StatsWriterFilter(Map("a" -> 4.0)), LowercaseMapper(), Deduplicators.ExactDocDeduplicator())
    val tracer = new Tracer(maxSamples = 3)
    val pipe = Pipeline(ops, tracer = Some(tracer))
    pipe.run(df).collect()
    assert(TraceReference.of(tracer) == TraceReference(pipe, df, maxSamples = 3))
    assert(tracer.traces.filter(_.op == "stats_writer_filter").forall(_.removedOrChanged == 0))
  }

  test("traces are identical at 1 and 8 input partitions") {
    val input = webDocs(300)
    val traces = Seq(1, 8).map { parts =>
      val tracer = new Tracer(maxSamples = 4)
      repro.exp.Recipes.djPretrain.pipeline(fuse = true, reorder = true, tracer = Some(tracer))
        .run(input.repartition(parts)).collect()
      tracer.traces
    }
    assert(traces.head.exists(_.removedOrChanged > 0))
    assert(traces.head == traces.last)
  }

  for (mode <- Seq("none", CacheManager.ModeCache, CacheManager.ModeCheckpoint))
    test(s"a traced run outputs what an untraced run does (cache: $mode)") {
      val input = webDocs(150)
      def run(traced: Boolean) = {
        val cache = Option.when(mode != "none")(new CacheManager(spark, Files.createTempDirectory("djcache").toString, mode))
        val recipe = repro.exp.Recipes.djPretrain
        rowsOf(recipe.pipeline(fuse = true, reorder = true, tracer = Option.when(traced)(new Tracer()),
          cache = cache).run(input))
      }
      val plain = run(traced = false)
      assert(plain.nonEmpty)
      assert(run(traced = true) == plain)
    }

  test("the sample pick trims each OP's effects before the shuffle") {
    val plans = new java.util.concurrent.ConcurrentLinkedQueue[String]()
    val listener = new QueryExecutionListener {
      def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = plans.add(qe.executedPlan.toString)
      def onFailure(funcName: String, qe: QueryExecution, e: Exception): Unit = ()
    }
    spark.listenerManager.register(listener)
    try {
      Pipeline(Seq(Filters.TextLengthFilter(minLen = 5)), tracer = Some(new Tracer(maxSamples = 2)))
        .run(docsDf((0 until 10).map(_ => "x"): _*)).collect()
      // Listener calls arrive asynchronously.
      val deadline = System.nanoTime() + 30L * 1000000000L
      def partialLimit = plans.toArray.map(_.toString).exists(p =>
        p.linesIterator.exists(l => l.contains("WindowGroupLimit [op") && l.contains("Partial")))
      while (!partialLimit && System.nanoTime() < deadline) Thread.sleep(50)
      assert(partialLimit, plans.toArray.mkString("\n"))
    } finally spark.listenerManager.unregister(listener)
  }
}
