package djbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}
import java.util.UUID
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.core.{Tracer => _, _}
import scala.collection.immutable.ListMap
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._
import scala.util.Try

/** Benchmark entry point:
  * `djbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>`,
  * run from the root of a checkout. The last line of standard output is the
  * JSON result; everything else goes to standard error.
  */
object Main {
  final case class Opts(workload: Workload, seed: Long, seconds: Int, trace: Boolean)

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => sys.error(s"bad argument ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, sys.error(s"missing --$k"))
    val w = Workload.byName(need("workload"))
      .getOrElse(sys.error(s"unknown workload; known: ${Workload.all.map(_.name).mkString(", ")}"))
    val trace = need("trace") match {
      case "0" => false
      case "1" => true
      case t   => sys.error(s"--trace must be 0 or 1, got $t")
    }
    val seconds = need("seconds").toInt
    require(seconds >= 1, "--seconds must be at least 1")
    Opts(w, need("seed").toLong, seconds, trace)
  }

  def main(args: Array[String]): Unit = {
    val opts = Try(parse(args)).fold(e => { Console.err.println(e.getMessage); sys.exit(2) }, identity)
    val code =
      try { println(new Bench(opts).run()); 0 }
      catch { case e: Throwable => e.printStackTrace(); 1 }
    sys.exit(code)
  }
}

/** Heap occupancy right after each GC, i.e. the live set, while `recording`. */
object HeapMonitor extends NotificationListener {
  @volatile var recording = false
  @volatile var peakBytes = 0L
  @volatile var gcs = 0
  private lazy val heapPools: Set[String] = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == java.lang.management.MemoryType.HEAP).map(_.getName).toSet

  def install(): Unit = ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case e: NotificationEmitter => e.addNotificationListener(this, null, null)
    case _ =>
  }

  def handleNotification(n: Notification, handback: AnyRef): Unit =
    if (recording && n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
      val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
      val used = info.getGcInfo.getMemoryUsageAfterGc.asScala
        .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
      gcs += 1
      if (used > peakBytes) peakBytes = used
    }
}

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }
}

/** One benchmark invocation: set-up rounds, timed runs and, with tracing, a
  * traced run and a counted run.
  */
final class Bench(opts: Main.Opts) {
  import Bench._

  private val wl = opts.workload
  private val root: Path = Paths.get("").toAbsolutePath
  private val work: Path = root.resolve(".bench_work").resolve(wl.name)
  private val corpusDir = work.resolve("corpus")
  private val outDir = work.resolve("out")
  private val rerunDir = work.resolve("out-rerun")
  private val cacheRoot = work.resolve("cache")
  private val cores = Runtime.getRuntime.availableProcessors()
  private val recipe: Recipe = wl.recipe(root)
  private val edited: Option[Recipe] = wl match {
    case Workload.FeedbackLoop => Some(recipe.withOverrides(Seq(Workload.FeedbackLoop.Edit)))
    case _ => None
  }

  private var spark: SparkSession = _
  private var listener: SpanListener = _
  private var state: State = _
  private var inputMb = 0.0
  private val failures = ArrayBuffer.empty[String]
  private var firstDigest: Option[(Long, Long)] = None
  private var cacheRuns = 0

  private def log(msg: String): Unit = Console.err.println(s"[djbench ${wl.name}] $msg")

  private def session(): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"djbench-${wl.name}")
      // Two shuffle partitions per core: jobs.ProcessRecipe's default of 64
      // (SPARK_SHUFFLE_PARTITIONS) is sized for larger inputs than these.
      .config("spark.sql.shuffle.partitions", (2 * cores).toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      // Room for every class generated for the recipe, so repeated runs reuse
      // them; with Spark's default of 100 each near-dup run recompiled ~100.
      .config("spark.sql.codegen.cache.maxEntries", "10000")
      .config("spark.ui.enabled", "false")
      .config("spark.ui.showConsoleProgress", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", work.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", work.resolve("warehouse").toString)
      .getOrCreate()
    listener = new SpanListener
    s.sparkContext.addSparkListener(listener)
    s
  }

  private def load(): DataFrame = Formatters.JsonlFormatter(corpusDir.toString).load(spark)

  private def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  private def deleteTree(p: Path): Unit =
    if (Files.exists(p)) Files.walk(p).sorted(java.util.Comparator.reverseOrder[Path]()).forEach(f => Files.delete(f))

  // ---------------------------------------------------------------- set-up

  /** Load the written corpus and compute the reference outputs. */
  private def prepare(corpus: Corpus): State = {
    // One load with the benchmark-only `doc` field lifted into meta: it gives
    // the planted cluster of each id. The reference sees the rows as the
    // recipe's own load does, without that field.
    val loaded = Formatters.JsonlFormatter(corpusDir.toString, metaKeys = Seq("doc")).load(spark)
    val withDoc = Reference.collect(loaded)
    val docOf: Map[Long, Int] = withDoc.map(r => r.id -> r.meta("doc").toInt).toMap
    val rows = withDoc.map(r => r.copy(meta = r.meta - "doc"))
    require(rows.size == corpus.size && rows.forall(r => corpus.texts(docOf(r.id)) == r.text),
      "loaded frame does not match the generated corpus")
    // The edited recipe shares the prefix up to the edited OP; interpret it once.
    val shared = edited.fold(recipe.ops.size)(e =>
      recipe.ops.zip(e.ops).takeWhile { case (a, b) => a.signature == b.signature }.size)
    val ((prefix, ref), refS) = timed {
      val p = Reference.run(recipe.ops.take(shared), rows)
      (p, p.andThen(recipe.ops.drop(shared)))
    }
    val editedRef = edited.map(e => prefix.andThen(e.ops.drop(shared)).rows)
    log(s"reference keeps ${ref.rows.size} of ${rows.size} docs" +
      editedRef.fold("")(r => s"; ${r.size} after the edit"))
    val refFrame = Reference.frame(spark, ref.rows).localCheckpoint(true)
    State(
      inputRows = rows.size,
      ref = ref,
      referenceS = refS,
      refDigest = Reference.digest(refFrame),
      refFrame = refFrame,
      editedDigest = editedRef.map(r => Reference.digest(Reference.frame(spark, r))),
      refSummary = edited.map(_ => Reference.summary(ref.rows)).getOrElse(Map.empty),
      clusterOf = docOf.map { case (id, d) => id -> corpus.cluster(d) },
    )
  }

  // --------------------------------------------------------------- checks

  private def check(ok: Boolean, what: => String): Boolean = {
    if (!ok) { failures += what; log(s"CHECK FAILED: $what") }
    ok
  }

  /** Check an output frame against the reference; returns the output ids. */
  private def checkOutput(out: DataFrame, label: String): (Boolean, Set[Long]) = {
    val ids = out.select(Schema.Id).collect().map(_.getLong(0))
    val idSet = ids.toSet
    val d = Reference.digest(out)
    var good = check(ids.length == idSet.size, s"$label: output ids are not unique")
    good &= check(idSet.subsetOf(state.clusterOf.keySet), s"$label: output ids are not a subset of the input ids")
    val expected =
      if (wl == Workload.NearDup)
        Reference.digest(state.refFrame.join(out.select(Schema.Id), Seq(Schema.Id), "left_semi"))
      else state.refDigest
    good &= check(d == expected, s"$label: digest $d differs from the reference $expected")
    good &= check(firstDigest.forall(_ == d), s"$label: digest $d differs from an earlier run ${firstDigest.get}")
    if (firstDigest.isEmpty) firstDigest = Some(d)
    (good, idSet)
  }

  /** Recall and precision of duplicate removal against the duplicate
    * clusters of the rows that reached the Deduplicator. A planted duplicate
    * is any cluster member other than the smallest id.
    */
  private def dedupQuality(outIds: Set[Long]): (Double, Double) = {
    val reaching = state.ref.dedupInput.getOrElse(Vector.empty)
    val planted = reaching.groupBy(r => wl.clusterKey(r, state.clusterOf(r.id))).values
      .filter(_.size > 1).flatMap(_.map(_.id).sorted.tail).toSet
    val removed = reaching.iterator.map(_.id).filterNot(outIds).toSet
    val hit = (planted intersect removed).size.toDouble
    (if (planted.isEmpty) 1.0 else hit / planted.size, if (removed.isEmpty) 1.0 else hit / removed.size)
  }

  /** The resumed prefix `Pipeline.run` should find: the index of the last
    * planned OP whose cache key is already on disk.
    */
  private def predictResume(cm: CacheManager, r: Recipe): Int = {
    val planned = r.pipeline(fuse = true, reorder = true).planned
    val keys = planned.scanLeft(cm.inputKey(r.name))((k, op) => cm.chainKey(k, op))
    keys.indices.reverse.find(i => cm.has(keys(i))).getOrElse(-1)
  }

  // ---------------------------------------------------------- timed runs

  /** One closed-loop iteration, run exactly as `jobs.ProcessRecipe` runs a
    * recipe: JsonlFormatter load, `Pipeline.run` with fusion and reordering,
    * parquet write. The output is read back for the check; warm-up
    * iterations (`checked = false`) skip the checks.
    */
  private def iteration(label: String, checked: Boolean = true): Iter = {
    val cm = if (edited.isDefined) {
      cacheRuns += 1
      Some(new CacheManager(spark, cacheRoot.resolve(s"run-$cacheRuns").toString))
    } else None
    try {
      val cpu0 = Bench.processCpuNs()
      val jit0 = Bench.jitCpuNs()
      val (out, wall) = timed {
        val out = recipe.pipeline(fuse = true, reorder = true, cache = cm).run(load())
        out.write.mode("overwrite").parquet(outDir.toString)
        out
      }
      val jitS = (Bench.jitCpuNs() - jit0) / 1e9
      val cpuS = (Bench.processCpuNs() - cpu0) / 1e9 - jitS
      var ok = true
      var quality = (Double.NaN, Double.NaN)
      if (checked) {
        val (good, ids) = checkOutput(spark.read.parquet(outDir.toString), label)
        ok = good
        quality = dedupQuality(ids)
      }
      val it = Iter(ok, wall, wall, cpuS, jitS, quality._1, quality._2)
      cm.fold(it) { c =>
        val cacheBytes = c.bytes.toDouble
        val (summary, probeS) = timed(Analyzer.probe(out).collect())
        val e = edited.get
        val predicted = predictResume(c, e)
        val before = c.entries.size
        val (_, rerunS) = timed {
          e.pipeline(fuse = true, reorder = true, cache = cm).run(load())
            .write.mode("overwrite").parquet(rerunDir.toString)
        }
        val resumed = e.pipeline(fuse = true, reorder = true).planned.size - (c.entries.size - before)
        if (checked) {
          val got = summary.map(r => r.getString(0) -> (r.getLong(1), r.getDouble(4), r.getDouble(9))).toMap
          ok &= check(got == state.refSummary, s"$label: Analyzer summary differs from the reference")
          ok &= check(resumed == predicted, s"$label: rerun resumed $resumed OPs, the cache keys predict $predicted")
          val d = Reference.digest(spark.read.parquet(rerunDir.toString))
          ok &= check(d == state.editedDigest.get, s"$label: rerun digest $d differs from the edited reference")
        }
        it.copy(ok = ok, totalS = wall + probeS + rerunS, probeS = probeS, rerunS = rerunS,
          cacheBytesPerInputByte = cacheBytes / (inputMb * 1e6), resumedOps = resumed)
      }
    } finally cm.foreach(c => deleteTree(Paths.get(c.dir)))
  }

  // ----------------------------------------------------------- traced run

  private def materialize(df: DataFrame): DataFrame = df.localCheckpoint(true)

  /** Apply one planned OP with a span around each public call, and
    * materialize its output so the next span does not re-run it.
    */
  private def tracedOp(t: Tracer, op: Op, df: DataFrame): DataFrame = op match {
    case m: Mapper => t.span("mappers", m.name)(materialize(m(df)))
    case d: Deduplicator => t.span("deduplicators", d.name) {
      val h = t.span("deduplicators", "computeHash")(materialize(d.computeHash(df)))
      val p = t.span("deduplicators", "process")(materialize(d.process(h)))
      p.select(df.columns.map(col).toSeq: _*)
    }
    case other => t.span("filters", other.name)(materialize(other(df)))
  }

  /** `Pipeline.run`'s loop, OP by OP, with the cache calls it makes. */
  private def tracedChain(t: Tracer, r: Recipe, input: DataFrame, cm: Option[CacheManager],
                          rowCounts: ArrayBuffer[(Op, Long, Long)]): DataFrame = {
    val planned = t.span("pipeline", "plan")(r.pipeline(fuse = true, reorder = true).planned)
    val df0 = Schema.ensure(input)
    def step(op: Op, df: DataFrame): DataFrame = {
      val before = df.count()
      val out = tracedOp(t, op, df)
      rowCounts += ((op, before, out.count()))
      out
    }
    cm match {
      case None => planned.foldLeft(df0)((df, op) => step(op, df))
      case Some(c) =>
        val keys = planned.scanLeft(c.inputKey(r.name))((k, op) => c.chainKey(k, op))
        val hit = keys.indices.reverse.find(i => c.has(keys(i)))
        var df = hit match {
          case Some(i) => t.span("cache", "load")(materialize(c.load(keys(i))))
          case None    => t.span("cache", "save")(c.save(df0, keys.head, None))
        }
        val start = hit.getOrElse(0)
        planned.drop(start).zipWithIndex.foreach { case (op, j) =>
          val out = step(op, df)
          val prev = Some(keys(start + j)).filter(_ != keys.head)
          df = t.span("cache", "save")(c.save(out, keys(start + j + 1), prev))
        }
        df
    }
  }

  private def tracedIteration(): TraceResult = {
    val sc = spark.sparkContext
    val t = new Tracer(sc, UUID.randomUUID().toString)
    sc.setJobGroup(t.runId, "djbench traced run")
    val rowCounts = ArrayBuffer.empty[(Op, Long, Long)]
    val cm = edited.map(_ => new CacheManager(spark, cacheRoot.resolve("traced").toString))
    var ok = true
    try {
      val (_, wall) = timed {
        t.span("pipeline", "run") {
          val input = t.span("formatters", "load")(materialize(load()))
          val out = tracedChain(t, recipe, input, cm, rowCounts)
          t.span("pipeline", "write")(out.write.mode("overwrite").parquet(outDir.toString))
          edited.foreach { e =>
            val stats = t.span("analyzer", "computeStats")(materialize(Analyzer.computeStats(out)))
            t.span("analyzer", "summarize")(Analyzer.summarize(stats).collect())
            val input2 = t.span("formatters", "load")(materialize(load()))
            val out2 = tracedChain(t, e, input2, cm, ArrayBuffer.empty)
            t.span("pipeline", "write")(out2.write.mode("overwrite").parquet(rerunDir.toString))
          }
        }
      }
      sc.clearJobGroup()
      sc.setLocalProperty(Tracer.SpanProperty, null)
      ok &= checkOutput(spark.read.parquet(outDir.toString), "traced run")._1
      edited.foreach { _ =>
        val d = Reference.digest(spark.read.parquet(rerunDir.toString))
        ok &= check(d == state.editedDigest.get, s"traced rerun digest $d differs from the edited reference")
      }
      listener.awaitGroup(sc, t.runId)
      TraceResult(t, wall, rowCounts.toSeq, ok)
    } finally cm.foreach(c => deleteTree(Paths.get(c.dir)))
  }

  // ---------------------------------------------------------- counted run

  /** The timed run once more with counting decorators on every Mapper and
    * Filter; returns (layer, OP name, calls per input row) and tokenizer
    * calls per input row.
    */
  private def countedIteration(): (Seq[(String, String, Double)], Double, Boolean) = {
    val sc = spark.sparkContext
    val (wrapped, counters) = Counting.wrap(sc, recipe.ops)
    val cm = edited.map(_ => new CacheManager(spark, cacheRoot.resolve("counted").toString))
    val pipe = Pipeline(wrapped, fuse = true, reorder = true, cache = cm, inputId = recipe.name)
    var ok = check(pipe.planned.map(_.signature) == recipe.pipeline(fuse = true, reorder = true).planned.map(_.signature),
      "counting decorators changed the plan")
    try {
      val w0 = Tokenizers.wordCalls.get()
      pipe.run(load()).write.mode("overwrite").parquet(outDir.toString)
      val words = Tokenizers.wordCalls.get() - w0
      ok &= checkOutput(spark.read.parquet(outDir.toString), "counted run")._1
      val n = state.inputRows.toDouble
      (counters.map { case (layer, name, acc) => (layer, name, acc.value / n) }, words / n, ok)
    } finally cm.foreach(c => deleteTree(Paths.get(c.dir)))
  }

  // ------------------------------------------------------------------ run

  def run(): String = {
    HeapMonitor.install()
    log(s"seed=${opts.seed} seconds=${opts.seconds} trace=${opts.trace} cores=$cores")
    require(Bench.compilerThreadCpuNs().nonEmpty, "no JIT compiler thread found under /proc/self/task")
    var correct = true
    // The program's input, generated once from the seed.
    val corpus = wl.corpus(opts.seed)
    deleteTree(corpusDir)
    Corpus.write(corpus, corpusDir)
    inputMb = corpus.bytes / 1e6
    // Set-up, `SetupRounds` times: session start and one warm-up run on the
    // workload itself, so JIT warm-up lands here and not in the timed runs.
    // Each round is measured in process CPU time and in wall time.
    val setupS = (0 until SetupRounds).map { i =>
      val cpu0 = Bench.processCpuNs()
      val (_, wall) = timed {
        if (spark != null) spark.stop()
        spark = session()
        iteration(s"warm-up ${i + 1}", checked = false)
      }
      val cpu = (Bench.processCpuNs() - cpu0) / 1e9
      log(f"set-up round ${i + 1}: $wall%.3f s wall, $cpu%.3f s CPU")
      (cpu, wall)
    }
    // The benchmark's own reference, outside set-up: the program does not
    // run it, and it is computed once.
    val (_, prepareS) = timed { state = prepare(corpus) }
    log(f"input: ${state.inputRows} docs, $inputMb%.3f MB of text; reference prepared in $prepareS%.3f s " +
      f"(interpreter ${state.referenceS}%.3f s)")

    val iters = ArrayBuffer.empty[Iter]
    HeapMonitor.peakBytes = 0L
    HeapMonitor.gcs = 0
    HeapMonitor.recording = true
    // Whole iterations only, at least `MinTimedRuns` of them; after those the
    // next starts if, taking as long as the last one with its check, it still
    // ends within --seconds.
    val t0 = System.nanoTime()
    var last = 0.0
    def elapsed = (System.nanoTime() - t0) / 1e9
    while (iters.size < MinTimedRuns || elapsed + last <= opts.seconds) {
      val start = elapsed
      // Start every run from a collected heap, so garbage left by the
      // previous run is not collected in this one.
      System.gc()
      val it = Try(iteration(s"timed run ${iters.size + 1}")).recover { case e =>
        check(ok = false, s"timed run ${iters.size + 1} threw ${e}")
        Iter(ok = false, Double.NaN, Double.NaN, Double.NaN, Double.NaN, Double.NaN, Double.NaN)
      }.get
      iters += it
      log(f"timed run ${iters.size}: ${it.wallS}%.3f s, ${it.cpuS}%.3f s CPU + ${it.jitS}%.3f s JIT (whole iteration ${it.totalS}%.3f s) ok=${it.ok}")
      last = elapsed - start
    }
    HeapMonitor.recording = false
    log(s"${HeapMonitor.gcs} GCs during the timed runs")
    val good = iters.filter(_.ok)
    val failed = iters.size - good.size
    correct &= failed == 0
    require(good.nonEmpty, "every timed run failed")
    def med(f: Iter => Double) = Stats.median(good.map(f).toSeq)

    val timedMetrics = ListMap(
      "setup_s" -> (Stats.median(setupS.map(_._1)), "s"),
      "setup_wall_s" -> (Stats.median(setupS.map(_._2)), "s"),
      "throughput_mb_s" -> (Stats.median(good.map(i => inputMb / i.wallS).toSeq), "MB/s"),
      "cpu_s_per_mb" -> (med(_.cpuS / inputMb), "s/MB"),
      "jit_cpu_s_per_mb" -> (med(_.jitS / inputMb), "s/MB"),
      "dedup_recall" -> (med(_.recall), "frac"),
      "dedup_precision" -> (med(_.precision), "frac"),
      "peak_heap_mb" -> (HeapMonitor.peakBytes / 1e6, "MB"),
      "failed_frac" -> (failed.toDouble / iters.size, "frac"),
      "probe_s" -> (med(_.probeS), "s"),
      "rerun_s" -> (med(_.rerunS), "s"),
      "cache_bytes_per_input_byte" -> (med(_.cacheBytesPerInputByte), "ratio"),
      "cache.resumed_ops" -> (med(_.resumedOps.toDouble), "count"),
      "reference.single_thread_s" -> (state.referenceS, "s"),
    )
    report(s"timed-run metrics (medians of ${good.size} run(s))", timedMetrics)
    val all =
      if (!opts.trace) timedMetrics
      else {
        val (layers, ok) = traceMetrics(med(_.totalS))
        correct &= ok
        report("traced and counted run metrics", layers)
        timedMetrics ++ layers
      }
    // BENCHMARK.json decides which metrics the result carries.
    val metrics = Bench.declared(root, if (opts.trace) "per_layer" else "end_to_end").map { case (name, unit) =>
      val (v, u) = all.getOrElse(name, sys.error(s"BENCHMARK.json names unknown metric $name"))
      require(u == unit, s"metric $name is in $u, BENCHMARK.json says $unit")
      name -> ListMap("value" -> v, "unit" -> u)
    }
    spark.stop()
    Seq(corpusDir, outDir, rerunDir, cacheRoot, work.resolve("spark-local")).foreach(p => Try(deleteTree(p)))
    if (failures.nonEmpty) log(s"${failures.size} check(s) failed:\n  ${failures.mkString("\n  ")}")
    Json.render(ListMap(
      "correct" -> correct,
      "attempted" -> iters.size,
      "failed" -> failed,
      "metrics" -> ListMap(metrics: _*),
    ))
  }

  private def report(title: String, ms: ListMap[String, (Double, String)]): Unit = {
    log(s"$title:")
    ms.foreach { case (k, (v, u)) => log(f"  $k%-32s $v%14.6f $u") }
  }

  /** Traced and counted runs, and the per-layer metrics drawn from them. */
  private def traceMetrics(untracedS: Double)
      : (ListMap[String, (Double, String)], Boolean) = {
    val tr = tracedIteration()
    val (calls, wordsPerRow, countedOk) = countedIteration()
    val t = tr.tracer
    val spans = t.all
    val path = root.resolve(".bench_work").resolve("trace").resolve(s"${wl.name}-seed${opts.seed}-${t.runId}.jsonl")
    t.write(path, listener)
    log(s"spans written to $path")
    calls.foreach { case (layer, name, c) => log(f"  counted $layer/$name%-48s $c%.3f calls/row") }
    def self(layer: String) = spans.filter(_.layer == layer).map(t.selfSeconds).sum
    def dur(layer: String, name: String) = spans.filter(s => s.layer == layer && s.name == name).map(_.seconds).sum
    val totals = new TaskTotals
    spans.filter(_.parent == -1).foreach(s => totals.add(t.subtreeTotals(s, listener)))
    val dedupSpans = spans.filter(s => s.layer == "deduplicators" && s.parent >= 0 &&
      spans.find(_.id == s.parent).exists(_.layer != "deduplicators"))
    val dedupShuffle = dedupSpans.map(s => t.subtreeTotals(s, listener).shuffleWriteBytes).sum
    val rc = tr.rowCounts
    val filterCounts = rc.filter(_._1.isInstanceOf[Filter])
    val keepFrac = if (filterCounts.isEmpty) 1.0 else filterCounts.last._3.toDouble / filterCounts.head._2
    val dedup = rc.filter(_._1.isInstanceOf[Deduplicator])
    val removedFrac = dedup.map(d => (d._2 - d._3).toDouble / d._2).sum
    val perLayer = ListMap(
      "mappers.self_s" -> (self("mappers"), "s"),
      "mappers.calls_per_row" -> (calls.filter(_._1 == "mappers").map(_._3).sum, "1/row"),
      "filters.self_s" -> (self("filters"), "s"),
      "filters.stats_calls_per_row" -> (calls.filter(_._1 == "filters").map(_._3).sum, "1/row"),
      "filters.keep_frac" -> (keepFrac, "frac"),
      "tokenizers.word_calls_per_row" -> (wordsPerRow, "1/row"),
      "opfusion.planned_ops" -> (recipe.pipeline(fuse = true, reorder = true).planned.size.toDouble, "count"),
      "formatters.load_s" -> (dur("formatters", "load"), "s"),
      "deduplicators.hash_s" -> (dur("deduplicators", "computeHash"), "s"),
      "deduplicators.process_s" -> (dur("deduplicators", "process"), "s"),
      "deduplicators.shuffle_mb" -> (dedupShuffle / 1e6, "MB"),
      "deduplicators.removed_frac" -> (removedFrac, "frac"),
      "cache.write_s" -> (dur("cache", "save"), "s"),
      "cache.read_s" -> (dur("cache", "load"), "s"),
      "analyzer.stats_s" -> (dur("analyzer", "computeStats"), "s"),
      "analyzer.summarize_s" -> (dur("analyzer", "summarize"), "s"),
      "spark.cpu_s" -> (totals.cpuNs / 1e9, "s"),
      "spark.gc_s" -> (totals.gcMs / 1e3, "s"),
      "spark.tasks" -> (totals.tasks.toDouble, "count"),
      "spark.shuffle_write_mb" -> (totals.shuffleWriteBytes / 1e6, "MB"),
      "spark.spill_mb" -> (totals.spillBytes / 1e6, "MB"),
      "trace.overhead_frac" -> (tr.wallS / untracedS - 1.0, "frac"),
    )
    (perLayer, tr.ok && countedOk)
  }
}

object Bench {
  /** CPU time of the whole JVM: main thread, executor threads, JIT and GC. Time
    * the host takes the CPU away (steal) does not count, unlike wall time, so
    * it repeats far better on a shared host.
    */
  def processCpuNs(): Long =
    ManagementFactory.getOperatingSystemMXBean.asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime

  /** CPU time of the JIT compiler threads, summed over
    * `/proc/self/task/<tid>/stat` (Linux; `USER_HZ` = 100). run.py keeps the
    * compiler threads alive for the JVM's lifetime, so none of their time is
    * lost to a thread that exits.
    */
  def jitCpuNs(): Long = compilerThreadCpuNs().sum

  /** CPU time of each JIT compiler thread. */
  def compilerThreadCpuNs(): Seq[Long] = {
    val tasks = Files.list(Paths.get("/proc/self/task"))
    try tasks.iterator.asScala.flatMap { t =>
      val stat = Try(new String(Files.readAllBytes(t.resolve("stat")), "UTF-8")).getOrElse("")
      // The thread name sits in parentheses and may hold spaces; utime and
      // stime are the 12th and 13th fields after it.
      val open = stat.indexOf('(')
      val close = stat.lastIndexOf(')')
      if (close < 0 || !stat.substring(open + 1, close).matches(CompilerThread)) None
      else {
        val f = stat.substring(close + 2).split(' ')
        Some((f(11).toLong + f(12).toLong) * 10000000L)
      }
    }.toList finally tasks.close()
  }
  private val CompilerThread = "C[12] CompilerThre.*"

  /** `(name, unit)` of the metrics `BENCHMARK.json` lists under `key`. */
  def declared(root: Path, key: String): Seq[(String, String)] = {
    val tree = new com.fasterxml.jackson.databind.ObjectMapper().readTree(root.resolve("BENCHMARK.json").toFile)
    tree.get(key).elements().asScala.map(m => m.get("name").asText -> m.get("unit").asText).toSeq
  }

  // Two rounds: the first pays JVM and Spark cold start, the second does not;
  // more rounds do not fit the time budget of a full benchmark sweep.
  val SetupRounds = 2

  // Timed runs still get faster after the warm-up (the JIT and Spark's
  // code-generation cache keep filling), so every invocation measures at
  // least this many, and the median does not depend on how many fit.
  val MinTimedRuns = 2

  final case class State(
      inputRows: Int,
      ref: Reference.Result,
      referenceS: Double,
      refDigest: (Long, Long),
      refFrame: DataFrame,
      editedDigest: Option[(Long, Long)],
      refSummary: Map[String, (Long, Double, Double)],
      clusterOf: Map[Long, Int],
  )

  /** One timed iteration; `cpuS` is the process CPU time of load → run →
    * write less the JIT compiler threads' (`jitS`), and the feedback-loop
    * fields stay 0 elsewhere.
    */
  final case class Iter(
      ok: Boolean, wallS: Double, totalS: Double, cpuS: Double, jitS: Double, recall: Double, precision: Double,
      probeS: Double = 0.0, rerunS: Double = 0.0, cacheBytesPerInputByte: Double = 0.0, resumedOps: Int = 0)

  final case class TraceResult(tracer: Tracer, wallS: Double, rowCounts: Seq[(Op, Long, Long)], ok: Boolean)
}
