package djbench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.concurrent.TrieMap
import scala.collection.immutable.ListMap
import scala.collection.mutable.ArrayBuffer

/** Spark task metrics summed over the tasks of one span. */
final class TaskTotals {
  var cpuNs, gcMs, tasks, shuffleWriteBytes, spillBytes = 0L
  def add(o: TaskTotals): Unit = {
    cpuNs += o.cpuNs; gcMs += o.gcMs; tasks += o.tasks
    shuffleWriteBytes += o.shuffleWriteBytes; spillBytes += o.spillBytes
  }
}

/** Attributes executor CPU, GC, shuffle and spill to the span that was
  * active (the `djbench.span` local property) when each stage was submitted.
  */
final class SpanListener extends SparkListener {
  private val stageSpan = TrieMap.empty[Int, Int]
  val totals = TrieMap.empty[Int, TaskTotals]
  private val endedJobs = TrieMap.empty[Int, Unit]

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit =
    Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanProperty)))
      .foreach(s => stageSpan.put(e.stageInfo.stageId, s.toInt))

  // The listener bus delivers events on one thread, so the totals need no lock.
  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val m = e.taskMetrics
    for (span <- stageSpan.get(e.stageId) if m != null) {
      val t = totals.getOrElseUpdate(span, new TaskTotals)
      t.cpuNs += m.executorCpuTime
      t.gcMs += m.jvmGCTime
      t.tasks += 1
      t.shuffleWriteBytes += m.shuffleWriteMetrics.bytesWritten
      t.spillBytes += m.memoryBytesSpilled + m.diskBytesSpilled
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = endedJobs.put(e.jobId, ())

  /** Block until the listener has seen the end of every job of `group`; task
    * ends precede their job's end on the listener bus.
    */
  def awaitGroup(sc: SparkContext, group: String, timeoutMs: Long = 60000L): Unit = {
    val deadline = System.currentTimeMillis() + timeoutMs
    while (!sc.statusTracker.getJobIdsForGroup(group).forall(endedJobs.contains)) {
      require(System.currentTimeMillis() < deadline, s"listener did not see all jobs of $group")
      Thread.sleep(10)
    }
  }
}

/** One traced interval. `layer` names the `repro.core` layer the call went
  * into; `parent` is -1 for a root span.
  */
final case class Span(id: Int, parent: Int, layer: String, name: String, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Records spans around calls into the program, in memory, for one run.
  * Spark jobs started inside a span carry its id as a local property, and all
  * jobs of the run share the job group `runId`.
  */
final class Tracer(sc: SparkContext, val runId: String) {
  private val spans = ArrayBuffer.empty[Span]
  private var stack = List.empty[Int]
  private var nextId = 0

  def span[T](layer: String, name: String)(body: => T): T = {
    val id = nextId; nextId += 1
    val parent = stack.headOption.getOrElse(-1)
    stack = id :: stack
    sc.setLocalProperty(Tracer.SpanProperty, id.toString)
    val t0 = System.nanoTime()
    try body
    finally {
      spans += Span(id, parent, layer, name, t0, System.nanoTime())
      stack = stack.tail
      sc.setLocalProperty(Tracer.SpanProperty, stack.headOption.map(_.toString).orNull)
    }
  }

  def all: Seq[Span] = spans.toSeq.sortBy(_.id)

  /** Span duration minus the time its direct children cover (children of a
    * span run one after another on the calling thread).
    */
  def selfSeconds(s: Span): Double =
    s.seconds - spans.iterator.filter(_.parent == s.id).map(_.seconds).sum

  /** Task metrics of a span and all its descendants. */
  def subtreeTotals(s: Span, listener: SpanListener): TaskTotals = {
    val out = new TaskTotals
    def go(id: Int): Unit = {
      listener.totals.get(id).foreach(out.add)
      spans.iterator.filter(_.parent == id).foreach(c => go(c.id))
    }
    go(s.id)
    out
  }

  /** Write the spans as JSON lines, with their self time and task metrics. */
  def write(path: Path, listener: SpanListener): Unit = {
    Files.createDirectories(path.getParent)
    val t0 = spans.map(_.startNs).minOption.getOrElse(0L)
    val lines = all.map { s =>
      val t = listener.totals.getOrElse(s.id, new TaskTotals)
      Json.render(ListMap(
        "run" -> runId, "id" -> s.id, "parent" -> s.parent, "layer" -> s.layer, "name" -> s.name,
        "start_s" -> (s.startNs - t0) / 1e9, "end_s" -> (s.endNs - t0) / 1e9,
        "self_s" -> selfSeconds(s), "cpu_s" -> t.cpuNs / 1e9, "gc_s" -> t.gcMs / 1e3, "tasks" -> t.tasks,
        "shuffle_write_mb" -> t.shuffleWriteBytes / 1e6, "spill_mb" -> t.spillBytes / 1e6))
    }
    Files.write(path, lines.mkString("", "\n", "\n").getBytes(UTF_8))
  }
}

object Tracer {
  val SpanProperty = "djbench.span"
}
