package djbench

import org.apache.spark.SparkContext
import org.apache.spark.util.LongAccumulator
import repro.core._

/** Counting decorators: they delegate every member of the wrapped OP,
  * including `signature` and `toString` (which a fused group's signature is
  * built from), so the planned chain and its cache keys are unchanged, and
  * they count row-function calls in a Spark accumulator.
  */
final class CountingMapper(val inner: Mapper, val calls: LongAccumulator) extends Mapper {
  def name: String = inner.name
  override def signature: String = inner.signature
  override def toString: String = inner.toString
  def mapText(text: String): String = { calls.add(1L); inner.mapText(text) }
}

final class CountingFilter(val inner: Filter, val calls: LongAccumulator) extends Filter {
  def name: String = inner.name
  override def signature: String = inner.signature
  override def toString: String = inner.toString
  def statsKeys: Seq[String] = inner.statsKeys
  def contexts: Set[ContextKey.Value] = inner.contexts
  override def cost: Int = inner.cost
  def computeStatsRow(ctx: TextContext): Map[String, Double] = { calls.add(1L); inner.computeStatsRow(ctx) }
  def keepRow(stats: Map[String, Double]): Boolean = inner.keepRow(stats)
}

object Counting {
  /** Wrap each Mapper and Filter of `ops`; other OPs pass through. Returns
    * the wrapped list and `(op name, accumulator)` per wrapped OP.
    */
  def wrap(sc: SparkContext, ops: Seq[Op]): (Seq[Op], Seq[(String, String, LongAccumulator)]) = {
    val wrapped = ops.map {
      case m: Mapper => new CountingMapper(m, sc.longAccumulator(m.name))
      case f: Filter => new CountingFilter(f, sc.longAccumulator(f.name))
      case other     => other
    }
    val counters = wrapped.collect {
      case m: CountingMapper => ("mappers", m.name, m.calls)
      case f: CountingFilter => ("filters", f.name, f.calls)
    }
    (wrapped, counters)
  }
}
