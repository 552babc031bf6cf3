package repro.core

/** A fused Filter: the stats of every member are computed in ONE call over
  * ONE shared [[TextContext]] per sample, and the keep decision is the
  * conjunction of the members' decisions (paper Sec. 7 / Fig. 6: fusible OPs
  * "share the same contexts or computation sub-procedures" and are
  * "amalgamated into a single fused OP"). Contexts are per-sample locals, so
  * they are garbage-collected right after each sample — the paper's "contexts
  * cleaned up after each fused OP, little extra memory".
  */
final case class FusedFilter(members: Seq[Filter]) extends Filter {
  require(members.nonEmpty, "fused filter needs members")
  val name = s"fused(${members.map(_.name).mkString(",")})"
  val statsKeys: Seq[String] = members.flatMap(_.statsKeys).distinct
  val contexts: Set[ContextKey.Value] = members.flatMap(_.contexts).toSet
  override val cost: Int = members.map(_.cost).max

  def computeStatsRow(ctx: TextContext): Map[String, Double] =
    members.foldLeft(Map.empty[String, Double])((acc, f) => acc ++ f.computeStatsRow(ctx))

  def keepRow(stats: Map[String, Double]): Boolean = members.forall(_.keepRow(stats))
}

/** The OP-list optimizer (paper Sec. 7, Fig. 6): detects groups of
  * commutative consecutive Filters, fuses the context-sharing ones, and
  * reorders each group so cheap OPs run before expensive (fused/model-backed)
  * ones — the expensive OPs then see fewer samples.
  *
  * Correctness argument: consecutive Filters commute (each is a pure
  * per-sample predicate; conjunction order does not change the surviving
  * set), so both fusion (conjunction in one pass) and reordering preserve the
  * output dataset exactly. Mappers and Deduplicators are pipeline barriers —
  * they are never moved across.
  */
object OpFusion {

  /** Greedily bucket a run of filters into fusible groups: a filter joins the
    * first group whose accumulated context set intersects its own. Filters
    * with no shareable context (pure char math) stay standalone.
    */
  private[core] def fuseRun(run: Seq[Filter]): Seq[Filter] = {
    val groups = scala.collection.mutable.ArrayBuffer.empty[scala.collection.mutable.ArrayBuffer[Filter]]
    val standalone = scala.collection.mutable.ArrayBuffer.empty[Filter]
    run.foreach { f =>
      if (f.contexts.isEmpty) standalone += f
      else groups.find(g => g.exists(_.contexts.intersect(f.contexts).nonEmpty)) match {
        case Some(g) => g += f
        case None    => groups += scala.collection.mutable.ArrayBuffer(f)
      }
    }
    val fused = groups.map(g => if (g.size > 1) FusedFilter(g.toSeq) else g.head)
    (standalone ++ fused).toSeq
  }

  /** Optimize an OP list. `fuse` merges context-sharing filter runs;
    * `reorder` sorts each commutative run by ascending cost (stable).
    */
  def plan(ops: Seq[Op], fuse: Boolean = true, reorder: Boolean = true): Seq[Op] = {
    val out = scala.collection.mutable.ArrayBuffer.empty[Op]
    val run = scala.collection.mutable.ArrayBuffer.empty[Filter]
    def flush(): Unit = {
      if (run.nonEmpty) {
        var rs: Seq[Filter] = if (fuse) fuseRun(run.toSeq) else run.toSeq
        if (reorder) rs = rs.sortBy(_.cost)
        out ++= rs
        run.clear()
      }
    }
    ops.foreach {
      case f: Filter => run += f
      case other     => flush(); out += other
    }
    flush()
    out.toSeq
  }
}
