package repro.core

/** The OP-list optimizer (paper Sec. 7, Fig. 6): reorders each run of
  * consecutive Filters and MetaFilters so cheap OPs run before expensive
  * (tokenizing or model-backed) ones, and the expensive OPs then see fewer
  * samples. A MetaFilter reads only `meta` and costs 0.
  *
  * Correctness argument: consecutive Filters and MetaFilters commute (each
  * is a pure per-sample predicate; conjunction order does not change the
  * surviving set), so reordering preserves the output dataset exactly.
  * Mappers and Deduplicators are barriers: nothing is moved across them.
  * The other half of the paper's optimizer, fusion of context-sharing
  * Filters, is not a plan rewrite: [[RowStage]] shares one [[TextContext]]
  * per sample across the Filters of a row pass.
  */
object OpFusion {

  /** Optimize an OP list: `reorder` sorts each commutative run of Filters
    * and MetaFilters by ascending cost (stable).
    */
  def plan(ops: Seq[Op], reorder: Boolean): Seq[Op] = {
    val out = scala.collection.mutable.ArrayBuffer.empty[Op]
    val run = scala.collection.mutable.ArrayBuffer.empty[Op]
    def flush(): Unit = {
      out ++= (if (reorder) run.sortBy { case f: Filter => f.cost; case _ => 0 } else run)
      run.clear()
    }
    ops.foreach {
      case f @ (_: Filter | _: MetaFilter) => run += f
      case other => flush(); out += other
    }
    flush()
    out.toSeq
  }
}
