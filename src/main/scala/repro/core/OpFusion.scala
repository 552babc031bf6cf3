package repro.core

/** The OP-list optimizer (paper Sec. 7, Fig. 6): reorders each run of
  * consecutive Filters so cheap OPs run before expensive (tokenizing or
  * model-backed) ones, and the expensive OPs then see fewer samples.
  *
  * Correctness argument: consecutive Filters commute (each is a pure
  * per-sample predicate; conjunction order does not change the surviving
  * set), so reordering preserves the output dataset exactly. Mappers and
  * Deduplicators are barriers: nothing is moved across them. The other half
  * of the paper's optimizer, fusion of context-sharing Filters, is not a
  * plan rewrite: [[RowStage]] shares one [[TextContext]] per sample across
  * the Filters of a row pass.
  */
object OpFusion {

  /** Optimize an OP list: `reorder` sorts each commutative Filter run by
    * ascending cost (stable).
    */
  def plan(ops: Seq[Op], reorder: Boolean = true): Seq[Op] = {
    val out = scala.collection.mutable.ArrayBuffer.empty[Op]
    val run = scala.collection.mutable.ArrayBuffer.empty[Filter]
    def flush(): Unit = {
      out ++= (if (reorder) run.sortBy(_.cost) else run)
      run.clear()
    }
    ops.foreach {
      case f: Filter => run += f
      case other     => flush(); out += other
    }
    flush()
    out.toSeq
  }
}
