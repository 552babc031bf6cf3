package djbench

/** Minimal JSON writing for the corpus files, span files and the result line. */
object Json {

  def quote(sb: java.lang.StringBuilder, s: String): Unit = {
    sb.append('"')
    var i = 0
    while (i < s.length) {
      val c = s.charAt(i)
      c match {
        case '"'  => sb.append("\\\"")
        case '\\' => sb.append("\\\\")
        case '\n' => sb.append("\\n")
        case '\r' => sb.append("\\r")
        case '\t' => sb.append("\\t")
        case _ if c < 0x20 => sb.append(f"\\u${c.toInt}%04x")
        case _ => sb.append(c)
      }
      i += 1
    }
    sb.append('"')
  }

  /** Render nested Maps of strings, numbers and booleans; pass a `ListMap`
    * to keep the key order.
    */
  def render(v: Any): String = {
    val sb = new java.lang.StringBuilder
    def go(x: Any): Unit = x match {
      case s: String          => quote(sb, s)
      case b: Boolean         => sb.append(b)
      case d: Double          =>
        require(!d.isNaN && !d.isInfinite, s"non-finite number $d")
        sb.append(d.toString)
      case n: Int             => sb.append(n)
      case n: Long            => sb.append(n)
      case m: scala.collection.Map[_, _] =>
        sb.append('{')
        m.zipWithIndex.foreach { case ((k, e), i) =>
          if (i > 0) sb.append(',')
          quote(sb, k.toString); sb.append(':'); go(e)
        }
        sb.append('}')
      case other => sys.error(s"cannot render ${other.getClass}")
    }
    go(v)
    sb.toString
  }
}
