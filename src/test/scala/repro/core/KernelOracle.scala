package repro.core

import java.text.Normalizer

/** Frozen copies of the straightforward row kernels: the regex-per-call
  * Mappers, the `Character.UnicodeBlock` tokenizer, the regex content hash and
  * the string-building n-gram repetition stats. [[KernelSpec]] checks the
  * production kernels against them, string for string and bit for bit.
  *
  * Nothing here changes unless a kernel's meaning changes on purpose, with a
  * test that pins the new meaning: any other change of meaning must fail the
  * spec. `removeLongWords` changed once so, to keep the lines and tabs
  * around a dropped word.
  * The invisible characters of the mojibake patterns are spelled as escapes
  * (U+009D ends the second alternative).
  */
object KernelOracle {

  def whitespaceNormalization(text: String): String =
    text.replaceAll("[\\u00A0\\u1680\\u2000-\\u200B\\u202F\\u205F\\u3000\\uFEFF]", " ")
      .split("\n", -1).map(_.replaceAll("[ \\t]+", " ").trim)
      .mkString("\n")
      .replaceAll("\n{3,}", "\n\n")
      .trim

  def fixUnicode(text: String): String = {
    val nfc = Normalizer.normalize(text, Normalizer.Form.NFC)
    nfc.replace("\uFFFD", "")
      .replaceAll("[\\p{Cntrl}&&[^\n\t]]", "")
      .replaceAll("â€™", "'").replaceAll("â€œ|â€\u009D", "\"")
  }

  def removeEmails(text: String, replacement: String): String =
    text.replaceAll("[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}", replacement)

  def removeIpAddresses(text: String, replacement: String): String =
    text.replaceAll("\\b(?:(?:25[0-5]|2[0-4]\\d|1?\\d?\\d)\\.){3}(?:25[0-5]|2[0-4]\\d|1?\\d?\\d)\\b", replacement)

  def removeLinks(text: String, replacement: String): String =
    text.replaceAll("(?i)\\b(?:https?://|ftp://|www\\.)[^\\s<>\"]+", replacement)

  def removeHtmlTags(text: String): String =
    text.replaceAll("(?s)<(script|style)[^>]*>.*?</\\1>", " ")
      .replaceAll("<[^>]{0,500}>", " ")
      .replaceAll("&nbsp;", " ").replaceAll("&amp;", "&")
      .replaceAll("&lt;", "<").replaceAll("&gt;", ">")
      .replaceAll("&quot;", "\"").replaceAll("&#\\d+;", "")

  /** Lines, tab segments and space-separated words, as Data-Juicer splits
    * and merges them. In a segment that loses a word its empty words go
    * too, and a segment or line that loses a word and is left blank goes
    * with its separator.
    */
  def removeLongWords(text: String, maxLen: Int): String = {
    val long = s"\\S{${maxLen + 1}}".r
    def holdsLong(s: String) = long.findFirstIn(s).isDefined
    def cut(s: String, seps: List[String]): Option[String] = {
      val kept = seps match {
        case " " :: Nil => s.split(" ", -1).toSeq.filter(w => w.nonEmpty && !holdsLong(w))
        case sep :: rest => s.split(sep, -1).toSeq.flatMap(p => if (holdsLong(p)) cut(p, rest) else Seq(p))
        case Nil => Nil
      }
      if (kept.forall(_.forall(Character.isWhitespace))) None else Some(kept.mkString(seps.head))
    }
    (if (holdsLong(text)) cut(text, List("\n", "\t", " ")).getOrElse("") else text).replaceAll("[ ]{2,}", " ")
  }

  def isCjk(c: Char): Boolean = {
    val b = Character.UnicodeBlock.of(c)
    b == Character.UnicodeBlock.CJK_UNIFIED_IDEOGRAPHS ||
    b == Character.UnicodeBlock.CJK_UNIFIED_IDEOGRAPHS_EXTENSION_A ||
    b == Character.UnicodeBlock.CJK_SYMBOLS_AND_PUNCTUATION
  }

  def words(text: String): Array[String] = {
    if (text == null || text.isEmpty) return Array.empty
    val out = new scala.collection.mutable.ArrayBuffer[String](16)
    val sb  = new StringBuilder
    var i = 0
    while (i < text.length) {
      val c = text.charAt(i)
      if (isCjk(c)) {
        if (sb.nonEmpty) { out += sb.toString; sb.clear() }
        out += c.toString
      } else if (Character.isLetterOrDigit(c)) {
        sb.append(Character.toLowerCase(c))
      } else if (sb.nonEmpty) { out += sb.toString; sb.clear() }
      i += 1
    }
    if (sb.nonEmpty) out += sb.toString
    out.toArray
  }

  def contentHash(text: String): Long =
    Hashing.h64(if (text == null) "" else text.toLowerCase.replaceAll("\\s+", " ").trim)

  private def ratio(num: Double, den: Double): Double = if (den <= 0) 0.0 else num / den

  def charRepRatio(t: String, n: Int): Double =
    if (t.length < n + 1) 0.0
    else {
      val counts = new scala.collection.mutable.HashMap[String, Int]
      var i = 0
      while (i + n <= t.length) { val g = t.substring(i, i + n); counts.update(g, counts.getOrElse(g, 0) + 1); i += 1 }
      ratio(counts.values.max.toDouble, (t.length - n + 1).toDouble)
    }

  def wordRepRatio(words: Array[String], n: Int): Double = {
    val grams =
      if (words.length < n) Array.empty[String]
      else Array.tabulate(words.length - n + 1)(i => words.slice(i, i + n).mkString(" "))
    if (grams.isEmpty) 0.0
    else {
      val counts = grams.groupBy(identity).view.mapValues(_.length)
      val dup = counts.values.filter(_ > 1).sum
      ratio(dup.toDouble, grams.length.toDouble)
    }
  }

  def wordEntropy(w: Array[String]): Double =
    if (w.isEmpty) 0.0
    else {
      val n = w.length.toDouble
      w.groupBy(identity).values.map { g =>
        val p = g.length / n; -p * math.log(p) / math.log(2)
      }.sum
    }

  def specialCharRatio(t: String): Double = {
    val basicPunct = ".,;:!?'\"()-\n\t ".toSet
    val special = t.count(c => !Character.isLetterOrDigit(c) && !basicPunct.contains(c) && !isCjk(c))
    ratio(special.toDouble, t.length.toDouble)
  }
}
