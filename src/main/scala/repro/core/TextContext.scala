package repro.core

/** Shared per-sample computation contexts (paper Sec. 7, "context management").
  *
  * Several Filters need the same derived views of a sample — its word list,
  * its line list, its lowercased form. Without fusion each Filter builds its
  * own [[TextContext]] and therefore re-derives those views; with fusion
  * [[RowStage]] builds ONE context per sample, keeps it until a Mapper edits
  * the text, and every Filter reads the lazily-computed field it needs (the
  * Analyzer does the same for its dimensions). `lazy val` gives exactly the
  * paper's semantics: a context variable is computed at most once per sample
  * and only if some OP actually consumes it.
  */
final class TextContext(val text: String) {
  lazy val words: Array[String] = Tokenizers.words(text)
  lazy val lines: Array[String] = if (text == null) Array.empty else text.split("\n", -1)
  /** The lines, trimmed, without the ones left empty. */
  lazy val trimmedLines: Array[String] = lines.map(_.trim).filter(_.nonEmpty)
  lazy val paragraphs: Array[String] =
    if (text == null) Array.empty
    else text.split("\n\\s*\n").map(_.trim).filter(_.nonEmpty)
  lazy val nonSpaceChars: Int =
    if (text == null) 0 else text.count(!Character.isWhitespace(_))
  lazy val alnumChars: Int =
    if (text == null) 0 else text.count(Character.isLetterOrDigit)
  def length: Int = if (text == null) 0 else text.length
}

/** Names of the shareable contexts a Filter consumes ([[Filter.contexts]]);
  * a Filter that needs none is cheap and is reordered first (paper Fig. 6).
  */
object ContextKey extends Enumeration {
  val Words, Lines, Paragraphs, Chars = Value
}
