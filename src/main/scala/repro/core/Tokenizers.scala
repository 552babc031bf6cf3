package repro.core

import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable.ArrayBuffer

/** Word/character tokenizers shared by Filters, Deduplicators, the Analyzer,
  * the quality classifier and the n-gram LM.
  *
  * Three tokenizer families mirror the paper (Sec. 6.2 / Appendix B.1):
  *  - `words`   — "standard tokenizer": lowercased alphanumeric runs, with
  *                every CJK codepoint emitted as its own token (so Chinese
  *                text tokenizes at character granularity, our stand-in for
  *                SentencePiece);
  *  - `cjkChars`— pure character tokens, used by the Chinese classifier;
  *  - `codeTokens` — identifiers plus individual symbol tokens, used by the
  *                Code classifier (symbols carry signal in code quality).
  */
object Tokenizers {

  /** Count of `words` invocations. Local-mode-only instrumentation used by
    * tests/benches to demonstrate that OP fusion shares tokenization contexts
    * instead of recomputing them (paper Sec. 7, "context management").
    */
  val wordCalls = new AtomicLong(0L)

  @inline def isCjk(c: Char): Boolean = {
    val b = Character.UnicodeBlock.of(c)
    b == Character.UnicodeBlock.CJK_UNIFIED_IDEOGRAPHS ||
    b == Character.UnicodeBlock.CJK_UNIFIED_IDEOGRAPHS_EXTENSION_A ||
    b == Character.UnicodeBlock.CJK_SYMBOLS_AND_PUNCTUATION
  }

  /** Standard tokenizer: lowercased [letter|digit]+ runs; CJK chars are
    * individual tokens. Deterministic, locale-independent.
    */
  def words(text: String): Array[String] = {
    wordCalls.incrementAndGet()
    if (text == null || text.isEmpty) return Array.empty
    val out = new ArrayBuffer[String](16)
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

  /** Character tokens, whitespace dropped — for the Chinese quality classifier. */
  def cjkChars(text: String): Array[String] =
    if (text == null) Array.empty
    else text.toCharArray.filterNot(Character.isWhitespace).map(_.toString)

  /** Code tokenizer: identifier runs ([A-Za-z0-9_]+) kept verbatim, every
    * non-space symbol its own token.
    */
  def codeTokens(text: String): Array[String] = {
    if (text == null || text.isEmpty) return Array.empty
    val out = new ArrayBuffer[String](16)
    val sb  = new StringBuilder
    var i = 0
    while (i < text.length) {
      val c = text.charAt(i)
      if (Character.isLetterOrDigit(c) || c == '_') sb.append(c)
      else {
        if (sb.nonEmpty) { out += sb.toString; sb.clear() }
        if (!Character.isWhitespace(c)) out += c.toString
      }
      i += 1
    }
    if (sb.nonEmpty) out += sb.toString
    out.toArray
  }

  /** The tokenizer a recipe or classifier config names: `standard`
    * ([[words]]), `cjk` ([[cjkChars]]) or `code` ([[codeTokens]]); any other
    * name is an error.
    */
  def byName(name: String): String => Array[String] = name match {
    case "standard" => words
    case "cjk"      => cjkChars
    case "code"     => codeTokens
    case other      => throw new IllegalArgumentException(s"unknown tokenizer '$other'; known: standard, cjk, code")
  }

  /** n-grams over a token sequence, joined by a separator (shingles for
    * MinHash, trigrams for the LM).
    */
  def ngrams(tokens: Array[String], n: Int, sep: String = " "): Array[String] =
    if (tokens.length < n) Array.empty
    else Array.tabulate(tokens.length - n + 1)(i => tokens.slice(i, i + n).mkString(sep))
}
