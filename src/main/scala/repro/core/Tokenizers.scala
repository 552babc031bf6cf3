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

  /** Whether `c` lies in one of three CJK blocks: CJK Symbols and
    * Punctuation (U+3000–U+303F), CJK Unified Ideographs Extension A
    * (U+3400–U+4DBF) or CJK Unified Ideographs (U+4E00–U+9FFF). Range checks,
    * not `Character.UnicodeBlock.of`, so a character below U+3000 costs one
    * comparison.
    */
  @inline def isCjk(c: Char): Boolean =
    c >= '\u3000' && (c <= '\u303F' || (c >= '\u3400' && c <= '\u4DBF') || (c >= '\u4E00' && c <= '\u9FFF'))

  /** Standard tokenizer: lowercased [letter|digit]+ runs; CJK chars are
    * individual tokens. Deterministic, locale-independent. A run whose
    * characters are all lowercase already is a substring of `text`; only
    * other runs are copied, one `Character.toLowerCase` per character.
    */
  def words(text: String): Array[String] = {
    wordCalls.incrementAndGet()
    if (text == null || text.isEmpty) return Array.empty
    val out = new ArrayBuffer[String](16)
    var start = -1 // first index of the current run, or -1
    var lower = true // whether the current run is lowercase already
    def endRun(end: Int): Unit = if (start >= 0) {
      out += (if (lower) text.substring(start, end) else {
        val cs = new Array[Char](end - start)
        var k = 0
        while (k < cs.length) { cs(k) = Character.toLowerCase(text.charAt(start + k)); k += 1 }
        new String(cs)
      })
      start = -1
    }
    var i = 0
    while (i < text.length) {
      val c = text.charAt(i)
      if (isCjk(c)) { endRun(i); out += String.valueOf(c) }
      else if (Character.isLetterOrDigit(c)) {
        if (start < 0) { start = i; lower = true }
        if (Character.toLowerCase(c) != c) lower = false
      } else endRun(i)
      i += 1
    }
    endRun(text.length)
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
