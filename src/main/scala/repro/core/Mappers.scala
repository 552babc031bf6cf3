package repro.core

import java.text.Normalizer
import java.util.regex.Pattern

/** The Mapper pool: single-sample in-place text editing OPs (paper Table 1,
  * "Transform specified headers, textual elements; fix messy codes; enable
  * text enhancement"). All are pure, deterministic `String => String`
  * functions; [[RowStage]] runs them, on Spark inside one row pass.
  */
object Mappers {

  // The kernels below return what one `String.replaceAll` per pattern returns,
  // with less work: each constant pattern is compiled once, and a pattern runs
  // only when the text holds a character that every match must contain.

  private val EmailRe = Pattern.compile("[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}")
  private val IpRe = Pattern.compile("\\b(?:(?:25[0-5]|2[0-4]\\d|1?\\d?\\d)\\.){3}(?:25[0-5]|2[0-4]\\d|1?\\d?\\d)\\b")
  private val LinkRe = Pattern.compile("(?i)\\b(?:https?://|ftp://|www\\.)[^\\s<>\"]+")
  private val ScriptRe = Pattern.compile("(?s)<(script|style)[^>]*>.*?</\\1>")
  private val TagRe = Pattern.compile("<[^>]{0,500}>")
  private val CharRefRe = Pattern.compile("&#\\d+;")
  private val SpacesRe = Pattern.compile("[ ]{2,}")

  /** `c`, or a space if `c` is one of the unicode spaces that whitespace
    * normalization maps to one.
    */
  private def asSpace(c: Char): Char =
    if (c < '\u00A0') c
    else if (c == '\u00A0' || c == '\u1680' || (c >= '\u2000' && c <= '\u200B') || c == '\u202F' ||
             c == '\u205F' || c == '\u3000' || c == '\uFEFF') ' '
    else c

  /** Whether `c` is in `java.util.regex`'s `\s` class: space, tab, line feed,
    * vertical tab, form feed or carriage return.
    */
  private[core] def isRegexSpace(c: Char): Boolean = c == ' ' || (c >= '\t' && c <= '\r')

  /** Collapse horizontal whitespace runs, normalize unicode spaces, strip
    * trailing spaces, and bound consecutive blank lines to one.
    *
    * One scan: unicode spaces become spaces, each line is trimmed like
    * `String.trim` and its space/tab runs become one space, and kept lines
    * are joined by one newline, or by two where blank lines lay between.
    */
  final case class WhitespaceNormalizationMapper() extends Mapper {
    val name = "whitespace_normalization_mapper"
    def mapText(text: String): String = {
      val n = text.length
      val sb = new java.lang.StringBuilder(n)
      var blank = false // a blank line since the last kept line
      var start = 0
      while (start <= n) {
        val nl = text.indexOf('\n', start)
        val end = if (nl < 0) n else nl
        var s = start
        while (s < end && asSpace(text.charAt(s)) <= ' ') s += 1
        var e = end
        while (e > s && asSpace(text.charAt(e - 1)) <= ' ') e -= 1
        if (s == e) blank = true
        else {
          if (sb.length > 0) sb.append(if (blank) "\n\n" else "\n")
          blank = false
          var inRun = false
          while (s < e) {
            val c = asSpace(text.charAt(s))
            if (c == ' ' || c == '\t') { if (!inRun) sb.append(' '); inRun = true }
            else { sb.append(c); inRun = false }
            s += 1
          }
        }
        start = end + 1
      }
      sb.toString
    }
  }

  /** Fix messy codes: NFC-normalize, drop control chars (except \n\t), strip
    * the unicode replacement char and common mojibake artifacts.
    */
  final case class FixUnicodeMapper() extends Mapper {
    val name = "fix_unicode_mapper"
    private def junk(c: Char): Boolean = c == '\uFFFD' || c == '\u007F' || (c < ' ' && c != '\n' && c != '\t')
    def mapText(text: String): String = {
      val nfc = Normalizer.normalize(text, Normalizer.Form.NFC)
      var i = 0
      while (i < nfc.length && !junk(nfc.charAt(i))) i += 1
      val clean =
        if (i == nfc.length) nfc
        else {
          val sb = new java.lang.StringBuilder(nfc.length).append(nfc, 0, i)
          while (i < nfc.length) { val c = nfc.charAt(i); if (!junk(c)) sb.append(c); i += 1 }
          sb.toString
        }
      // The second closing-quote form ends in an invisible U+009D.
      if (clean.indexOf("\u00E2\u20AC") < 0) clean
      else clean.replace("\u00E2\u20AC\u2122", "'").replace("\u00E2\u20AC\u0153", "\"").replace("\u00E2\u20AC\u009D", "\"")
    }
  }

  /** Remove e-mail addresses (PII scrubbing for pre-training corpora).
    * `replacement` has `Matcher.replaceAll` semantics: `$` and backslash
    * are special.
    */
  final case class RemoveEmailsMapper(replacement: String = "") extends Mapper {
    val name = "remove_emails_mapper"
    def mapText(text: String): String =
      if (text.indexOf('@') < 0) text else EmailRe.matcher(text).replaceAll(replacement)
  }

  /** Remove IPv4 addresses (PII scrubbing). */
  final case class RemoveIpAddressesMapper(replacement: String = "") extends Mapper {
    val name = "remove_ip_addresses_mapper"
    def mapText(text: String): String =
      if (text.indexOf('.') < 0) text else IpRe.matcher(text).replaceAll(replacement)
  }

  /** Remove http(s)/ftp/www links (web-scrape debris). */
  final case class RemoveLinksMapper(replacement: String = "") extends Mapper {
    val name = "remove_links_mapper"
    private def isW(c: Char) = c == 'w' || c == 'W'
    /** Whether `text` holds `www.` in any ASCII case, as the pattern's `(?i)` matches it. */
    private def hasWwwDot(text: String): Boolean = {
      var i = text.indexOf('.', 3)
      while (i >= 0 && !(isW(text.charAt(i - 1)) && isW(text.charAt(i - 2)) && isW(text.charAt(i - 3))))
        i = text.indexOf('.', i + 1)
      i >= 0
    }
    def mapText(text: String): String =
      if (text.indexOf("://") < 0 && !hasWwwDot(text)) text else LinkRe.matcher(text).replaceAll(replacement)
  }

  /** Strip HTML/XML tags and decode the common entities. */
  final case class RemoveHtmlTagsMapper() extends Mapper {
    val name = "remove_html_tags_mapper"
    def mapText(text: String): String = {
      val untagged =
        if (text.indexOf('<') < 0) text
        else TagRe.matcher(ScriptRe.matcher(text).replaceAll(" ")).replaceAll(" ")
      if (untagged.indexOf('&') < 0) untagged
      else {
        val decoded = untagged.replace("&nbsp;", " ").replace("&amp;", "&")
          .replace("&lt;", "<").replace("&gt;", ">").replace("&quot;", "\"")
        CharRefRe.matcher(decoded).replaceAll("")
      }
    }
  }

  /** Normalize unicode punctuation to its ASCII counterpart. */
  final case class PunctuationNormalizationMapper() extends Mapper {
    val name = "punctuation_normalization_mapper"
    private val table: Map[Char, String] = Map(
      '“' -> "\"", '”' -> "\"", '‘' -> "'", '’' -> "'", '—' -> "-", '–' -> "-",
      '…' -> "...", '«' -> "\"", '»' -> "\"", '、' -> ",", '。' -> ".",
      '，' -> ",", '！' -> "!", '？' -> "?", '：' -> ":", '；' -> ";",
    )
    def mapText(text: String): String = {
      val sb = new StringBuilder(text.length)
      text.foreach(c => sb.append(table.getOrElse(c, c.toString)))
      sb.toString
    }
  }

  /** Lowercase the whole sample. */
  final case class LowercaseMapper() extends Mapper {
    val name = "lowercase_mapper"
    def mapText(text: String): String = text.toLowerCase
  }

  /** Remove a user-supplied character set (e.g. decorative bullets). */
  final case class RemoveSpecificCharsMapper(chars: String = "◆●■►▼▲▴∆▻▷❖♡□") extends Mapper {
    val name = "remove_specific_chars_mapper"
    private val set = chars.toSet
    def mapText(text: String): String = text.filterNot(set.contains)
  }

  /** Drop words longer than `maxLen` (URLs-glued-together, base64 debris).
    * As in Data-Juicer, the text splits into lines at line breaks, each line
    * into segments at tabs and each segment into words at spaces. A word
    * with a whitespace-free run longer than `maxLen` is dropped, with the
    * empty words around it, and a segment or line left with nothing but
    * whitespace is dropped with its tab or line break, so the lines and tabs
    * around a dropped word stay. Runs of spaces in the result collapse to
    * one. Only text with a whitespace-free run longer than `maxLen` can
    * lose a word.
    */
  final case class RemoveLongWordsMapper(maxLen: Int = 40) extends Mapper {
    val name = "remove_long_words_mapper"
    private def hasLongRun(text: String): Boolean = {
      var run = 0
      var i = 0
      while (i < text.length && run <= maxLen) {
        run = if (isRegexSpace(text.charAt(i))) 0 else run + 1
        i += 1
      }
      run > maxLen
    }
    /** `s`, which holds a long run, split at `seps.head`: a part without a
      * long run stays as it is, except that an empty word goes, and a part
      * with one is cut at the next separator, or goes if that leaves None.
      * None if nothing but whitespace is left.
      */
    private def cut(s: String, seps: List[String]): Option[String] = {
      val parts = s.split(seps.head, -1)
      val kept =
        if (seps.tail.isEmpty) parts.filter(w => w.nonEmpty && !hasLongRun(w))
        else parts.flatMap(p => if (hasLongRun(p)) cut(p, seps.tail) else Some(p))
      Option.when(!kept.forall(_.isBlank))(kept.mkString(seps.head))
    }
    def mapText(text: String): String = {
      val kept = if (!hasLongRun(text)) text else cut(text, List("\n", "\t", " ")).getOrElse("")
      if (kept.indexOf("  ") < 0) kept else SpacesRe.matcher(kept).replaceAll(" ")
    }
  }

  /** Remove lines that match any header pattern (LaTeX preamble, markdown
    * header clutter) — the paper's "removal of specific headers".
    */
  final case class RemoveHeaderMapper(
      patterns: Seq[String] = Seq("^\\\\documentclass.*", "^\\\\usepackage.*", "^\\\\title.*",
                                  "^\\\\author.*", "^\\\\maketitle.*", "^#+ .*")
  ) extends Mapper {
    val name = "remove_header_mapper"
    @transient private lazy val compiled = patterns.map(Pattern.compile)
    def mapText(text: String): String =
      text.split("\n", -1).filterNot(l => compiled.exists(_.matcher(l).matches())).mkString("\n")
  }

  /** Remove comment lines by prefix (TeX `%`, C++ `//`, shell `#`). */
  final case class RemoveCommentsMapper(prefixes: Seq[String] = Seq("%", "//")) extends Mapper {
    val name = "remove_comments_mapper"
    def mapText(text: String): String =
      text.split("\n", -1).filterNot(l => prefixes.exists(l.trim.startsWith)).mkString("\n")
  }

  /** Truncate at the bibliography (LaTeX `\begin{thebibliography}` or a
    * trailing `References` heading) — arXiv recipe staple.
    */
  final case class RemoveBibliographyMapper() extends Mapper {
    val name = "remove_bibliography_mapper"
    private val markers = Seq("\\begin{thebibliography}", "\nReferences\n", "\nREFERENCES\n")
    def mapText(text: String): String = {
      val cut = markers.map(text.indexOf).filter(_ >= 0)
      if (cut.isEmpty) text else text.substring(0, cut.min)
    }
  }

  /** Drop table-ish lines: pipe-heavy rows or multi-column runs of spaces. */
  final case class RemoveTableTextMapper(minPipes: Int = 2) extends Mapper {
    val name = "remove_table_text_mapper"
    def mapText(text: String): String =
      text.split("\n", -1).filterNot { l =>
        l.count(_ == '|') >= minPipes || l.matches(".*\\S(\\s{3,}\\S+){3,}.*")
      }.mkString("\n")
  }

  /** Strip code license/copyright headers: a leading block comment or leading
    * comment lines mentioning copyright/license (paper: code recipes).
    */
  final case class CleanCopyrightMapper() extends Mapper {
    val name = "clean_copyright_mapper"
    def mapText(text: String): String = {
      val noBlock =
        if (text.startsWith("/*")) {
          val end = text.indexOf("*/")
          if (end >= 0 && text.substring(0, end).toLowerCase.matches("(?s).*(copyright|license).*"))
            text.substring(end + 2).dropWhile(_ == '\n')
          else text
        } else text
      val lines = noBlock.split("\n", -1)
      val (head, tail) = lines.span(l => l.trim.startsWith("//") || l.trim.startsWith("#"))
      val keptHead = head.filterNot(_.toLowerCase.matches(".*(copyright|license|all rights reserved).*"))
      (keptHead ++ tail).mkString("\n")
    }
  }

  /** Collapse consecutive duplicate lines within a sample (chat-log echo,
    * scraped pagination debris) — an in-document cleanup Mapper, distinct
    * from dataset-level Deduplicators.
    */
  final case class RemoveRepeatedLinesMapper() extends Mapper {
    val name = "remove_repeated_lines_mapper"
    def mapText(text: String): String = {
      val lines = text.split("\n", -1)
      val out = new scala.collection.mutable.ArrayBuffer[String](lines.length)
      var prev: String = null
      lines.foreach { l =>
        if (l.trim.isEmpty || l != prev) out += l
        prev = l
      }
      out.mkString("\n")
    }
  }

  /** Drop whitespace-delimited words containing any of the given substrings
    * (tracker tokens, encoding debris) — a staple of web-text recipes.
    */
  final case class RemoveWordsWithIncorrectSubstringsMapper(
      substrings: Seq[String] = Seq("http", "www", ".com", "href", "//")
  ) extends Mapper {
    val name = "remove_words_with_incorrect_substrings_mapper"
    def mapText(text: String): String =
      text.split("\n", -1).map { line =>
        line.split(" ").filterNot(w => substrings.exists(w.contains)).mkString(" ")
      }.mkString("\n")
  }

  /** Normalize sentence boundaries to one sentence per line (a pre-pass for
    * line-level OPs and sentence-level dedup).
    */
  final case class SentenceSplitMapper() extends Mapper {
    val name = "sentence_split_mapper"
    def mapText(text: String): String =
      text.replaceAll("([.!?。])\\s+", "$1\n")
  }

  /** All built-in mappers with default parameters, registry order. */
  def all: Seq[Mapper] = Seq(
    WhitespaceNormalizationMapper(), FixUnicodeMapper(), RemoveEmailsMapper(),
    RemoveIpAddressesMapper(), RemoveLinksMapper(), RemoveHtmlTagsMapper(),
    PunctuationNormalizationMapper(), LowercaseMapper(), RemoveSpecificCharsMapper(),
    RemoveLongWordsMapper(), RemoveHeaderMapper(), RemoveCommentsMapper(),
    RemoveBibliographyMapper(), RemoveTableTextMapper(), CleanCopyrightMapper(),
    RemoveRepeatedLinesMapper(), RemoveWordsWithIncorrectSubstringsMapper(), SentenceSplitMapper(),
  )
}
