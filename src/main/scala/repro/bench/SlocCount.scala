package repro.bench

import java.io.File
import scala.io.Source

import BenchUtil._

/** Table 1 reproduction: source lines of code per sub-operator, next to the
  * paper's numbers, plus the derived claims of §5.1.1 — total modular vs
  * monolithic SLOC and the platform-specific fraction (the paper's 3.8×:
  * only MpiExecutor/MpiHistogram/MpiExchange must be rewritten to change
  * platforms, vs rewriting the whole monolith).
  *
  * SLOC = non-blank, non-comment lines of the named top-level declaration
  * (brace-matched), mirroring how the paper counts per-operator code.
  */
object SlocCount {

  private val Src = "src/main/scala/repro"

  /** (abbrev, operator, paper SLOC, file, declaration). */
  val Operators: Seq[(String, String, Int, String, String)] = Seq(
    ("PL", "Parameter lookup",       28, s"$Src/core/SubOp.scala",            "class ParameterLookup"),
    ("NM", "Nested map",             49, s"$Src/core/NestedMap.scala",        "class NestedMap"),
    ("PR", "Projection",             27, s"$Src/core/MapOps.scala",           "class Projection"),
    ("BP", "Hash build and probe",  103, s"$Src/core/BuildProbe.scala",       "class BuildProbe"),
    ("LH", "Local histogram",        77, s"$Src/core/LocalHistogram.scala",   "class LocalHistogram"),
    ("ZP", "Zip",                    44, s"$Src/core/Zip.scala",              "class Zip"),
    ("CP", "Cartesian product",      54, s"$Src/core/Zip.scala",              "class CartesianProduct"),
    ("PM", "Parametrized map",       51, s"$Src/core/MapOps.scala",           "class ParametrizedMap"),
    ("RK", "Reduce by key",          75, s"$Src/core/Reduce.scala",           "class ReduceByKey"),
    ("RS", "Row Scan",               59, s"$Src/core/RowScan.scala",          "class RowScan"),
    ("LP", "Local partitioning",    143, s"$Src/core/LocalPartitioning.scala","class LocalPartitioning"),
    ("MR", "Materialize row vector", 56, s"$Src/core/RowScan.scala",          "class MaterializeRowVector"),
    ("ME", "MPI Executor",          140, s"$Src/mpi/MpiExecutor.scala",       "class MpiExecutor"),
    ("EX", "MPI Exchange",          269, s"$Src/mpi/MpiExchange.scala",       "class MpiExchange"),
    ("MH", "MPI Histogram",          52, s"$Src/mpi/MpiHistogram.scala",      "class MpiHistogram"),
  )

  val PlatformSpecific: Set[String] = Set("ME", "EX", "MH")

  /** Strip `//` comments, `/* */` blocks (incl. scaladoc), and blank lines. */
  def sloc(lines: Seq[String]): Int = {
    var inBlock = false
    var n = 0
    lines.foreach { line =>
      val sb = new StringBuilder
      var i = 0
      while (i < line.length) {
        if (inBlock) {
          if (i + 1 < line.length && line.charAt(i) == '*' && line.charAt(i + 1) == '/') {
            inBlock = false; i += 2
          } else i += 1
        } else if (i + 1 < line.length && line.charAt(i) == '/' && line.charAt(i + 1) == '*') {
          inBlock = true; i += 2
        } else if (i + 1 < line.length && line.charAt(i) == '/' && line.charAt(i + 1) == '/') {
          i = line.length
        } else {
          sb.append(line.charAt(i)); i += 1
        }
      }
      if (sb.toString.trim.nonEmpty) n += 1
    }
    n
  }

  /** Extract the brace-matched block of `decl` (e.g. "class Zip") from a
    * source file, then count its SLOC.
    */
  def declSloc(file: String, decl: String): Int = {
    val lines = {
      val s = Source.fromFile(file, "UTF-8")
      try s.getLines().toVector
      finally s.close()
    }
    val start = lines.indexWhere(l => l.contains(decl + " ") || l.contains(decl + "("))
    require(start >= 0, s"declaration '$decl' not found in $file")
    var depth = 0
    var seenBrace = false
    var end = start
    var i = start
    while (i < lines.length && (!seenBrace || depth > 0)) {
      lines(i).foreach {
        case '{' => depth += 1; seenBrace = true
        case '}' => depth -= 1
        case _   =>
      }
      end = i
      i += 1
    }
    sloc(lines.slice(start, end + 1))
  }

  def fileSloc(file: String): Int = {
    val s = Source.fromFile(file, "UTF-8")
    try sloc(s.getLines().toVector)
    finally s.close()
  }

  /** Locate the repo root whether invoked from the root or a subproject. */
  def detectBase(): File =
    Seq(new File("."), new File(".."))
      .find(b => new File(b, Src).isDirectory)
      .getOrElse(throw new IllegalStateException(s"cannot locate $Src"))

  def run(baseDir: File = detectBase()): String = {
    def p(rel: String) = new File(baseDir, rel).getPath

    val rows = Operators.map { case (ab, name, paper, file, decl) =>
      val ours = declSloc(p(file), decl)
      Seq(ab, name, paper.toString, ours.toString,
        if (PlatformSpecific(ab)) "platform-specific" else "generic")
    }
    val t1 = table("Table 1 — SLOC per sub-operator (paper vs this reproduction)",
      Seq("abbrev", "operator", "paper SLOC", "our SLOC", "kind"), rows)

    val ourTotal = Operators.map { case (_, _, _, f, d) => declSloc(p(f), d) }.sum
    val ourPlat = Operators.filter(o => PlatformSpecific(o._1))
      .map { case (_, _, _, f, d) => declSloc(p(f), d) }.sum
    val mono = fileSloc(p(s"$Src/monolith/MonolithicRadixJoin.scala"))
    val t2 = table("Table 1 (derived) — §5.1.1 claims",
      Seq("metric", "paper", "ours"),
      Seq(
        Seq("sub-operators total SLOC", "1152", ourTotal.toString),
        Seq("monolithic join SLOC", "1754", mono.toString),
        Seq("reduction", "35%", f"${(1 - ourTotal.toDouble / mono) * 100}%.0f%%"),
        Seq("platform-specific SLOC (ME+EX+MH)", "461", ourPlat.toString),
        Seq("platform-port ratio (monolith / platform-specific)",
          "3.8x", f"${mono.toDouble / ourPlat}%.1fx"),
      ))
    t1 + t2
  }
}
