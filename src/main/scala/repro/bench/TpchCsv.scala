package repro.bench

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files
import java.util.concurrent.atomic.AtomicReference

import repro.core.{Atom, ItemType}
import repro.plans.TpchPlans
import repro.plans.TpchPlans.TpchData

/** Modularis's storage read path for Fig 9: each simulated rank reads its
  * part of the shared CSV files in parallel (the paper's workers read their
  * input slices from a shared NFS), parsing directly into the sub-operator
  * tuple layouts of [[repro.plans.TpchPlans]]. Contrast with the Presto
  * stand-in, whose generic interpreted scan re-parses single-threaded.
  */
object TpchCsv {

  private def parseChunk(
      lines: java.util.List[String], from: Int, until: Int,
      out: Array[Array[Any]], build: Array[String] => Array[Any]): Unit = {
    var i = from
    while (i < until) {
      out(i) = build(lines.get(i).split('|'))
      i += 1
    }
  }

  /** Parse `file` with `threads` threads; the first failure of any thread
    * is rethrown once all have finished.
    */
  private def parallelParse(file: File, threads: Int)(
      build: Array[String] => Array[Any]): Array[Array[Any]] = {
    val lines = Files.readAllLines(file.toPath, StandardCharsets.UTF_8)
    val n = lines.size
    val out = new Array[Array[Any]](n)
    val failure = new AtomicReference[Throwable]
    val chunk = math.max(1, (n + threads - 1) / threads)
    val ts = (0 until threads).flatMap { t =>
      val from = t * chunk
      if (from >= n) None
      else {
        val until = math.min(n, from + chunk)
        val th = new Thread(() =>
          try parseChunk(lines, from, until, out, build)
          catch { case e: Throwable => failure.compareAndSet(null, e); () })
        th.start()
        Some(th)
      }
    }
    ts.foreach(_.join())
    Option(failure.get).foreach(e => throw e)
    out
  }

  /** The parser of one CSV field into a value of atom `a`. */
  private def parserOf(a: ItemType): String => Any = a match {
    case Atom.LongA   => _.toLong
    case Atom.IntA    => _.toInt
    case Atom.DoubleA => _.toDouble
    case _            => identity // strings and ISO dates
  }

  /** Load the Fig 9 tables into [[TpchData]] tuple layouts with
    * `threads`-way parallel parsing. `needed` restricts parsing to the
    * tables a query actually scans (like any engine's per-query reads).
    */
  def load(t: VolcanoTpch.Tables, threads: Int,
           needed: Set[String] = Set("lineitem", "orders", "part")): TpchData = {
    val Seq(li, ord, part) = Seq(t.li, t.ord, t.part).zip(TpchPlans.Tables).map {
      case (_, (name, _)) if !needed(name) => Array.empty[Array[Any]]
      case ((file, schema), (_, layout)) =>
        val cols = layout.fieldNames.map(schema.idx).toArray
        val parse = layout.fields.map { case (_, a) => parserOf(a) }.toArray
        parallelParse(file, threads)(c => Array.tabulate[Any](cols.length)(i => parse(i)(c(cols(i)))))
    }
    TpchData(li, ord, part)
  }
}
