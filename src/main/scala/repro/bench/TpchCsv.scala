package repro.bench

import java.io.File
import java.nio.charset.StandardCharsets
import java.nio.file.Files

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

  private def parallelParse(file: File, threads: Int)(
      build: Array[String] => Array[Any]): Array[Array[Any]] = {
    val lines = Files.readAllLines(file.toPath, StandardCharsets.UTF_8)
    val n = lines.size
    val out = new Array[Array[Any]](n)
    val chunk = math.max(1, (n + threads - 1) / threads)
    val ts = (0 until threads).flatMap { t =>
      val from = t * chunk
      if (from >= n) None
      else {
        val until = math.min(n, from + chunk)
        val th = new Thread(() => parseChunk(lines, from, until, out, build))
        th.start()
        Some(th)
      }
    }
    ts.foreach(_.join())
    out
  }

  /** Load the Fig 9 tables into [[TpchData]] tuple layouts with
    * `threads`-way parallel parsing. `needed` restricts parsing to the
    * tables a query actually scans (like any engine's per-query reads).
    */
  def load(t: VolcanoTpch.Tables, threads: Int,
           needed: Set[String] = Set("lineitem", "orders", "part")): TpchData = {
    val (liF, liS) = t.li
    val (ordF, ordS) = t.ord
    val (pF, pS) = t.part

    val li = if (!needed("lineitem")) Array.empty[Array[Any]] else {
      val i = Seq("l_orderkey", "l_partkey", "l_quantity", "l_extendedprice",
        "l_discount", "l_shipdate", "l_shipmode", "l_shipinstruct",
        "l_commitdate", "l_receiptdate").map(liS.idx).toArray
      parallelParse(liF, threads) { c =>
        Array[Any](
          c(i(0)).toLong, c(i(1)).toLong, c(i(2)).toDouble, c(i(3)).toDouble,
          c(i(4)).toDouble, c(i(5)), c(i(6)), c(i(7)), c(i(8)), c(i(9)))
      }
    }
    val ord = if (!needed("orders")) Array.empty[Array[Any]] else {
      val i = Seq("o_orderkey", "o_orderpriority", "o_orderdate").map(ordS.idx).toArray
      parallelParse(ordF, threads) { c =>
        Array[Any](c(i(0)).toLong, c(i(1)), c(i(2)))
      }
    }
    val part = if (!needed("part")) Array.empty[Array[Any]] else {
      val i = Seq("p_partkey", "p_type", "p_size", "p_brand", "p_container").map(pS.idx).toArray
      parallelParse(pF, threads) { c =>
        Array[Any](c(i(0)).toLong, c(i(1)), c(i(2)).toInt, c(i(3)), c(i(4)))
      }
    }
    TpchData(li, ord, part)
  }
}
